"""One benchmark process: set up, run a workload in a closed loop, check it.

    python3 perfbench/worker.py --spec SPEC.json --setup-only
    python3 perfbench/worker.py --spec SPEC.json --seconds S --trace 0|1 --result OUT.json

Run from the root of a polariton checkout; the package is imported from its
`src/`.  Set-up is `import polariton` plus parsing and validating the
workload's config, timed from a fresh interpreter before anything imports
numpy.  The loop then repeats the workload (one caller, each job started
after the previous one ends) until S seconds have passed, at least once,
and records each job's wall time and the process's CPU time over it.
Peak RSS is read before the untimed correctness checks run.  With
--trace 1 two further jobs run with the layer wrappers installed: one for
self times and counters, one under tracemalloc for per-span peak memory.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path


def _setup(spec):
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import polariton
    import polariton.cli

    polariton.cli.parse_config(spec["config"])
    elapsed = time.perf_counter() - start
    if Path(polariton.__file__).resolve().parent != (src / "polariton").resolve():
        raise RuntimeError(f"imported polariton from {polariton.__file__}, not from {src}")
    return elapsed


def _read_csv(path: Path):
    """(header dict, data array) of a polariton CSV artifact."""
    import numpy as np

    header, rows = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            header[key.strip()] = val.strip()
        elif line and not line[0].isalpha():
            rows.append(line)
    return header, np.loadtxt(rows, delimiter=",", ndmin=2)


class _CliJob:
    """One `polariton <task> --config ... --out ...` invocation, in process."""

    def __init__(self, spec, outdir: Path):
        self.argv = [spec["task"], "--config", spec["config"], "--out", str(outdir)]
        self.output = outdir / spec["output"]

    def __call__(self):
        import polariton.cli

        with redirect_stdout(io.StringIO()):
            code = polariton.cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"polariton {self.argv[0]} exited with code {code}")

    def collect(self):
        return _read_csv(self.output)


class _OneOverNJob:
    """Leading 1/N survival correction plus dark-state pumping rates at two N."""

    def __init__(self, spec):
        self.spec = spec
        self.result = None

    def __call__(self):
        from dataclasses import replace

        import numpy as np
        from polariton import cli, cute, dynamics, perturbation, vibronic

        s = self.spec
        model = vibronic.MolecularModel(
            electronic_gap=s["electronic_gap"],
            modes=tuple(vibronic.VibrationalMode(w, hr, n) for w, hr, n in s["corr_modes"]),
        )
        vs = vibronic.build_vibronic(model)
        cav = cute.CavityParams(n_molecules=s["corr_n"], **s["corr_cavity"])
        grid = dynamics.TimeGrid(t_max=s["corr_t_max"], n_steps=s["corr_n_steps"])
        psi0 = np.zeros(vs.m + 1, dtype=complex)
        psi0[0] = 1.0
        corr = perturbation.survival_correction(vs, cav, psi0, grid)

        cfg = cli.parse_config(s["config"])
        vs_rate = vibronic.build_vibronic(cfg.model)
        rates = [
            perturbation.radiative_pumping_rate(
                vs_rate, replace(cfg.cavity, n_molecules=n), s["dark_index"]
            ).gamma_total
            for n in s["rate_n"]
        ]
        self.result = (vs, cav, grid, corr, vs_rate.m, rates)

    def collect(self):
        return self.result


def _check(spec, outputs) -> tuple[dict, list[dict]]:
    """Observed sizes, and each job's deviation from the reference per check."""
    import numpy as np

    import checks
    from polariton import cli, vibronic

    workload = spec["workload"]
    if workload == "one_over_n":
        vs, cav, grid, corr, rate_m, _ = outputs[0]
        sizes = {"m": vs.m, "nt": len(corr.c1_t), "rate_m": rate_m}
        c1_ref, corr_ref = checks.correction_reference(vs, cav, grid)
        N = cav.n_molecules
        scale = np.max(np.abs(corr_ref))
        return sizes, [
            {
                "c1_dev": float(np.max(np.abs(corr.c1_t - c1_ref))),
                "corr_rel_dev": float(np.max(np.abs(N * corr.c_corr_t - corr_ref)) / scale),
                "rate_ratio_err": abs(g100 / g50 / checks.RATE_RATIO - 1.0) if g50 > 0 else 1.0,
            }
            for _, _, _, corr, _, (g50, g100) in outputs
        ]

    cfg = cli.parse_config(spec["config"])
    vs = vibronic.build_vibronic(cfg.model)
    header, data = outputs[0]
    sizes = {"m": int(header["derived.m"]), "dim": int(header["derived.dim"]),
             "nt": cfg.grid.n_steps + 1}
    if workload == "fig5_spectrum":
        n_omega = len(data)
        sizes["n_omega"] = n_omega
        d_omega = cfg.grid.delta_omega
        ref = checks.pole_czt_spectrum(vs, cfg.cavity, cfg.grid, data[0, 0], d_omega, n_omega)
        steps = d_omega * np.arange(n_omega)
        return sizes, [
            {
                "omega_grid_err": float(np.max(np.abs(d[:, 0] - (d[0, 0] + steps)))),
                "spectrum_dev": float(np.max(np.abs(d[:, 1] - ref))),
            }
            for _, d in outputs
        ]
    sizes["nt"] = len(data)
    stride = max(1, cfg.grid.n_steps // 128)
    ref = checks.trajectory_reference(vs, cfg.cavity, cfg.grid, stride)
    return sizes, [
        {"trajectory_dev": float(np.max(np.abs(d[::stride, 1] + 1j * d[::stride, 2] - ref)))}
        for _, d in outputs
    ]


def _environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def _timed(job, outputs, errors) -> tuple[float, float]:
    """Run one job; return its (wall, CPU) seconds.

    The output is kept for the checks, which are not timed.
    """
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        job()
    except Exception as exc:  # a failed job is counted, not fatal
        errors.append(f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - start, time.process_time() - cpu_start
    elapsed = time.perf_counter() - start, time.process_time() - cpu_start
    outputs.append(job.collect())
    return elapsed


def _traced(tracing, tracer, job, outputs, errors) -> float:
    """One job with the layer wrappers installed, under tracemalloc if tracer.memory."""
    import tracemalloc

    restore = tracing.install(tracer)
    if tracer.memory:
        tracemalloc.start()
    try:
        with tracer.span("workload"):
            return _timed(job, outputs, errors)[0]
    finally:
        if tracer.memory:
            tracemalloc.stop()
        restore()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result")
    args = ap.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())

    setup_s = _setup(spec)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    outdir = Path(args.spec).parent / "out"
    outdir.mkdir(exist_ok=True)
    job = _OneOverNJob(spec) if spec["task"] is None else _CliJob(spec, outdir)
    outputs, errors, wall, cpu = [], [], [], []
    start = time.perf_counter()
    while not wall or time.perf_counter() - start < args.seconds:
        wall_s, cpu_s = _timed(job, outputs, errors)
        wall.append(wall_s)
        cpu.append(cpu_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    trace = None
    if args.trace:
        import tracing

        # Spans and counters first; tracemalloc slows allocation-heavy Python
        # layers several-fold, so per-span peaks come from a second job.
        tracer = tracing.Tracer(memory=False)
        traced_s = _traced(tracing, tracer, job, outputs, errors)
        mem_tracer = tracing.Tracer(memory=True)
        mem_traced_s = _traced(tracing, mem_tracer, job, outputs, errors)
        metrics = tracing.layer_metrics(tracer)
        metrics.update(tracing.peak_metrics(mem_tracer))
        wall_untraced = statistics.median(wall)
        trace = {
            "metrics": metrics,
            "spans": tracer.records(),
            "memory_spans": mem_tracer.records(),
            "traced_wall_s": traced_s,
            "tracemalloc_wall_s": mem_traced_s,
            "untraced_wall_s": wall_untraced,
            "overhead_s": traced_s - wall_untraced,
            "counter_errors": tracer.errors + mem_tracer.errors,
        }

    # A job whose output misses a tolerance, or a run whose sizes differ from
    # the fixed ones, counts as failed.
    import checks

    sizes, per_job = _check(spec, outputs) if outputs else ({}, [])
    sizes_ok = sizes == spec["sizes"]
    bad_jobs = sum(1 for devs in per_job
                   if not sizes_ok or any(not v <= checks.TOLERANCES[k] for k, v in devs.items()))
    names = per_job[0].keys() if per_job else ()
    findings = {k: (max(devs[k] for devs in per_job), checks.TOLERANCES[k]) for k in names}
    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(wall) + (2 if trace else 0),
        "failed": len(errors) + bad_jobs,
        "errors": errors,
        "sizes": sizes,
        "sizes_ok": sizes_ok,
        "checks": findings,
        "trace": trace,
        "environment": _environment(),
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
