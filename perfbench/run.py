"""polariton benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a polariton checkout.  Writes the seed's inputs under
perfbench/_work/, measures set-up in SETUP_SAMPLES fresh interpreters, runs
the workload in one fresh worker process with the BLAS/OpenMP thread count
pinned to BLAS_THREADS, checks its outputs, and prints one JSON object as
the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (cpu_s, peak_rss_mb, setup_s);
--trace 1 the per-layer metrics of two extra traced jobs.  Full records,
spans included, go to perfbench/results/.  Workloads and metrics are
described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
# One thread makes the worker single-threaded, so its CPU time per job is
# the time the job ran on a CPU: on a shared 2-vCPU host, wall time also
# holds the time the hypervisor gave the vCPU to other guests (steal), and a
# second BLAS thread ties each BLAS call to the slower of two vCPUs.
BLAS_THREADS = 1
DEADLINE_S = 170.0  # a run must end within 180 s


def _percentile_tail(samples: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return None
    return f"p{100 * (n - 10) // n}", sorted(samples)[n - 11]


def _child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(threads)
    return env


def _worker(args: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return proc


def _terminate(signum, frame):
    # SystemExit unwinds subprocess.run, which kills and reaps the worker.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    started = time.monotonic()
    deadline = started + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "polariton" / "__init__.py").is_file():
        print(f"error: no polariton sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        spec = make_inputs(args.workload, args.seed, workdir)
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        env = _child_env(min(BLAS_THREADS, len(os.sched_getaffinity(0))))

        setup = [json.loads(_worker(["--spec", str(spec_path), "--setup-only"], env,
                                    deadline).stdout.splitlines()[-1])["setup_s"]
                 for _ in range(SETUP_SAMPLES)]
        result_path = workdir / "result.json"
        _worker(["--spec", str(spec_path), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--result", str(result_path)], env, deadline)
        result = json.loads(result_path.read_text())
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result["setup_samples_s"] = setup
    findings = result["checks"]
    failed_checks = sorted(k for k, (val, tol) in findings.items() if not val <= tol)
    correct = result["failed"] == 0 and bool(findings)

    wall, cpu = result["wall_s"], result["cpu_s"]
    if args.trace:
        metrics = {name: {"value": val, "unit": unit}
                   for name, (val, unit) in result["trace"]["metrics"].items()}
    else:
        metrics = {
            "cpu_s": {"value": statistics.median(cpu), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "run_s": time.monotonic() - started,
              "trace": args.trace, "correct": correct, "failed_checks": failed_checks,
              "expected_sizes": spec["sizes"], **result}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"environment: {json.dumps(result['environment'])}")
    print(f"sizes: {json.dumps(result['sizes'])} expected {json.dumps(spec['sizes'])}")
    print(f"checks: {json.dumps(findings)} failed {failed_checks}")
    for name, samples in (("cpu_s", cpu), ("wall_s", wall)):
        tail = _percentile_tail(samples)
        print(f"{name} samples: n={len(samples)} median={statistics.median(samples):.6g}"
              + (f" {tail[0]}={tail[1]:.6g}" if tail
                 else " (no percentile has 10 samples beyond it)"))
    print(f"setup_s samples: {' '.join(f'{s:.6g}' for s in setup)}")
    if result["errors"]:
        print(f"errors: {result['errors']}")
    if args.trace:
        tr = result["trace"]
        self_s = {k[:-2]: v for k, (v, unit) in tr["metrics"].items() if unit == "s"}
        by_module = {}
        for name, val in self_s.items():
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + val
        print(f"trace: traced {tr['traced_wall_s']:.6g} s, untraced median "
              f"{tr['untraced_wall_s']:.6g} s, overhead {tr['overhead_s']:.6g} s")
        print(f"largest self time: {max(self_s, key=self_s.get)}; by module: "
              + ", ".join(f"{k} {v:.4g} s" for k, v in sorted(by_module.items(),
                                                           key=lambda kv: -kv[1])))
        if tr["counter_errors"]:
            print(f"counter errors: {tr['counter_errors']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
