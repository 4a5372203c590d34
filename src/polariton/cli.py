"""Command-line front end: config parsing, pipeline orchestration, data files.

Runs are described by a single INI-style config (sections [molecule],
[mode k], [cavity], [grid], [run]) and are fully deterministic: no
environment variables, no random state, fixed summation orders.  Every
output file starts with a '#'-prefixed block echoing the resolved
configuration.

    polariton <task> --config run.ini [--out DIR]

Tasks: spectrum, dynamics, rate, densities, validate.  Exit codes: 0 success,
2 for any ValueError (bad input), 1 for a RuntimeError or LinAlgError (numerical guard).
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from .cute import CavityParams, assemble_truncated
from .fockspace import enumerate_basis
from .oracle import build_full_H, oracle_survival, symmetrize
from .perturbation import DARK_PHOTON_WEIGHT, radiative_pumping_rate, write_rate_json
from .vibronic import MolecularModel, VibrationalMode, VibronicStructure, build_vibronic

TASKS = ("spectrum", "dynamics", "rate", "densities", "validate")
VALIDATE_TOL = 1e-8

_SECTION_KEYS = {
    "molecule": {"electronic_gap"},
    "mode": {"frequency", "huang_rhys", "n_max"},
    "cavity": {"omega_c", "g_sqrt_n", "n_molecules", "kappa"},
    "grid": {"t_max", "n_steps"},
    "run": {
        "task",
        "method",
        "omega_min",
        "omega_max",
        "window",
        "dark_index",
        "eigenstate",
    },
}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (exit code 2)."""


@dataclass
class RunConfig:
    """Fully resolved, validated run description."""

    model: MolecularModel
    cavity: CavityParams
    grid: dyn.TimeGrid
    task: str
    method: str | None
    options: dict = field(default_factory=dict)
    resolved: dict = field(default_factory=dict)


def parse_config(path, task: str | None = None) -> RunConfig:
    """Read and validate an INI run config; `task` must match [run] task if both given.

    Malformed INI raises ConfigError, a parameter the library rejects its ValueError.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")

    mode_sections = []
    for section in cp.sections():
        base = "mode" if section.startswith("mode") else section
        if base not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _SECTION_KEYS[base]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
        if base == "mode":
            tag = section[4:].strip()
            if not tag.isdigit():
                raise ConfigError(f"mode sections must be named [mode <int>], got [{section}]")
            mode_sections.append((int(tag), section))

    def need(section, key, conv=float):
        if section not in cp or key not in cp[section]:
            raise ConfigError(f"missing required key '{key}' in section [{section}]")
        return convert(section, key, conv)

    def convert(section, key, conv):
        try:
            return conv(cp[section][key])
        except ValueError as exc:
            raise ConfigError(f"bad value for '{key}' in [{section}]: {exc}") from exc

    modes = []
    for _, section in sorted(mode_sections):
        modes.append(
            VibrationalMode(
                frequency=need(section, "frequency"),
                huang_rhys=need(section, "huang_rhys"),
                n_max=need(section, "n_max", int),
            )
        )
    model = MolecularModel(electronic_gap=need("molecule", "electronic_gap"), modes=tuple(modes))
    cavity = CavityParams(
        omega_c=need("cavity", "omega_c"),
        g_sqrt_n=need("cavity", "g_sqrt_n"),
        n_molecules=need("cavity", "n_molecules"),
        kappa=convert("cavity", "kappa", float) if "kappa" in cp["cavity"] else 0.0,
    )
    grid = dyn.TimeGrid(t_max=need("grid", "t_max"), n_steps=need("grid", "n_steps", int))

    cfg_task = cp["run"].get("task") if "run" in cp else None
    if task and cfg_task and task != cfg_task:
        raise ConfigError(f"subcommand '{task}' conflicts with config task '{cfg_task}'")
    task = task or cfg_task
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")

    method = cp["run"].get("method") if "run" in cp else None
    options = {}
    if "run" in cp:
        for key in ("omega_min", "omega_max"):
            if key in cp["run"]:
                options[key] = convert("run", key, float)
        if "window" in cp["run"]:
            w = cp["run"]["window"].strip()
            if w != "halfcos10" and w.lower() != "none":
                raise ConfigError(f"window must be halfcos10 or none, got {w!r}")
            options["window"] = None if w.lower() == "none" else w
        if "dark_index" in cp["run"]:
            options["dark_index"] = convert("run", "dark_index", int)
        if "eigenstate" in cp["run"]:
            options["eigenstate"] = cp["run"]["eigenstate"].strip()

    if "omega_min" in options or "omega_max" in options:
        lo, hi = _omega_window(options, grid)
        if not lo < hi:
            raise ConfigError(f"omega_min = {lo:.6g} must be below omega_max = {hi:.6g}")
        if max(abs(lo), abs(hi)) > grid.omega_nyquist:
            raise ConfigError(
                f"frequency window [{lo:.6g}, {hi:.6g}] exceeds the grid's Nyquist "
                f"frequency pi / dt = {grid.omega_nyquist:.6g}"
            )

    resolved = {}
    for section in cp.sections():
        for key, val in cp[section].items():
            resolved[f"{section}.{key}"] = val
    resolved["run.task"] = task

    cfg = RunConfig(
        model=model,
        cavity=cavity,
        grid=grid,
        task=task,
        method=method,
        options=options,
        resolved=resolved,
    )
    _validate_compatibility(cfg)
    return cfg


def _omega_window(options: dict, grid: dyn.TimeGrid) -> tuple[float, float]:
    """[omega_min, omega_max) of the spectrum, defaulting to [0, Nyquist)."""
    return options.get("omega_min", 0.0), options.get("omega_max", grid.omega_nyquist)


def _parse_method(method: str, N) -> tuple[str, int | None]:
    """Normalize a method name to ('oracle'|'cuteq', q); infinite is cuteq order 0 at N = inf."""
    if method == "oracle":
        return "oracle", None
    if method in ("infinite", "cute0"):
        return "cuteq", 0
    if method == "cute1":
        return "cuteq", 1
    if method == "exactN":
        if math.isinf(N):
            raise ConfigError("method exactN requires finite n_molecules")
        return "cuteq", int(N)
    if method.startswith("cuteq:"):
        try:
            q = int(method.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad cuteq order in method '{method}'") from exc
        if q < 0:
            raise ConfigError(f"cuteq order must be >= 0 in method '{method}'")
        return "cuteq", q
    raise ConfigError(
        f"unknown method '{method}' (expected infinite, cute0, cute1, cuteq:<q>, exactN, oracle)"
    )


def _validate_compatibility(cfg: RunConfig):
    N = cfg.cavity.n_molecules
    task, method = cfg.task, cfg.method
    if task in ("spectrum", "dynamics"):
        if method is None:
            raise ConfigError(f"task {task} requires a method")
        _parse_method(method, N)
        if method == "infinite" and not cfg.cavity.is_infinite:
            raise ConfigError("method infinite requires n_molecules = inf")
        if method != "infinite" and cfg.cavity.is_infinite:
            raise ConfigError(f"method {method} requires finite n_molecules")
    elif task == "rate":
        if cfg.cavity.is_infinite:
            raise ConfigError("task rate requires finite n_molecules (infinite forbids rate)")
        if cfg.cavity.kappa <= 0:
            raise ConfigError("task rate requires kappa > 0")
        if method is not None and method != "cute1":
            raise ConfigError("task rate supports only method cute1")
    elif task == "densities":
        if method is not None and method not in ("infinite", "cute0"):
            raise ConfigError("task densities supports methods infinite or cute0")
    elif task == "validate":
        if method is not None and method != "oracle":
            raise ConfigError("task validate supports only method oracle")
        if cfg.cavity.is_infinite or N > 4:
            raise ConfigError("task validate requires finite n_molecules <= 4")


def _header(cfg: RunConfig, vs: VibronicStructure, extra: dict | None = None) -> dict:
    out = dict(cfg.resolved)
    out["derived.m"] = vs.m
    if extra:
        out.update(extra)
    return out


def _survival_for_method(cfg: RunConfig, vs: VibronicStructure, bh=None):
    """Photon-state survival amplitude under the configured method.

    A cuteq method propagates bh, its truncation, when the caller has
    already assembled it.
    """
    cav = cfg.cavity
    kind, q = _parse_method(cfg.method, cav.n_molecules)
    if kind == "cuteq":
        if bh is None:
            bh = assemble_truncated(vs, cav, q_max=q)
        psi0 = np.zeros(bh.dim, dtype=complex)
        psi0[0] = 1.0
        traj = dyn.propagate(bh.matrix, psi0, cfg.grid, kappa=cav.kappa, n_ph=bh.photon_numbers)
    else:  # oracle
        N = int(cav.n_molecules)
        psi_sym = np.zeros(enumerate_basis(N, 1, vs.m, q_max=N).dim, dtype=complex)
        psi_sym[0] = 1.0
        traj = oracle_survival(vs, cav, N, psi_sym, cfg.grid)
    extra = {"derived.dim": traj.params["dim"], "derived.method": traj.params["method"]}
    for key in ("krylov_dim", "block_steps", "substeps"):
        if key in traj.params:
            extra[f"derived.{key}"] = traj.params[key]
    return traj, extra


def _task_spectrum(cfg: RunConfig, out_dir: Path):
    vs = build_vibronic(cfg.model)
    traj, extra = _survival_for_method(cfg, vs)
    window = cfg.options.get("window", "halfcos10")
    if "omega_min" in cfg.options or "omega_max" in cfg.options:
        lo, hi = _omega_window(cfg.options, cfg.grid)
        d_omega = cfg.grid.delta_omega
        omega = np.arange(lo, hi, d_omega)
    else:  # the FFT bins of the n_steps + 1 samples
        omega, d_omega = None, 2.0 * math.pi / ((cfg.grid.n_steps + 1) * cfg.grid.dt)
    omega, A = dyn.spectrum(traj.c_t, cfg.grid, omega=omega, window=window)
    extra["derived.delta_omega"] = f"{d_omega:.17g}"
    path = out_dir / "spectrum.csv"
    dyn.write_spectrum_csv(path, omega, A, header=_header(cfg, vs, extra))
    print(f"wrote {path}")
    return [path]


def _task_dynamics(cfg: RunConfig, out_dir: Path):
    vs = build_vibronic(cfg.model)
    traj, extra = _survival_for_method(cfg, vs)
    path = out_dir / "trajectory.csv"
    dyn.write_trajectory_csv(path, traj, header=_header(cfg, vs, extra))
    print(f"wrote {path}")
    return [path]


def _task_rate(cfg: RunConfig, out_dir: Path):
    vs = build_vibronic(cfg.model)
    dark = cfg.options.get("dark_index")
    if dark is None:
        dark = int(np.argmin(dyn.photonic_weights(vs, cfg.cavity)[1]))
    result = radiative_pumping_rate(vs, cfg.cavity, dark)
    path = out_dir / "rate.json"
    write_rate_json(path, result, header=_header(cfg, vs))
    print(f"wrote {path} (Gamma_total = {result.gamma_total:.6e})")
    return [path]


def _select_eigenstate(label: str, weights) -> int:
    if label == "lp":
        with_photon = np.where(weights >= 0.05)[0]
        if with_photon.size == 0:
            raise ConfigError("no polariton-like eigenstate (photonic weight >= 0.05)")
        return int(with_photon[0])
    if label == "dark":
        darks = np.where(weights < DARK_PHOTON_WEIGHT)[0]
        if darks.size == 0:
            raise ConfigError(f"no dark eigenstate (photonic weight < {DARK_PHOTON_WEIGHT:g})")
        return int(darks[0])
    try:
        return int(label)
    except ValueError as exc:
        raise ConfigError(f"eigenstate must be 'lp', 'dark' or an index, got {label!r}") from exc


def _task_densities(cfg: RunConfig, out_dir: Path):
    vs = build_vibronic(cfg.model)
    evals, weights = dyn.photonic_weights(vs, cfg.cavity)
    wanted = cfg.options.get("eigenstate")
    labels = [wanted] if wanted else ["lp", "dark"]
    paths = []
    for label in labels:
        idx = _select_eigenstate(label, weights)
        name = label if label in ("lp", "dark") else f"state{idx}"
        densities = dyn.dark_state_density(vs, cfg.cavity, idx)
        for nu, dens in enumerate(densities, start=1):
            path = out_dir / f"density_{name}_mode{nu}.csv"
            header = _header(
                cfg,
                vs,
                {
                    "derived.eigenstate_index": idx,
                    "derived.energy": f"{evals[idx]:.17g}",
                    "derived.photon_weight": f"{weights[idx]:.17g}",
                    "derived.mode_displacement": f"{dens.displacement:.17g}",
                },
            )
            lines = [f"# {k} = {v}" for k, v in header.items()]
            lines.append("q,density")
            lines.extend(f"{q:.17g},{r:.17g}" for q, r in zip(dens.q, dens.rho))
            dyn.atomic_write_text(path, "\n".join(lines) + "\n")
            paths.append(path)
            print(f"wrote {path}")
    return paths


def _task_validate(cfg: RunConfig, out_dir: Path):
    vs = build_vibronic(cfg.model)
    cav = cfg.cavity
    N = int(cav.n_molecules)
    bh = assemble_truncated(vs, cav, q_max=N)
    _, H_sym = symmetrize(*build_full_H(vs, cav, N, 1), bh.basis)
    dev_H = float(abs(H_sym - bh.matrix).max())

    traj_oracle, _ = _survival_for_method(replace(cfg, method="oracle"), vs)
    traj_cute, _ = _survival_for_method(replace(cfg, method="exactN"), vs, bh)
    dev_c = float(np.max(np.abs(traj_oracle.c_t - traj_cute.c_t)))

    dev = max(dev_H, dev_c)
    ok = dev < VALIDATE_TOL
    report = [
        f"max |H_sym - H_cute|            = {dev_H:.3e}",
        f"max |c_oracle(t) - c_cute(t)|   = {dev_c:.3e}",
        f"max deviation                   = {dev:.3e}",
        f"tolerance                       = {VALIDATE_TOL:.1e}",
        f"result                          = {'PASS' if ok else 'FAIL'}",
    ]
    path = out_dir / "validate.txt"
    header = [f"# {k} = {v}" for k, v in _header(cfg, vs).items()]
    dyn.atomic_write_text(path, "\n".join(header + report) + "\n")
    print("\n".join(report))
    print(f"wrote {path}")
    if not ok:
        raise RuntimeError(f"validation failed: max deviation {dev:.3e} >= {VALIDATE_TOL:.1e}")
    return [path]


_TASK_RUNNERS = {
    "spectrum": _task_spectrum,
    "dynamics": _task_dynamics,
    "rate": _task_rate,
    "densities": _task_densities,
    "validate": _task_validate,
}


def run(cfg: RunConfig, out_dir=".") -> list[Path]:
    """Execute one validated run config, writing artifacts into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _TASK_RUNNERS[cfg.task](cfg, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polariton",
        description="Molecular-polariton dynamics via collective blocks and 1/N corrections",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task, help=f"run the {task} pipeline")
        p.add_argument("--config", required=True, help="INI run configuration")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
    args = parser.parse_args(argv)

    try:
        run(parse_config(args.config, task=args.task), args.out)
    except (RuntimeError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
