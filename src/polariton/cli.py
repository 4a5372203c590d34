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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from .cute import CavityParams, assemble_truncated
from .fockspace import basis_size
from .oracle import build_full_H, oracle_survival, symmetrize
from .perturbation import DARK_PHOTON_WEIGHT, radiative_pumping_rate, write_rate_json
from .vibronic import MolecularModel, VibrationalMode, VibronicStructure, build_vibronic

TASKS = ("spectrum", "dynamics", "rate", "densities", "validate")
VALIDATE_TOL = 1e-8


def _window(w: str) -> str | None:
    if w != "halfcos10" and w.lower() != "none":
        raise ValueError(f"window must be halfcos10 or none, got {w!r}")
    return None if w.lower() == "none" else w


# section -> key -> (converter, required); every [mode <int>] section reads "mode"
_SCHEMA = {
    "molecule": {"electronic_gap": (float, True)},
    "mode": {"frequency": (float, True), "huang_rhys": (float, True), "n_max": (int, True)},
    "cavity": {
        "omega_c": (float, True),
        "g_sqrt_n": (float, True),
        "n_molecules": (float, True),
        "kappa": (float, False),
    },
    "grid": {"t_max": (float, True), "n_steps": (int, True)},
    "run": {
        "task": (str, False),
        "method": (str, False),
        "omega_min": (float, False),
        "omega_max": (float, False),
        "window": (_window, False),
        "dark_index": (int, False),
        "eigenstate": (str, False),
    },
}

# task -> the methods it accepts; spectrum and dynamics require one and accept any
_TASK_METHODS = {"rate": ("cute1",), "densities": ("infinite", "cute0"), "validate": ("oracle",)}


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

    values, mode_sections = {}, []
    for section in dict.fromkeys(["molecule", "cavity", "grid", "run", *cp.sections()]):
        base = "mode" if section.startswith("mode") else section
        if base not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        if base == "mode":
            tag = section[4:].strip()
            if not tag.isdigit():
                raise ConfigError(f"mode sections must be named [mode <int>], got [{section}]")
            mode_sections.append((int(tag), section))
        raw = cp[section] if cp.has_section(section) else {}
        for key in raw:
            if key not in _SCHEMA[base]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
        values[section] = {}
        for key, (conv, required) in _SCHEMA[base].items():
            if key in raw:
                try:
                    values[section][key] = conv(raw[key])
                except ValueError as exc:
                    raise ConfigError(f"bad value for '{key}' in [{section}]: {exc}") from exc
            elif required:
                raise ConfigError(f"missing required key '{key}' in section [{section}]")

    modes = tuple(VibrationalMode(**values[section]) for _, section in sorted(mode_sections))
    model = MolecularModel(modes=modes, **values["molecule"])
    cavity = CavityParams(**values["cavity"])
    grid = dyn.TimeGrid(**values["grid"])
    options = values["run"]
    cfg_task, method = options.pop("task", None), options.pop("method", None)
    if task and cfg_task and task != cfg_task:
        raise ConfigError(f"subcommand '{task}' conflicts with config task '{cfg_task}'")
    task = task or cfg_task
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")

    if "omega_min" in options or "omega_max" in options:
        lo, hi = _omega_window(options, grid)
        if not lo < hi:
            raise ConfigError(f"omega_min = {lo:.6g} must be below omega_max = {hi:.6g}")
        if max(abs(lo), abs(hi)) > grid.omega_nyquist:
            raise ConfigError(
                f"frequency window [{lo:.6g}, {hi:.6g}] exceeds the grid's Nyquist "
                f"frequency pi / dt = {grid.omega_nyquist:.6g}"
            )

    resolved = {f"{sec}.{key}": val for sec in cp.sections() for key, val in cp[sec].items()}
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


def _cuteq_order(method: str, N) -> int | None:
    """CUT-E order q_max of a method at N molecules, None for the oracle.

    infinite is order 0 (at N = inf) and exactN is order N.
    """
    named = {"oracle": None, "infinite": 0, "cute0": 0, "cute1": 1, "exactN": N}
    if method in named:
        return named[method]
    if method.startswith("cuteq:"):
        try:
            q = int(method.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad cuteq order in method '{method}'") from exc
        if q < 0:
            raise ConfigError(f"cuteq order must be >= 0 in method '{method}'")
        return q
    raise ConfigError(
        f"unknown method '{method}' (expected infinite, cute0, cute1, cuteq:<q>, exactN, oracle)"
    )


def _validate_compatibility(cfg: RunConfig):
    cav, task, method = cfg.cavity, cfg.task, cfg.method
    allowed = _TASK_METHODS.get(task)
    if method is not None:
        _cuteq_order(method, cav.n_molecules)
        if allowed and method not in allowed:
            raise ConfigError(f"task {task} supports only method {' or '.join(allowed)}")
    if allowed is None:  # the survival tasks run the method at the configured N
        if method is None:
            raise ConfigError(f"task {task} requires a method")
        if (method == "infinite") != cav.is_infinite:
            need = "n_molecules = inf" if method == "infinite" else "finite n_molecules"
            raise ConfigError(f"method {method} requires {need}")
    if task == "validate" and cav.n_molecules > 4:
        raise ConfigError("task validate requires finite n_molecules <= 4")


def _header(cfg: RunConfig, vs: VibronicStructure, extra: dict | None = None) -> dict:
    out = dict(cfg.resolved)
    out["derived.m"] = vs.m
    if extra:
        out.update(extra)
    return out


def _survival_for_method(cfg: RunConfig, vs: VibronicStructure):
    """Photon-state survival amplitude under the configured method."""
    cav = cfg.cavity
    q = _cuteq_order(cfg.method, cav.n_molecules)
    if cfg.method == "infinite":  # the dense zeroth block H0, numpy only
        traj = dyn.photon_survival(vs, cav, cfg.grid)
    elif q is not None:
        bh = assemble_truncated(vs, cav, q_max=q)
        psi0 = np.zeros(bh.dim, dtype=complex)
        psi0[0] = 1.0
        traj = dyn.propagate(bh.matrix, psi0, cfg.grid, kappa=cav.kappa, n_ph=bh.photon_numbers)
    else:  # oracle
        N = cav.n_molecules
        psi_sym = np.zeros(basis_size(N, 1, vs.m, N), dtype=complex)
        psi_sym[0] = 1.0
        traj = oracle_survival(vs, cav, psi_sym, cfg.grid)
    keys = ("dim", "method", "krylov_dim", "block_steps", "substeps")
    extra = {f"derived.{key}": traj.params[key] for key in keys if key in traj.params}
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
    bh = assemble_truncated(vs, cav, q_max=cav.n_molecules)
    H, tb = build_full_H(vs, cav, 1)
    T, H_sym = symmetrize(H, tb, bh.basis)
    dev_H = float(abs(H_sym - bh.matrix).max())

    e0 = np.zeros(bh.dim, dtype=complex)
    e0[0] = 1.0  # the photon state, lifted to the tensor basis by T
    c_oracle = dyn.propagate(H, T @ e0, cfg.grid, kappa=cav.kappa, n_ph=tb.photon_numbers()).c_t
    c_cute = dyn.propagate(bh.matrix, e0, cfg.grid, kappa=cav.kappa, n_ph=bh.photon_numbers).c_t
    dev_c = float(np.max(np.abs(c_oracle - c_cute)))

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
