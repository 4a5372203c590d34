"""Command-line front end: config parsing, pipeline orchestration, data files.

Runs are described by a single INI-style config (sections [molecule],
[mode k], [cavity], [grid], [run]) and are fully deterministic: no
environment variables, no random state, fixed summation orders.  This
module owns every artifact format; the library modules only compute.  Each
task is a generator that computes and formats, yielding (file name, text),
and run is the one loop with side effects: it builds the vibronic structure
once, writes each yielded artifact atomically with the permissions open()
would give, and prints its path.  Each CSV or text artifact starts with a
'#'-prefixed block echoing the resolved configuration, and rate.json
carries the same block as "_config".

    polariton <task> --config run.ini [--out DIR]

Tasks: spectrum, dynamics, rate, densities, validate.  A method (infinite,
cute0, cute1, cuteq:<q>, exactN, oracle) gives one generator (H, psi0, n_ph)
and the task alone picks the stepper: dynamics.autocorrelation for
spectrum, dynamics.propagate for dynamics.  Exit codes: 0 success, 2 for
any ValueError (bad input), 1 for a RuntimeError or LinAlgError (numerical
guard) or an OSError (an unusable --out directory or a failed write).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from .cute import CavityParams, assemble_truncated, build_H0, truncated_generator
from .oracle import N_CAP, build_full_H, oracle_generator, symmetrizer
from .perturbation import DARK_PHOTON_WEIGHT, radiative_pumping_rate
from .vibronic import MolecularModel, VibrationalMode, VibronicStructure, build_vibronic

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

    values, mode_sections = {}, {}  # mode number -> section name
    for section in dict.fromkeys(["molecule", "cavity", "grid", "run", *cp.sections()]):
        base = "mode" if section.startswith("mode") else section
        if base not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        if base == "mode":
            tag = section[4:].strip()
            if not (tag.isascii() and tag.isdigit()):  # int() would also read "1_0" and "١"
                raise ConfigError(f"mode sections must be named [mode <int>], got [{section}]")
            nu = int(tag)
            if nu in mode_sections:
                raise ConfigError(f"[{mode_sections[nu]}] and [{section}] both define mode {nu}")
            mode_sections[nu] = section
        raw = cp[section] if cp.has_section(section) else {}
        for key in raw:
            if key not in _SCHEMA[base]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
        values[section] = {}
        for key, (conv, required) in _SCHEMA[base].items():
            if key in raw:
                value = raw[key]
                if not value.isascii() or "_" in value:  # int() and float() read "1_0" and "١"
                    raise ConfigError(
                        f"bad value for '{key}' in [{section}]: {value!r} is not ASCII without '_'"
                    )
                try:
                    values[section][key] = conv(value)
                except ValueError as exc:
                    raise ConfigError(f"bad value for '{key}' in [{section}]: {exc}") from exc
            elif required:
                raise ConfigError(f"missing required key '{key}' in section [{section}]")

    modes = tuple(VibrationalMode(**values[mode_sections[nu]]) for nu in sorted(mode_sections))
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
        order = method.split(":", 1)[1]
        if not (order.isascii() and order.isdigit()):  # int() would also read "1_0" and "١"
            raise ConfigError(f"bad cuteq order in method '{method}': expected ASCII digits")
        return int(order)
    raise ConfigError(
        f"unknown method '{method}' (expected infinite, cute0, cute1, cuteq:<q>, exactN, oracle)"
    )


def _validate_compatibility(cfg: RunConfig):
    cav, task, method = cfg.cavity, cfg.task, cfg.method
    allowed = _TASK_METHODS.get(task)
    if method is None:
        if allowed is None:  # the survival tasks run the method at the configured N
            raise ConfigError(f"task {task} requires a method")
    else:
        _cuteq_order(method, cav.n_molecules)
        if allowed and method not in allowed:
            raise ConfigError(f"task {task} supports only method {' or '.join(allowed)}")
        if (method == "infinite") != cav.is_infinite:
            need = "n_molecules = inf" if method == "infinite" else "finite n_molecules"
            raise ConfigError(f"method {method} requires {need}")
    if (task == "validate" or method == "oracle") and cav.n_molecules > N_CAP:
        raise ConfigError(f"the brute-force oracle requires n_molecules <= {N_CAP}")


def _header(cfg: RunConfig, vs: VibronicStructure, extra: dict | None = None) -> dict:
    """The resolved configuration plus derived values, echoed by every artifact."""
    return {**cfg.resolved, "derived.m": vs.m, **(extra or {})}


def _comments(header: dict) -> list[str]:
    return [f"# {key} = {val}" for key, val in header.items()]


def _write(path: Path, text: str):
    """Write text to path atomically: a sibling temp file renamed over it.

    The temp file is created like open() creates a file, mode 0o666 less the
    umask, and removed if anything fails, so no artifact is ever half-written.
    """
    tmp = path.with_name(f".tmp_{os.urandom(6).hex()}_{path.name}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv(header: dict, names: str, *columns) -> str:
    """One row per sample of the float columns, each value at %.17g (round-trip exact)."""
    row = ",".join(["%.17g"] * len(columns))
    rows = [row % values for values in zip(*(np.asarray(col).tolist() for col in columns))]
    return "\n".join([*_comments(header), names, *rows]) + "\n"


def _survival_for_method(cfg: RunConfig, vs: VibronicStructure, step):
    """Photon-state survival amplitude under the configured method.

    The method gives the generator (H, psi0, n_ph): the dense zeroth block
    H0 at order 0 (at any N), truncated_generator at order q (numpy only as
    well), and the oracle's tensor Hamiltonian from the tensor photon state.
    step, the task's stepper (dynamics.autocorrelation or
    dynamics.propagate), then runs once.
    """
    cav = cfg.cavity
    q = _cuteq_order(cfg.method, cav.n_molecules)
    if q is None:
        H, psi0, n_ph = oracle_generator(vs, cav)
    elif q == 0:
        H = build_H0(vs, cav)
        psi0 = n_ph = np.eye(1, H.shape[0]).ravel()
    else:
        H = truncated_generator(vs, cav, q_max=q)
        psi0, n_ph = np.eye(1, H.shape[0]).ravel(), H.photon_numbers
    traj = step(H, psi0, cfg.grid, kappa=cav.kappa, n_ph=n_ph)
    keys = ("dim", "method", "krylov_dim", "block_steps", "substeps")
    extra = {f"derived.{key}": traj.params[key] for key in keys if key in traj.params}
    return traj, extra


def _task_spectrum(cfg: RunConfig, vs: VibronicStructure):
    traj, extra = _survival_for_method(cfg, vs, dyn.autocorrelation)
    window = cfg.options.get("window", "halfcos10")
    if "omega_min" in cfg.options or "omega_max" in cfg.options:
        lo, hi = _omega_window(cfg.options, cfg.grid)
        d_omega = cfg.grid.delta_omega
        omega = np.arange(lo, hi, d_omega)
    else:  # the FFT bins of the n_steps + 1 samples
        omega, d_omega = None, 2.0 * math.pi / ((cfg.grid.n_steps + 1) * cfg.grid.dt)
    omega, A = dyn.spectrum(traj.c_t, cfg.grid, omega=omega, window=window)
    extra["derived.delta_omega"] = f"{d_omega:.17g}"
    yield "spectrum.csv", _csv(_header(cfg, vs, extra), "omega,intensity", omega, A)


def _task_dynamics(cfg: RunConfig, vs: VibronicStructure):
    traj, extra = _survival_for_method(cfg, vs, dyn.propagate)
    c = traj.c_t
    columns = (traj.grid.times, c.real, c.imag, traj.norm_t)
    yield "trajectory.csv", _csv(_header(cfg, vs, extra), "t,re_c,im_c,norm", *columns)


def _task_rate(cfg: RunConfig, vs: VibronicStructure):
    dark = cfg.options.get("dark_index")
    if dark is None:
        dark = int(np.argmin(dyn.photonic_weights(vs, cfg.cavity)[1]))
    result = radiative_pumping_rate(vs, cfg.cavity, dark)
    channels = [
        {"k": ch.k, "mu": ch.mu, "E_f": ch.energy, "coupling_sq": ch.coupling_sq, "gamma": ch.gamma}
        for ch in result.channels
    ]
    payload = {
        "dark_index": result.dark_index,
        "E_D": result.energy,
        "photon_weight": result.photon_weight,
        "Gamma_total": result.gamma_total,
        "diagnostic": result.diagnostic,
        "channels": channels,
        "_config": {key: str(val) for key, val in _header(cfg, vs).items()},
    }
    print(f"Gamma_total = {result.gamma_total:.6e}")
    yield "rate.json", json.dumps(payload, indent=2, sort_keys=True) + "\n"


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


def _task_densities(cfg: RunConfig, vs: VibronicStructure):
    evals, weights = dyn.photonic_weights(vs, cfg.cavity)
    wanted = cfg.options.get("eigenstate")
    labels = [wanted] if wanted else ["lp", "dark"]
    for label in labels:
        idx = _select_eigenstate(label, weights)
        name = label if label in ("lp", "dark") else f"state{idx}"
        densities = dyn.dark_state_density(vs, cfg.cavity, idx)
        for nu, dens in enumerate(densities, start=1):
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
            yield f"density_{name}_mode{nu}.csv", _csv(header, "q,density", dens.q, dens.rho)


def _task_validate(cfg: RunConfig, vs: VibronicStructure):
    cav = cfg.cavity
    basis, H_sym = assemble_truncated(vs, cav, q_max=cav.n_molecules)
    H, tensor = build_full_H(vs, cav, 1)
    T = symmetrizer(tensor, basis)
    dev_H = float(abs(T.T @ (H @ T) - H_sym).max())

    # the exactN generator the CLI steps, in the order of basis; the photon state is
    # state 0 of both, and T lifts it to the tensor basis
    gen = truncated_generator(vs, cav, q_max=cav.n_molecules)
    e0 = np.eye(1, basis.dim).ravel()
    n_ph = tensor.photon_numbers()
    c_oracle = dyn.propagate(H, T @ e0, cfg.grid, kappa=cav.kappa, n_ph=n_ph).c_t
    c_cute = dyn.propagate(gen, e0, cfg.grid, kappa=cav.kappa, n_ph=gen.photon_numbers).c_t
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
    print("\n".join(report))
    yield "validate.txt", "\n".join(_comments(_header(cfg, vs)) + report) + "\n"
    if not ok:  # the report is written first
        raise RuntimeError(f"validation failed: max deviation {dev:.3e} >= {VALIDATE_TOL:.1e}")


# task -> generator (cfg, vs) -> (file name, text) of each artifact, in write order
_TASK_RUNNERS = {
    "spectrum": _task_spectrum,
    "dynamics": _task_dynamics,
    "rate": _task_rate,
    "densities": _task_densities,
    "validate": _task_validate,
}
TASKS = tuple(_TASK_RUNNERS)


def run(cfg: RunConfig, out_dir=".") -> list[Path]:
    """Execute one validated run config, writing each artifact its task yields into out_dir.

    Each artifact is written before the task resumes, so one computed before
    a failure is kept.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vs = build_vibronic(cfg.model)
    paths = []
    for name, text in _TASK_RUNNERS[cfg.task](cfg, vs):
        path = out / name
        _write(path, text)
        print(f"wrote {path}")
        paths.append(path)
    return paths


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
    except (RuntimeError, OSError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
