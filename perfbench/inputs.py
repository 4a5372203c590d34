"""Workload definitions and seeded input generation (standard library only).

Every workload has fixed sizes (vibronic states m, molecule number N,
truncation order, time samples, frequency count).  The seed only jitters
the continuous parameters omega_c, g_sqrt_n, kappa and huang_rhys by at most
JITTER (relative), so the work done per run does not depend on the seed.

The fig5 parameters are a copy of the repository's shipped
configs/fig5_spectrum.ini and the rate parameters a copy of
configs/pumping_rate.ini: the benchmark owns its inputs, so an edit to the
shipped configs cannot silently change a workload.
"""

from __future__ import annotations

import random
from pathlib import Path

JITTER = 0.02

WORKLOADS = ("fig5_spectrum", "finite_n_long", "finite_n_wide", "one_over_n")

# fig5 two-mode molecule: (frequency, huang_rhys, n_max); the slow mode's
# n_max is what the finite-N workloads cut down.
_FIG5_MODES = ((0.01, 0.01, 2), (0.001, 16.0, 40))
_FIG5_CAVITY = {"omega_c": 0.1161, "g_sqrt_n": 0.03, "kappa": 0.0015}

# configs/pumping_rate.ini: one mode, dark state index 2, N = 50.
_RATE_MODES = ((0.02, 1.0, 5),)
_RATE_CAVITY = {"omega_c": 0.08225, "g_sqrt_n": 0.00025, "kappa": 0.0015}
RATE_N = (50, 100)
RATE_DARK_INDEX = 2

# one_over_n correction model: one mode (0.01, s = 1, n_max = 11), m = 12.
_CORR_MODES = ((0.01, 1.0, 11),)
_CORR_CAVITY = {"omega_c": 0.11, "g_sqrt_n": 0.01, "kappa": 0.0}
CORR_N = 1000
CORR_T_MAX = 1000.0
CORR_N_STEPS = 1000

ELECTRONIC_GAP = 0.1


def _m(modes) -> int:
    m = 1
    for _, _, n_max in modes:
        m *= n_max + 1
    return m


def _cute1_dim(m: int) -> int:
    """Zeroth block (m + 1) plus m - 1 quasi = 1 sub-blocks of size m + 1."""
    return (m + 1) + (m - 1) * (m + 1)


def _jitter(rng: random.Random, value: float) -> float:
    return value * (1.0 + JITTER * rng.uniform(-1.0, 1.0))


def _jitter_modes(rng, modes):
    return tuple((w, _jitter(rng, s), n) for w, s, n in modes)


def _jitter_cavity(rng, cavity):
    return {key: _jitter(rng, val) for key, val in cavity.items()}


def _ini(modes, cavity, n_molecules, t_max, n_steps, run: dict) -> str:
    lines = ["[molecule]", f"electronic_gap = {ELECTRONIC_GAP!r}", ""]
    for i, (w, s, n_max) in enumerate(modes, start=1):
        lines += [f"[mode {i}]", f"frequency = {w!r}", f"huang_rhys = {s!r}", f"n_max = {n_max}", ""]
    lines += ["[cavity]"]
    lines += [f"{key} = {val!r}" for key, val in cavity.items()]
    lines += [f"n_molecules = {n_molecules}", ""]
    lines += ["[grid]", f"t_max = {t_max!r}", f"n_steps = {n_steps}", ""]
    lines += ["[run]"] + [f"{key} = {val}" for key, val in run.items()]
    return "\n".join(lines) + "\n"


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's config for `seed` into workdir; return its spec.

    The spec holds the config path, the CLI task (None for library
    workloads), the jittered parameters the checks need, and the fixed
    sizes every seed must reproduce.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / f"{workload}.ini"

    if workload == "fig5_spectrum":
        modes = _jitter_modes(rng, _FIG5_MODES)
        cavity = _jitter_cavity(rng, _FIG5_CAVITY)
        t_max = n_steps = 65536
        text = _ini(modes, cavity, "inf", float(t_max), n_steps,
                    {"task": "spectrum", "method": "infinite",
                     "omega_min": 0.05, "omega_max": 0.2})
        m = _m(modes)
        sizes = {"m": m, "dim": m + 1, "nt": n_steps + 1, "n_omega": 1565}
        spec = {"task": "spectrum", "output": "spectrum.csv"}
    elif workload in ("finite_n_long", "finite_n_wide"):
        slow_n_max, n_steps = (13, 2048) if workload == "finite_n_long" else (24, 256)
        base = (_FIG5_MODES[0], (_FIG5_MODES[1][0], _FIG5_MODES[1][1], slow_n_max))
        modes = _jitter_modes(rng, base)
        cavity = _jitter_cavity(rng, _FIG5_CAVITY)
        text = _ini(modes, cavity, 100, float(n_steps), n_steps,
                    {"task": "dynamics", "method": "cute1"})
        m = _m(modes)
        sizes = {"m": m, "dim": _cute1_dim(m), "nt": n_steps + 1}
        spec = {"task": "dynamics", "output": "trajectory.csv"}
    else:  # one_over_n
        modes = _jitter_modes(rng, _RATE_MODES)
        cavity = _jitter_cavity(rng, _RATE_CAVITY)
        text = _ini(modes, cavity, RATE_N[0], 1000.0, 100,
                    {"task": "rate", "dark_index": RATE_DARK_INDEX})
        corr_modes = _jitter_modes(rng, _CORR_MODES)
        corr_cavity = _jitter_cavity(rng, _CORR_CAVITY)
        m = _m(corr_modes)
        sizes = {"m": m, "nt": CORR_N_STEPS + 1, "rate_m": _m(modes)}
        spec = {"task": None, "corr_modes": corr_modes, "corr_cavity": corr_cavity,
                "corr_n": CORR_N, "corr_t_max": CORR_T_MAX,
                "corr_n_steps": CORR_N_STEPS, "rate_n": RATE_N,
                "dark_index": RATE_DARK_INDEX}

    config.write_text(text)
    spec.update({"workload": workload, "seed": seed, "config": str(config),
                 "electronic_gap": ELECTRONIC_GAP, "sizes": sizes})
    return spec
