"""Span tracer that times polariton's layers from outside.

The benchmark never edits the program.  For the traced run it replaces
public layer functions with timing wrappers at the names their callers
resolve at call time (`from ... import` binds early, so e.g. the CLI's
`assemble_truncated` is patched in `polariton.cli`, and `map_operator` in
`polariton.cute`).  A location that no longer exists is skipped, so the
benchmark keeps running when a later version removes or moves a function;
its metrics then read 0.

Each span holds a name, start, end and parent; spans stay in memory and
are written out when the run ends.  Self time is a span's duration minus
the time its child spans cover.  Per-span peak memory comes from
tracemalloc and is the peak increase over the memory in use when the span
started, children included.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc
from contextlib import contextmanager

MB = 1024.0 * 1024.0


class Tracer:
    """In-memory span recorder with per-span tracemalloc peaks and counters."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.errors: list[str] = []
        self._stack: list[dict] = []

    def add(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0) + value

    def high(self, key: str, value: float):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def _fold_peak(self):
        """Fold tracemalloc's peak since the last reset into the open span."""
        peak = tracemalloc.get_traced_memory()[1]
        if self._stack:
            self._stack[-1]["_peak"] = max(self._stack[-1]["_peak"], peak)
        tracemalloc.reset_peak()

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "child_s": 0.0,
        }
        if self.memory:
            self._fold_peak()
            rec["_base"] = rec["_peak"] = tracemalloc.get_traced_memory()[0]
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if self.memory:
                self._fold_peak()
                rec["peak_mb"] = (rec["_peak"] - rec["_base"]) / MB
            self._stack.pop()
            duration = rec["end"] - rec["start"]
            rec["self_s"] = duration - rec["child_s"]
            if self._stack:
                parent = self._stack[-1]
                parent["child_s"] += duration
                if self.memory:
                    parent["_peak"] = max(parent["_peak"], rec["_peak"])

    def records(self) -> list[dict]:
        return [{k: v for k, v in rec.items() if not k.startswith("_")} for rec in self.spans]

    def self_time(self, name: str) -> float:
        return sum(rec["self_s"] for rec in self.spans if rec["name"] == name)

    def peak_mb(self, name: str) -> float:
        return max((rec["peak_mb"] for rec in self.spans if rec["name"] == name), default=0.0)


# Counters recorded from a call's arguments and result: (tracer, args, kwargs, result).


def _count_basis(tr, args, kwargs, basis):
    tr.high("fockspace.basis_states", basis.dim)


def _count_nnz(tr, args, kwargs, mat):
    tr.add("fockspace.map_operator.nnz", mat.nnz)


def _count_assembly(tr, args, kwargs, bh):
    tr.high("cute.dim", bh.dim)


def _count_vibronic(tr, args, kwargs, vs):
    tr.high("vibronic.m", vs.m)


def _count_propagate(tr, args, kwargs, traj):
    from polariton import dynamics

    psi0 = args[1] if len(args) > 1 else kwargs["psi0"]
    dim = len(psi0)
    tr.high("dynamics.propagate.dim", dim)
    tr.high("dynamics.propagate.nt", len(traj.c_t))
    used = traj.params.get("method")
    requested = args[7] if len(args) > 7 else kwargs.get("method", "auto")
    tr.add(f"dynamics.propagate.{used}_calls", 1)
    limit = getattr(dynamics, "DENSE_DIM_LIMIT", None)
    if requested == "auto" and limit is not None and dim <= limit and used == "krylov":
        tr.add("dynamics.propagate.fallbacks", 1)


def _count_spectrum(tr, args, kwargs, result):
    c_t = args[0] if args else kwargs["c_t"]
    omega = result[0]
    tr.high("dynamics.spectrum.n_omega", len(omega))
    tr.high("dynamics.spectrum.nt", len(c_t))
    tr.add("dynamics.spectrum.macs", len(omega) * len(c_t))


def _count_written(tr, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tr.add("io.bytes_written", os.path.getsize(path))


def _count_correction(tr, args, kwargs, result):
    vs = args[0] if args else kwargs["vs"]
    m, nt = vs.m, len(result.c1_t)
    tr.add("perturbation.survival_correction.phase_integrals", (m - 1) * (m + 1) ** 3 * nt)


def _count_rate(tr, args, kwargs, result):
    tr.add("perturbation.radiative_pumping_rate.calls", 1)


# span name -> (locations callers resolve, counter).  A location is
# "module:attribute" or "module:Class.method".
LAYERS = {
    "cli.parse_config": (("polariton.cli:parse_config",), None),
    "vibronic.build_vibronic": (
        ("polariton.cli:build_vibronic", "polariton.vibronic:build_vibronic"),
        _count_vibronic,
    ),
    "cute.assemble_truncated": (
        ("polariton.cli:assemble_truncated", "polariton.cute:assemble_truncated"),
        _count_assembly,
    ),
    "fockspace.enumerate_basis": (
        ("polariton.cute:enumerate_basis", "polariton.fockspace:enumerate_basis"),
        _count_basis,
    ),
    "fockspace.map_operator": (
        ("polariton.cute:map_operator", "polariton.fockspace:map_operator"),
        _count_nnz,
    ),
    "cute.full_matrix": (("polariton.cute:BlockHamiltonian.full_matrix",), None),
    "dynamics.propagate": (("polariton.dynamics:propagate",), _count_propagate),
    "dynamics.spectrum": (("polariton.dynamics:spectrum",), _count_spectrum),
    "dynamics.write_spectrum_csv": (("polariton.dynamics:write_spectrum_csv",), _count_written),
    "dynamics.write_trajectory_csv": (
        ("polariton.dynamics:write_trajectory_csv",),
        _count_written,
    ),
    "perturbation.survival_correction": (
        ("polariton.perturbation:survival_correction",),
        _count_correction,
    ),
    "perturbation.radiative_pumping_rate": (
        ("polariton.perturbation:radiative_pumping_rate",),
        _count_rate,
    ),
}

# Layers whose per-span tracemalloc peak is reported.
PEAK_LAYERS = (
    "dynamics.propagate",
    "cute.assemble_truncated",
    "perturbation.survival_correction",
)

COUNTERS = (
    "dynamics.spectrum.n_omega",
    "dynamics.spectrum.nt",
    "dynamics.spectrum.macs",
    "dynamics.propagate.dim",
    "dynamics.propagate.nt",
    "dynamics.propagate.spectral_calls",
    "dynamics.propagate.krylov_calls",
    "dynamics.propagate.fallbacks",
    "fockspace.basis_states",
    "fockspace.map_operator.nnz",
    "cute.dim",
    "perturbation.survival_correction.phase_integrals",
    "perturbation.radiative_pumping_rate.calls",
    "vibronic.m",
    "io.bytes_written",
)


def _wrap(tracer: Tracer, name: str, func, counter):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = func(*args, **kwargs)
        if counter is not None:
            try:
                counter(tracer, args, kwargs, result)
            except Exception as exc:  # a changed signature must not fail the job
                tracer.errors.append(f"{name} counter: {type(exc).__name__}: {exc}")
        return result

    return wrapper


def install(tracer: Tracer):
    """Patch every existing layer location; return a function that undoes it."""
    undo = []
    for name, (locations, counter) in LAYERS.items():
        for loc in locations:
            mod_name, _, path = loc.partition(":")
            try:
                owner = importlib.import_module(mod_name)
            except ModuleNotFoundError:
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                continue
            setattr(owner, attr, _wrap(tracer, name, original, counter))
            undo.append((owner, attr, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Self times and counters of a traced job: {name: (value, unit)}."""
    out = {f"{name}.s": (tracer.self_time(name), "s") for name in LAYERS}
    for key in COUNTERS:
        out[key] = (tracer.counts.get(key, 0), "bytes" if key == "io.bytes_written" else "count")
    return out


def peak_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-span tracemalloc peaks of a job traced with memory=True."""
    return {f"{name}.peak_mb": (tracer.peak_mb(name), "MB") for name in PEAK_LAYERS}
