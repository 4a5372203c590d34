"""Collective molecular-polariton dynamics with systematic 1/N corrections.

Simulates N identical molecules coupled to one cavity mode in the
permutation-symmetric subspace: exact N -> infinity reference dynamics from
the collective zeroth block, finite-N block-tridiagonal truncations, a 1/N
perturbative expansion of survival amplitudes, dark-state pumping rates, and
a brute-force small-N solver used as the correctness oracle.
"""

from .cute import (
    CavityParams,
    TruncatedGenerator,
    assemble_truncated,
    build_H0,
    build_H1k,
    build_v0k,
    truncated_generator,
)
from .dynamics import TimeGrid, Trajectory, propagate, spectrum
from .errors import DimensionGuardError
from .fockspace import SymBasis, SymState, enumerate_basis
from .perturbation import ExpansionResult, radiative_pumping_rate, survival_correction
from .vibronic import MolecularModel, VibrationalMode, VibronicStructure, build_vibronic

__all__ = [
    "CavityParams",
    "DimensionGuardError",
    "ExpansionResult",
    "MolecularModel",
    "SymBasis",
    "SymState",
    "TimeGrid",
    "Trajectory",
    "TruncatedGenerator",
    "VibrationalMode",
    "VibronicStructure",
    "assemble_truncated",
    "build_H0",
    "build_H1k",
    "build_v0k",
    "build_vibronic",
    "enumerate_basis",
    "propagate",
    "radiative_pumping_rate",
    "spectrum",
    "survival_correction",
    "truncated_generator",
]

__version__ = "0.1.0"
