"""Single-molecule vibronic model: displaced harmonic surfaces and their overlaps.

Each molecule has two electronic states (g/e) under the Born-Oppenheimer and
Condon approximations. Every vibrational mode is harmonic with the same
frequency on both surfaces; the excited surface is displaced along each mode
by an amount set by the Huang-Rhys parameter s (relaxation energy s*omega).
The optical transition is then fully characterised by the vibronic
eigenvalues omega_g/omega_e and the overlap matrix
fc[i][j] = <phi_e_i | phi_g_j> between excited- and ground-surface
vibrational eigenfunctions.

All energies are in hartree atomic units; coordinates are mass-weighted
atomic units (hbar = 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionGuardError

VIBRONIC_SIZE_CAP = 4096


@dataclass(frozen=True)
class VibrationalMode:
    """One harmonic vibrational mode.

    frequency   mode frequency omega_nu > 0 (au)
    huang_rhys  dimensionless displacement parameter s >= 0;
                the excited-surface minimum sits at q = sqrt(2 s / omega_nu)
    n_max       highest vibrational quantum retained on each surface
    """

    frequency: float
    huang_rhys: float
    n_max: int

    def __post_init__(self):
        if not (math.isfinite(self.frequency) and math.isfinite(self.huang_rhys)):
            raise ValueError(
                f"mode parameters must be finite, got frequency={self.frequency}, "
                f"huang_rhys={self.huang_rhys}"
            )
        if self.frequency <= 0:
            raise ValueError(f"mode frequency must be positive, got {self.frequency}")
        if self.huang_rhys < 0:
            raise ValueError(f"huang_rhys must be >= 0, got {self.huang_rhys}")
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")

    @property
    def displacement(self) -> float:
        """Shift of the excited-surface minimum, q_e = sqrt(2 s / omega)."""
        return math.sqrt(2.0 * self.huang_rhys / self.frequency)


@dataclass(frozen=True)
class MolecularModel:
    """Electronic gap plus an ordered list of vibrational modes.

    electronic_gap is the adiabatic (0-0) gap omega_0 > 0; the vertical
    (Franck-Condon) absorption maximum then sits at
    omega_0 + sum_nu omega_nu * s_nu.  Zero modes gives the two-level limit.
    """

    electronic_gap: float
    modes: tuple[VibrationalMode, ...] = ()

    def __post_init__(self):
        if not (math.isfinite(self.electronic_gap) and self.electronic_gap > 0):
            raise ValueError(
                f"electronic_gap must be positive and finite, got {self.electronic_gap}"
            )
        object.__setattr__(self, "modes", tuple(self.modes))

    @property
    def vertical_gap(self) -> float:
        return self.electronic_gap + sum(m.frequency * m.huang_rhys for m in self.modes)


@dataclass(frozen=True)
class VibronicStructure:
    """Vibronic eigenvalues and Franck-Condon matrix of one molecule.

    omega_g  (m,) ground-surface vibronic energies, omega_g[0] = 0
    omega_e  (m,) excited-surface vibronic energies (include the gap)
    fc       (m, m) real overlap matrix, fc[i, j] = <phi_e_i | phi_g_j>
    quanta   per sorted vibronic index, the per-mode quanta tuple
    """

    omega_g: np.ndarray
    omega_e: np.ndarray
    fc: np.ndarray
    quanta: tuple[tuple[int, ...], ...]
    model: MolecularModel = field(repr=False)

    @property
    def m(self) -> int:
        return len(self.omega_g)


def displaced_overlap_matrix(s: float, n_bra: int, n_ket: int) -> np.ndarray:
    """Overlaps S[m, n] = <m; displaced | n> between equal-frequency oscillators.

    The bra oscillator is displaced by +sqrt(2 s / omega) in coordinate, i.e.
    by beta = sqrt(s) in dimensionless ladder units.  Built by the stable
    two-term recurrences obtained from a = a_displaced + beta:

        S[0, 0]    = exp(-s / 2)
        S[m+1, n]  = (sqrt(n) S[m, n-1] - beta S[m, n]) / sqrt(m+1)
        S[m, n+1]  = (sqrt(m) S[m-1, n] + beta S[m, n]) / sqrt(n+1)

    Rows are the displaced (excited) states 0..n_bra, columns the undisplaced
    (ground) states 0..n_ket.
    """
    beta = math.sqrt(s)
    S = np.zeros((n_bra + 1, n_ket + 1))
    S[0, 0] = math.exp(-0.5 * s)
    for n in range(n_ket):
        S[0, n + 1] = beta * S[0, n] / math.sqrt(n + 1)
    for m in range(n_bra):
        for n in range(n_ket + 1):
            acc = -beta * S[m, n]
            if n > 0:
                acc += math.sqrt(n) * S[m, n - 1]
            S[m + 1, n] = acc / math.sqrt(m + 1)
    return S


def build_vibronic(model: MolecularModel) -> VibronicStructure:
    """Assemble the multi-mode vibronic structure of one molecule.

    Multi-mode energies are sums of per-mode quanta energies relative to the
    zero point (equal frequencies on both surfaces, so the Stokes shift lives
    entirely in fc).  The multi-mode fc matrix is the tensor product of the
    per-mode displaced-oscillator overlap matrices.  Vibronic states are
    enumerated lexicographically in per-mode quanta and then stably sorted by
    energy, ties keeping lexicographic order.
    """
    modes = model.modes
    if not modes:
        return VibronicStructure(
            omega_g=np.zeros(1),
            omega_e=np.array([model.electronic_gap]),
            fc=np.ones((1, 1)),
            quanta=((),),
            model=model,
        )

    m = math.prod(mode.n_max + 1 for mode in modes)
    if m > VIBRONIC_SIZE_CAP:
        raise DimensionGuardError(
            f"vibronic basis size {m} exceeds cap {VIBRONIC_SIZE_CAP}; lower n_max"
        )

    quanta_lex = list(itertools.product(*(range(mode.n_max + 1) for mode in modes)))
    energies = np.array(
        [sum(n * mode.frequency for n, mode in zip(q, modes)) for q in quanta_lex]
    )
    order = np.argsort(energies, kind="stable")

    fc_full = np.ones((1, 1))
    for mode in modes:
        fc_full = np.kron(fc_full, displaced_overlap_matrix(mode.huang_rhys, mode.n_max, mode.n_max))

    omega_g = energies[order]
    return VibronicStructure(
        omega_g=omega_g,
        omega_e=model.electronic_gap + omega_g,
        fc=fc_full[np.ix_(order, order)],
        quanta=tuple(quanta_lex[i] for i in order),
        model=model,
    )


def ho_wavefunctions(n_max: int, q: np.ndarray, omega: float, center: float = 0.0) -> np.ndarray:
    """Harmonic-oscillator eigenfunctions phi_0..phi_n_max on a coordinate grid.

    Returns an array of shape (n_max + 1, len(q)); mass-weighted coordinates,
    hbar = 1.  Uses the normalized three-term recurrence
    phi_{n+1} = (sqrt(2) x phi_n - sqrt(n) phi_{n-1}) / sqrt(n+1),
    which is stable for the basis sizes used here.
    """
    q = np.asarray(q, dtype=float)
    x = math.sqrt(omega) * (q - center)
    out = np.zeros((n_max + 1, len(x)))
    out[0] = (omega / math.pi) ** 0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = (math.sqrt(2.0) * x * out[n] - math.sqrt(n) * out[n - 1]) / math.sqrt(n + 1)
    return out
