"""1/N expansion of the survival amplitude and dark-state pumping rates.

For an initial state inside the zeroth quasi block, the block-tridiagonal
structure only admits even numbers of single-molecule coupling actions, so
the survival amplitude expands as

    c(t) = c1(t) + c_corr(t) + O(1/N^2),

where c1 is the amplitude under the zeroth block alone and the leading
correction is the second-order Dyson term through the quasi = 1 sub-blocks:

    c_corr(t) = - sum_{k>1} int_0^t dt1 int_0^t1 dt2
                <i| e^{-i H0 (t - t1)} v0k e^{-i H1k (t1 - t2)} v0k^T
                    e^{-i H0 t2} |i>.

Each v0k carries one factor of g = g_sqrt_n/sqrt(N), so c_corr is O(1/N) and
N * c_corr has an N-independent limit.  The double integral is one
off-diagonal block of the exponential of a block upper-triangular generator
(Van Loan, IEEE Trans. Autom. Control 23, 395 (1978)), so survival_correction
is a single propagation of that generator by dynamics.propagate, with no
quadrature, no eigendecomposition and no stored states.  The generator
of van_loan_generator is a cute.TruncatedGenerator whose couplings act one
way, applied from its coefficients with numpy alone.
Cavity leakage enters every block as -i (kappa/2) n_ph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cute import CavityParams, TruncatedGenerator, build_A1, build_H0
from .dynamics import TimeGrid, propagate
from .vibronic import VibronicStructure

# eigenstates with less photonic weight than this count as dark
DARK_PHOTON_WEIGHT = 1e-3
# the Van Loan couplings carry this power of 2, the correction its square
COUPLING_SCALE = 2.0**-5


@dataclass
class ExpansionResult:
    """c = c1 + a/N to O(1/N^2), a = scaled_corr_t = N c_corr (its limit at N = inf)."""

    grid: TimeGrid
    c1_t: np.ndarray
    scaled_corr_t: np.ndarray
    n_molecules: float

    @property
    def c_corr_t(self) -> np.ndarray:
        return self.scaled_corr_t / self.n_molecules

    @property
    def c_t(self) -> np.ndarray:
        return self.c1_t + self.c_corr_t


def van_loan_generator(vs: VibronicStructure, cav: CavityParams) -> TruncatedGenerator:
    """survival_correction's generator, with V = COUPLING_SCALE sqrt(N) [v02 ... v0m].

    A TruncatedGenerator of m + 1 rows over {photon, e_1..e_m}: x_top, the
    sub-blocks k = 2..m of x_mid, x_bot.  Rows 0 and m hold H0 and row
    k - 1 holds H1k, whose arrowhead carries g_sqrt_n sqrt(1 - 1/N).  Each
    coupling is set, not scaled, to COUPLING_SCALE g_sqrt_n fc[i, k]:
    sqrt(N) g = g_sqrt_n at every N, also at N = infinity, where g = 0.
    V writes e_i of row 0 from the photon of row k - 1, and V^T that
    photon from e_i of row src = m, so symmetric is False.
    """
    m = vs.m
    diag = np.add.outer(np.r_[0.0, vs.omega_g[1:], 0.0], np.r_[cav.omega_c, vs.omega_e])
    r = np.full(m + 1, cav.g_sqrt_n * math.sqrt(1.0 - 1.0 / cav.n_molecules))
    r[[0, m]] = cav.g_sqrt_n
    fc = np.vstack([np.zeros(m), vs.fc])  # row 0, the photon, couples to nothing
    up = np.arange(1, m)[None, :]
    amp = np.full(up.shape, COUPLING_SCALE * cav.g_sqrt_n)
    offsets = np.r_[0, 1, m, m + 1] * (m + 1)  # x_top, x_mid, x_bot
    return TruncatedGenerator(diag, r, fc[:, 0], fc[:, 1:], up, amp, m, 0, offsets)


def survival_correction(
    vs: VibronicStructure,
    cav: CavityParams,
    psi0: np.ndarray,
    grid: TimeGrid,
) -> ExpansionResult:
    """Reference amplitude c1 and leading 1/N correction for psi0 in block 0.

    psi0 is a normalized state over {|1>, |e_1>..|e_m>}.  One propagation,
    by dynamics.propagate (which also checks the norm of psi0), of the
    block upper-triangular generator of van_loan_generator

        M = [[H0, alpha s V, 0], [0, H1, alpha s V^T], [0, 0, H0]],

    with s = sqrt(N), H1 = diag(H1k) = I (x) A1 + diag(omega_g[2..m]) (x) I,
    V = [v02 ... v0m] and alpha = COUPLING_SCALE, from [0; 0; psi0] gives
    exp(-i H0 t) psi0 in the last block and, in the first, alpha^2 N times
    the correction operator applied to psi0 (Van Loan).  Only the
    projections c1 = <[0; 0; psi0]|x(t)> and
    N c_corr = <[psi0 / alpha^2; 0; 0]|x(t)> are recorded as the steps go;
    no state is stored.  s V = g_sqrt_n fc does not depend on N, so
    neither does the precision of N * c_corr.  alpha is a power of 2, so it
    moves N c_corr only by rounding, and it shrinks the Krylov path's
    row-sum bound, so its windows grow.  Each block of M x comes from its
    own rows, so the O(alpha^2) first block meets no O(1) rounding that
    1 / alpha^2 would amplify.  At N = infinity A1 = H0, so
    H1k = H0 + omega_g[k] I and scaled_corr_t is lim N * c_corr; that limit
    divided by a finite N is the N >> 1 approximation of c_corr.  With
    kappa > 0 the photon state of every block leaks, so
    c1 = <psi0| exp(-i H0_eff t) |psi0>.  M is defective (H0 appears twice)
    and its eigenvectors are ill-conditioned at weak coupling, so it is
    stepped, never diagonalised.  Only numpy is used.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    m = vs.m
    if psi0.shape != (m + 1,):
        raise ValueError(f"psi0 must live in the zeroth block, shape ({m + 1},)")

    M = van_loan_generator(vs, cav)
    x0 = np.zeros(M.shape[0], dtype=complex)
    x0[-(m + 1) :] = psi0
    top = np.zeros(M.shape[0], dtype=complex)
    with np.errstate(invalid="ignore"):  # propagate refuses a non-finite psi0
        top[: m + 1] = psi0 / COUPLING_SCALE**2  # exact: a power of 2

    traj = propagate(M, x0, grid, cav.kappa, M.photon_numbers, bra=top)
    return ExpansionResult(grid, traj.c_t, traj.bra_t, cav.n_molecules)


@dataclass
class RateChannel:
    """One dark-state decay channel into a quasi = 1 eigenstate."""

    k: int
    mu: int
    energy: float
    coupling_sq: float
    gamma: float


@dataclass
class RateResult:
    """Fermi-golden-rule radiative pumping rate of one dark state."""

    dark_index: int
    energy: float
    photon_weight: float
    gamma_total: float
    channels: list[RateChannel] = field(default_factory=list)
    diagnostic: str = ""


def radiative_pumping_rate(
    vs: VibronicStructure,
    cav: CavityParams,
    dark_index: int,
) -> RateResult:
    """Golden-rule decay of a dark zeroth-block eigenstate through v0k.

    Gamma = sum_f |<f|v0|D>|^2 kappa / ((E_D - E_f)^2 + kappa^2/4), summed
    over the eigenstates f of every quasi = 1 sub-block, with the cavity
    linewidth kappa as the only broadening.  Each coupling carries one factor
    of g, so the total rate scales as 1/N at fixed collective coupling.
    Every sub-block H1k = A1 + omega_g[k] I shares the eigenvectors W of A1,
    and v0k only touches its photon state, so <f = (k, mu)|v0|D> =
    W[0, mu] g fc[:, k]^T D_e with D_e the excited-sector part of D.

    The dark state must have photonic weight below DARK_PHOTON_WEIGHT.  If no
    final state lies within 10 kappa of the dark state the rate is reported
    as zero with a diagnostic.
    """
    if cav.is_infinite:
        raise ValueError("radiative pumping requires finite N")
    if cav.kappa <= 0:
        raise ValueError("radiative pumping requires kappa > 0 to define outgoing channels")
    E0, U0 = np.linalg.eigh(build_H0(vs, cav))
    if not 0 <= dark_index < E0.size:
        raise ValueError(f"dark_index {dark_index} out of range 0..{E0.size - 1}")
    w_ph = float(U0[0, dark_index] ** 2)
    if w_ph >= DARK_PHOTON_WEIGHT:
        raise ValueError(
            f"eigenstate {dark_index} has photonic weight {w_ph:.3e} >= "
            f"threshold {DARK_PHOTON_WEIGHT:.3e}; not a dark state"
        )
    E_D = float(E0[dark_index])
    kappa = cav.kappa
    window = 10.0 * kappa

    FA, W = np.linalg.eigh(build_A1(vs, cav))
    fc_dark = cav.g * (vs.fc[:, 1:].T @ U0[1:, dark_index])  # g fc[:, k]^T D_e, k = 2..m
    # final state (k, mu) is eigenstate mu of sub-block H1k, at row k - 2
    F = FA + vs.omega_g[1:, None]
    c2 = (fc_dark[:, None] * W[0]) ** 2
    det = E_D - F
    gamma = c2 * kappa / (det**2 + 0.25 * kappa**2)
    channels = [
        RateChannel(k + 2, mu, float(F[k, mu]), float(c2[k, mu]), float(gamma[k, mu]))
        for k, mu in np.ndindex(F.shape)
    ]
    best_detuning = float(np.abs(det).min(initial=math.inf))
    resolved = best_detuning <= window  # no channel at all when m = 1
    return RateResult(
        dark_index=dark_index,
        energy=E_D,
        photon_weight=w_ph,
        gamma_total=float(sum(ch.gamma for ch in channels)) if resolved else 0.0,
        channels=channels,
        diagnostic="" if resolved else (
            f"no final state within window {window:.3e} of E_D "
            f"(closest detuning {best_detuning:.3e}); rate not resolvable"
        ),
    )
