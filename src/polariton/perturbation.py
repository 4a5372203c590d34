"""1/N expansion of the survival amplitude and dark-state pumping rates.

For an initial state inside the zeroth quasi block, the block-tridiagonal
structure only admits even numbers of single-molecule coupling actions, so
the survival amplitude expands as

    c(t) = c1(t) + c_corr(t) + O(1/N^2),

where c1 evolves under the zeroth block alone and the leading correction is
the second-order Dyson term through the quasi = 1 sub-blocks:

    c_corr(t) = - sum_{k>1} int_0^t dt1 int_0^t1 dt2
                <i| e^{-i H0 (t - t1)} v0k e^{-i H1k (t1 - t2)} v0k^T
                    e^{-i H0 t2} |i>.

Each v0k carries one factor of g = g_sqrt_n/sqrt(N), so c_corr is O(1/N) and
N * c_corr has an N-independent limit.  The double integral is one
off-diagonal block of the exponential of a block upper-triangular generator
(Van Loan, IEEE Trans. Autom. Control 23, 395 (1978)), so survival_correction
is a single propagation by Arnoldi bases of the sparse generator, each
covering a window of grid steps chosen once per propagation, with no
quadrature, no eigendecomposition and no stored states.
Cavity leakage enters every block as -i (kappa/2) n_ph.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cute import CavityParams, build_A1, build_H0
from .dynamics import TimeGrid, effective_hamiltonian, transition_amplitudes
from .vibronic import VibronicStructure

# eigenstates with less photonic weight than this count as dark
DARK_PHOTON_WEIGHT = 1e-3


@dataclass
class ExpansionResult:
    """Survival amplitude split into reference and leading 1/N correction."""

    grid: TimeGrid
    c1_t: np.ndarray
    c_corr_t: np.ndarray
    n_molecules: float

    @property
    def scaled_corr_t(self) -> np.ndarray:
        """N * c_corr(t), the O(1) coefficient of the 1/N term."""
        if math.isinf(self.n_molecules):
            return np.zeros_like(self.c_corr_t)
        return self.n_molecules * self.c_corr_t

    @property
    def c_t(self) -> np.ndarray:
        return self.c1_t + self.c_corr_t


def survival_correction(
    vs: VibronicStructure,
    cav: CavityParams,
    psi0: np.ndarray,
    grid: TimeGrid,
    shifted: bool = False,
) -> ExpansionResult:
    """Reference amplitude c1 and leading 1/N correction for psi0 in block 0.

    psi0 is a normalized state over {|1>, |e_1>..|e_m>}.  One propagation,
    by the Arnoldi windows of dynamics.transition_amplitudes, of the block
    upper-triangular generator

        M = [[H0, s V, 0], [0, H1, s V^T], [0, 0, H0]],   s = sqrt(N),

    with H1 = diag(H1k) = I (x) A1 + diag(omega_g[2..m]) (x) I and
    V = [v02 ... v0m], from [0; 0; psi0] gives
    exp(-i H0 t) psi0 in the last block and, in the first, N times the
    correction operator applied to psi0 (Van Loan).  Only the projections
    c1 = <[0; 0; psi0]|x(t)> and N c_corr = <[psi0; 0; 0]|x(t)> are recorded
    as the steps go; no state is stored.  s V = g_sqrt_n fc does
    not depend on N, so neither does the precision of N * c_corr, and
    c_corr is exactly zero at N = infinity.  With kappa > 0 the photon
    state of every block leaks, so c1 = <psi0| exp(-i H0_eff t) |psi0>.
    M is defective (H0 appears twice) and its eigenvectors are
    ill-conditioned at weak coupling, so it is stepped, never diagonalised.
    With shifted=True A1 is replaced by H0, so H1k = H0 + omega_g[k] I
    (the N >> 1 approximation).
    """
    import scipy.sparse as sp
    psi0 = np.asarray(psi0, dtype=complex)
    m = vs.m
    if psi0.shape != (m + 1,):
        raise ValueError(f"psi0 must live in the zeroth block, shape ({m + 1},)")
    nrm = np.linalg.norm(psi0)
    if not abs(nrm - 1.0) <= 1e-8:  # also rejects NaN
        raise ValueError(f"psi0 must be finite and normalized, got ||psi0|| = {nrm}")

    H0 = build_H0(vs, cav)
    A1 = H0 if shifted else build_A1(vs, cav)
    # sqrt(N) v0k: the photon column of sub-block k holds g_sqrt_n fc[:, k-1]
    V = np.zeros((m + 1, (m - 1) * (m + 1)))
    V[1:, :: m + 1] = cav.g_sqrt_n * vs.fc[:, 1:]
    H1 = None  # m = 1 has no sub-blocks
    if m > 1:
        eye = sp.identity(m + 1)
        H1 = sp.kron(sp.identity(m - 1), A1) + sp.kron(sp.diags(vs.omega_g[1:]), eye)
    M = sp.bmat([[H0, V, None], [None, H1, V.T], [None, None, H0]])
    n_ph = np.zeros(M.shape[0])
    n_ph[:: m + 1] = 1.0  # every block starts with its photon state
    x0 = np.zeros(M.shape[0], dtype=complex)
    x0[-(m + 1) :] = psi0
    top = np.zeros(M.shape[0], dtype=complex)
    top[: m + 1] = psi0

    M_eff = effective_hamiltonian(M, cav.kappa, n_ph)
    c1_t, c_corr_t = transition_amplitudes(M_eff, x0, top, grid)
    c_corr_t /= cav.n_molecules  # in place: both rows share one 2 x n_t buffer
    return ExpansionResult(grid=grid, c1_t=c1_t, c_corr_t=c_corr_t, n_molecules=cav.n_molecules)


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

    def to_dict(self) -> dict:
        return {
            "dark_index": self.dark_index,
            "E_D": self.energy,
            "photon_weight": self.photon_weight,
            "Gamma_total": self.gamma_total,
            "diagnostic": self.diagnostic,
            "channels": [
                {
                    "k": ch.k,
                    "mu": ch.mu,
                    "E_f": ch.energy,
                    "coupling_sq": ch.coupling_sq,
                    "gamma": ch.gamma,
                }
                for ch in self.channels
            ],
        }


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


def write_rate_json(path, result: RateResult, header: dict | None = None):
    """Write a RateResult as JSON; header keys go into a '_config' block."""
    payload = result.to_dict()
    if header:
        payload["_config"] = {str(k): str(v) for k, v in header.items()}
    from .dynamics import atomic_write_text

    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
