"""1/N expansion of the survival amplitude and dark-state pumping rates.

For an initial state inside the zeroth quasi block, the block-tridiagonal
structure only admits even numbers of single-molecule coupling actions, so
the survival amplitude expands as

    c(t) = c1(t) + c_corr(t) + O(1/N^2),

where c1 evolves under the zeroth block alone and the leading correction is
a time-ordered double integral through the quasi = 1 sub-blocks:

    c_corr(t) = - sum_{k>1} int_0^t dt1 int_0^t1 dt2
                <i| e^{-i H0 (t - t1)} v0k e^{-i H1k (t1 - t2)} v0k^T
                    e^{-i H0 t2} |i>.

Each v0k carries one factor of g = g_sqrt_n/sqrt(N), so c_corr is O(1/N) and
N * c_corr has an N-independent limit.  The double integral is evaluated in
closed form per eigenvalue triple (no quadrature error); degenerate
denominators are handled by series limits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cute import CavityParams, build_H0, build_H1k, build_v0k
from .dynamics import TimeGrid
from .vibronic import VibronicStructure


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


def _pair_phase_dd(x, y, t):
    """(e^{-i x t} - e^{-i y t}) / (x - y), stable for any gap via the sine form."""
    mean = 0.5 * (x + y)
    half = 0.5 * (x - y) * t
    return -1j * t * np.exp(-1j * mean * t) * np.sinc(half / math.pi)


def double_phase_integral(a, b, c, t):
    """int_0^t dt1 int_0^t1 dt2 e^{-i a (t-t1)} e^{-i b (t1-t2)} e^{-i c t2}.

    Equals minus the second divided difference of x -> e^{-i x t} on the
    nodes (a, b, c); divided differences are permutation invariant, so the
    nodes are re-ordered to divide by the largest pairwise gap, and the
    near-degenerate case falls back to a series whose truncation error is
    below 2e-10 relative at the 1e-3 gap*t threshold.
    """
    a, b, c, t = np.broadcast_arrays(*np.atleast_1d(a, b, c, t))
    g_ab = np.abs(a - b)
    g_bc = np.abs(b - c)
    g_ac = np.abs(a - c)

    # Arrange nodes (x1, x2, x3) so |x1 - x3| is the largest gap.
    x1 = np.where(g_ab >= np.maximum(g_bc, g_ac), a, np.where(g_bc >= g_ac, b, a))
    x3 = np.where(g_ab >= np.maximum(g_bc, g_ac), b, c)
    x2 = (a + b + c) - x1 - x3

    big = np.maximum(g_ab, np.maximum(g_bc, g_ac)) * np.abs(t) >= 1e-3
    out = np.empty(np.broadcast(a, t).shape, dtype=complex)

    with np.errstate(divide="ignore", invalid="ignore"):
        dd = (_pair_phase_dd(x1, x2, t) - _pair_phase_dd(x2, x3, t)) / (x1 - x3)
    out[big] = -dd[big]

    small = ~big
    if np.any(small):
        mean = (a + b + c) / 3.0
        d2 = (a - mean) ** 2 + (b - mean) ** 2 + (c - mean) ** 2
        series = (
            np.exp(-1j * mean * t) * 0.5 * t**2 * (1.0 - t**2 * d2 / 24.0)
        )
        out[small] = series[small]
    return out


def survival_correction(
    vs: VibronicStructure,
    cav: CavityParams,
    psi0: np.ndarray,
    grid: TimeGrid,
    shifted: bool = False,
) -> ExpansionResult:
    """Reference amplitude c1 and leading 1/N correction for psi0 in block 0.

    psi0 is a normalized state over {|1>, |e_1>..|e_m>}.  With shifted=True
    the sub-blocks H1k are replaced by H0 + omega_g[k] I (the N >> 1
    approximation), reusing the zeroth-block eigendecomposition.  At
    N = infinity the correction is identically zero and is returned as such.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    m = vs.m
    if psi0.shape != (m + 1,):
        raise ValueError(f"psi0 must live in the zeroth block, shape ({m + 1},)")
    nrm = np.linalg.norm(psi0)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"psi0 must be normalized, got ||psi0|| = {nrm}")

    H0 = build_H0(vs, cav)
    E0, U0 = np.linalg.eigh(H0)
    alpha = U0.conj().T @ psi0
    times = grid.times
    c1_t = np.exp(-1j * np.outer(times, E0)) @ (np.abs(alpha) ** 2)

    corr = np.zeros_like(c1_t)
    if not cav.is_infinite and cav.g_sqrt_n > 0:
        for k in range(2, m + 1):
            if shifted:
                F, W = E0 + vs.omega_g[k - 1], U0
            else:
                F, W = np.linalg.eigh(build_H1k(vs, cav, k))
            V = build_v0k(vs, cav, k)
            X = W.T @ V.T @ U0  # <mu| v0k^T |a> in the two eigenbases
            coeff = np.einsum("b,a,mb,ma->bma", alpha.conj(), alpha, X, X).ravel()
            Eb, Fm, Ea = np.meshgrid(E0, F, E0, indexing="ij")
            Eb, Fm, Ea = Eb.ravel(), Fm.ravel(), Ea.ravel()
            keep = np.abs(coeff) > 1e-300
            Eb, Fm, Ea, coeff = Eb[keep], Fm[keep], Ea[keep], coeff[keep]
            chunk = max(1, 2_000_000 // max(1, coeff.size))
            for lo in range(0, times.size, chunk):
                hi = min(times.size, lo + chunk)
                I = double_phase_integral(
                    Eb[:, None], Fm[:, None], Ea[:, None], times[None, lo:hi]
                )
                corr[lo:hi] -= coeff @ I

    return ExpansionResult(grid=grid, c1_t=c1_t, c_corr_t=corr, n_molecules=cav.n_molecules)


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

    def to_json(self) -> str:
        payload = {
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
        return json.dumps(payload, indent=2, sort_keys=True)


def radiative_pumping_rate(
    vs: VibronicStructure,
    cav: CavityParams,
    dark_index: int,
    photon_weight_threshold: float = 1e-3,
    window: float | None = None,
) -> RateResult:
    """Golden-rule decay of a dark zeroth-block eigenstate through v0k.

    Gamma = sum_f |<f|v0|D>|^2 kappa / ((E_D - E_f)^2 + kappa^2/4), summed
    over the eigenstates f of every quasi = 1 sub-block, with the cavity
    linewidth kappa as the only broadening.  Each coupling carries one factor
    of g, so the total rate scales as 1/N at fixed collective coupling.

    The dark state must have photonic weight below `photon_weight_threshold`.
    If no final state lies within `window` (default 10 kappa) of the dark
    state the rate is reported as zero with a diagnostic.
    """
    if cav.is_infinite:
        raise ValueError("radiative pumping requires finite N")
    if cav.kappa <= 0:
        raise ValueError("radiative pumping requires kappa > 0 to define outgoing channels")
    m = vs.m
    E0, U0 = np.linalg.eigh(build_H0(vs, cav))
    if not 0 <= dark_index < E0.size:
        raise ValueError(f"dark_index {dark_index} out of range 0..{E0.size - 1}")
    w_ph = float(U0[0, dark_index] ** 2)
    if w_ph >= photon_weight_threshold:
        raise ValueError(
            f"eigenstate {dark_index} has photonic weight {w_ph:.3e} >= "
            f"threshold {photon_weight_threshold:.3e}; not a dark state"
        )
    E_D = float(E0[dark_index])
    kappa = cav.kappa
    if window is None:
        window = 10.0 * kappa

    channels = []
    best_detuning = math.inf
    for k in range(2, m + 1):
        F, W = np.linalg.eigh(build_H1k(vs, cav, k))
        V = build_v0k(vs, cav, k)
        coup = W.T @ V.T @ U0[:, dark_index]
        for mu in range(F.size):
            c2 = float(coup[mu] ** 2)
            det = E_D - float(F[mu])
            best_detuning = min(best_detuning, abs(det))
            gamma = c2 * kappa / (det**2 + 0.25 * kappa**2)
            channels.append(
                RateChannel(k=k, mu=mu, energy=float(F[mu]), coupling_sq=c2, gamma=gamma)
            )

    if not channels or best_detuning > window:
        return RateResult(
            dark_index=dark_index,
            energy=E_D,
            photon_weight=w_ph,
            gamma_total=0.0,
            channels=channels,
            diagnostic=(
                f"no final state within window {window:.3e} of E_D "
                f"(closest detuning {best_detuning:.3e}); rate not resolvable"
            ),
        )
    return RateResult(
        dark_index=dark_index,
        energy=E_D,
        photon_weight=w_ph,
        gamma_total=float(sum(ch.gamma for ch in channels)),
        channels=channels,
    )


def write_rate_json(path, result: RateResult, header: dict | None = None):
    """Write a RateResult as JSON; header keys go into a '_config' block."""
    payload = json.loads(result.to_json())
    if header:
        payload["_config"] = {str(k): str(v) for k, v in header.items()}
    from .dynamics import atomic_write_text

    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
