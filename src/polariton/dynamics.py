"""Time propagation, survival amplitudes, spectra and vibronic densities.

Cavity leakage enters as a non-Hermitian term -i (kappa/2) * n_ph added to
the Hamiltonian (in the first excitation manifold this reproduces the
quantum-jump description of survival amplitudes, and linewidths are all the
absorption spectrum needs).  propagate takes a dense array or a sparse
matrix such as BlockHamiltonian.matrix and steps psi0 over the uniform grid
in one loop, window by window: up to DENSE_DIM_LIMIT with a dense step
operator exp(-i H dt) formed once, which on a dense grid of n_t >= 16 dim
samples advances 64 grid times per matrix-matrix product with a second
step operator exp(-i H 64 dt); beyond the limit with one Arnoldi basis of
KRYLOV_DIM vectors per window of grid steps, the window chosen once per
propagation from Saad's error bound, so the sparse matrix is never
densified.  Every matrix exponential, from the dense step operators down to
the small exponentials of the Krylov windows, is one degree-18 Taylor
series evaluated by Paterson-Stockmeyer, scaled and squared.  A dense
array is stepped by numpy alone; scipy.sparse is imported only for a sparse
input or the Krylov path.  No states are stored unless asked for.  spectrum
evaluates the discrete transform on any uniform frequency grid, the default
FFT bins included, through one Bluestein chirp-z transform.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .cute import CavityParams, build_H0
from .vibronic import VibronicStructure, ho_wavefunctions

DENSE_DIM_LIMIT = 512
# vectors per Arnoldi basis of the sparse path; its window follows from Saad's bound
KRYLOV_DIM = 30


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid 0..t_max with n_steps intervals (atomic units).

    delta_omega = 2 pi / t_max is the resolution of a spectrum on a
    frequency window; the default spectrum bins are spaced
    2 pi / (n_t dt) with n_t = n_steps + 1.  The Nyquist frequency is pi / dt.
    """

    t_max: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        if not isinstance(self.n_steps, numbers.Integral) or self.n_steps < 2:
            raise ValueError(f"n_steps must be an integer >= 2, got {self.n_steps!r}")

    @property
    def dt(self) -> float:
        return self.t_max / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_steps + 1)

    @property
    def delta_omega(self) -> float:
        return 2.0 * math.pi / self.t_max

    @property
    def omega_nyquist(self) -> float:
        return math.pi / self.dt


@dataclass
class Trajectory:
    """Propagated amplitudes on a time grid.

    c_t is the survival amplitude <psi0|psi(t)>; norm_t the state norm,
    constant without leakage and non-increasing with it; bra_t is
    <bra|psi(t)> when a second bra was given (transition_amplitudes).
    """

    grid: TimeGrid
    c_t: np.ndarray
    norm_t: np.ndarray
    states: np.ndarray | None = None
    params: dict = field(default_factory=dict)
    bra_t: np.ndarray | None = None


def _issparse(H) -> bool:
    """scipy.sparse.issparse(H) without importing scipy: a sparse H means it is loaded."""
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(H)


def effective_hamiltonian(H, kappa: float, n_ph):
    """H - i (kappa/2) diag(n_ph), the leaky-cavity effective generator.

    Complex result; sparse input stays sparse (CSR), dense input dense.
    """
    if kappa != 0.0 and n_ph is None:
        raise ValueError("kappa > 0 requires the photon-number diagonal n_ph")
    sparse = _issparse(H)
    if sparse:
        import scipy.sparse as sp
        H = sp.csr_matrix(H, dtype=complex)
    else:
        H = np.array(H, dtype=complex)
    if kappa == 0.0:
        return H
    leak = 0.5j * kappa * np.asarray(n_ph, dtype=float)
    if sparse:
        return H - sp.diags(leak)
    H[np.diag_indices_from(H)] -= leak
    return H


def propagate(
    H,
    psi0,
    grid: TimeGrid,
    kappa: float = 0.0,
    n_ph=None,
    keep_states: bool = False,
) -> Trajectory:
    """Evolve psi0 under H (plus optional photon leakage) over the grid.

    Up to DENSE_DIM_LIMIT every step applies the same dense
    U = exp(-i H_eff dt); once n_t >= 16 dim samples repay a second
    exponential, U fills the first w = min(64, n_t) states and
    exp(-i H_eff w dt) advances each block of w states in one
    matrix-matrix product.  Above the limit one Arnoldi basis of the sparse
    matrix advances a window of grid steps (see _propagate_krylov).  Every
    matrix exponential is _expm, a degree-18 Taylor series scaled and
    squared, and neither path needs an eigenbasis, so defective generators
    step exactly.  traj.params['method'] records 'dense' (with w as
    'block_steps') or 'krylov' (with the basis size 'krylov_dim', the grid
    steps per basis 'block_steps' and the bases per grid step 'substeps').
    States are stored only with keep_states.
    Non-finite psi0, kappa or H raise ValueError before any step.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    nrm = np.linalg.norm(psi0)
    if not abs(nrm - 1.0) <= 1e-8:  # also rejects NaN
        raise ValueError(f"psi0 must be finite and normalized, got ||psi0|| = {nrm}")
    if not (math.isfinite(kappa) and kappa >= 0):
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")

    dim = psi0.size
    H_eff = effective_hamiltonian(H, kappa, n_ph)
    if not np.all(np.isfinite(H_eff.data if _issparse(H_eff) else H_eff)):
        raise ValueError("H and n_ph must be finite")
    if dim <= DENSE_DIM_LIMIT:
        method = "dense"
        dense = H_eff.toarray() if _issparse(H_eff) else H_eff
        U = _expm(-1j * grid.dt * dense)
        nt = grid.n_steps + 1
        w = min(64, nt) if nt >= 16 * dim else 1
        first = [psi0]
        for _ in range(w - 1):
            first.append(U @ first[-1])
        if 1 < w < nt:  # formed directly: backward stable where squaring U is not
            U = _expm(-1j * (w * grid.dt) * dense)
        traj = _step(_blocks(U, np.stack(first, axis=1), nt), psi0, grid, keep_states)
        traj.params["block_steps"] = w
    else:
        method = "krylov"
        traj = _propagate_krylov(H_eff, psi0, grid, keep_states)

    if not np.all(np.isfinite(traj.c_t)):
        raise RuntimeError("propagation produced non-finite amplitudes")
    traj.params.update({"kappa": kappa, "method": method, "dim": dim})
    return traj


def transition_amplitudes(H_eff, psi0, bra, grid: TimeGrid):
    """<psi0|psi(t)> and <bra|psi(t)>, psi(t) = exp(-i H_eff t) psi0, on the grid.

    H_eff is used as given (leakage included) at any dimension, stepped by
    the Arnoldi windows of _propagate_krylov; no state is stored.
    """
    traj = _propagate_krylov(H_eff, psi0, grid, keep_states=False, bra=bra)
    return traj.c_t, traj.bra_t


def _blocks(U, block, nt):
    """The dense path's windows: block, U block, U^2 block, ... up to n_t states."""
    w = block.shape[1]
    for n in range(0, nt, w):
        if n:
            block = U @ block
        yield n, None, block[:, : nt - n]


def _propagate_krylov(H_eff, psi0, grid, keep_states, bra=None) -> Trajectory:
    """Step psi0 by Arnoldi bases of the sparse H_eff, a window of grid steps each.

    With the trace shift mu = tr(H_eff)/dim and A = -i dt (H_eff - mu I),
    each window builds a basis V of k = min(KRYLOV_DIM, dim) vectors from
    the current state psi and steps the k x k projection H of A by
    E = exp(H / s) e^(-i mu dt / s): y_j = E^j ||psi|| e_1 stands for the
    state V^T y_j (Saad, SIAM J. Numer. Anal. 29, 209 (1992)).  The window
    of W grid steps and the s substeps per grid step are chosen once: the
    largest W with Saad's error bound 2 (rho W)^k e^(rho W) / k! <= 2^-53,
    where rho = max(||A||_1, ||A||_inf) >= ||A||_2, else W = 1 and the
    smallest s that meets the bound with rho / s, one basis per substep.
    An invariant basis (dim <= k, or a happy breakdown) is exact, so it
    covers the rest of the grid and no bound is applied.  Amplitudes and
    norms come from the k-vectors y_j; the full state is formed once per
    window.
    """
    import scipy.sparse as sp
    dim = psi0.size
    H_eff = sp.csr_matrix(H_eff, dtype=complex)
    mu = H_eff.diagonal().sum() / dim
    A = -1j * grid.dt * (H_eff - mu * sp.identity(dim, format="csr"))
    rho = max(abs(A).sum(axis=0).max(), abs(A).sum(axis=1).max())
    if not math.isfinite(rho):
        raise ValueError(f"generator must be finite, got max(||A||_1, ||A||_inf) = {rho}")
    k = min(KRYLOV_DIM, dim)
    reach = _krylov_reach(k) if dim > k else math.inf
    width, substeps = grid.n_steps, 1
    if rho * grid.n_steps > reach:
        if rho <= reach:
            width = int(reach / rho)
        else:
            width, substeps = 1, math.ceil(rho / reach)
    phase = np.exp(-1j * grid.dt * mu / substeps)  # E carries the trace shift

    def windows(psi):
        yield 0, None, psi[:, None]
        total, done = grid.n_steps * substeps, 0
        while done < total:
            V, H, beta, exact = _arnoldi(A, psi, k, 2.0**-53 * rho)
            span = total - done if exact else min(width, total - done)
            E = _expm(H / substeps) * phase
            Y = np.empty((len(H), span), dtype=complex)
            y = np.zeros(len(H), dtype=complex)
            y[0] = beta
            for j in range(span):
                y = E @ y
                Y[:, j] = y
            psi = y @ V
            start, done = done, done + span
            # column j is substep start + j + 1; grid times are its multiples of s
            first = -(start + 1) % substeps
            if first < span:
                yield (start + first + 1) // substeps, V, Y[:, first::substeps]

    traj = _step(windows(psi0), psi0, grid, keep_states, bra)
    traj.params.update({"krylov_dim": k, "block_steps": width, "substeps": substeps})
    return traj


def _krylov_reach(k):
    """The x with 2 x^k e^x / k! = 2^-53, by fixed-point iteration.

    Saad's bound on the error of the k-dimensional Arnoldi approximation of
    exp(A) v, ||v|| = 1, holds at unit roundoff for ||A||_2 <= x.
    """
    log_bound = math.lgamma(k + 1) - 54 * math.log(2.0)  # of x^k e^x
    x = 0.0
    for _ in range(50):  # contracts by x / k <= 0.11 for k <= 30
        x = math.exp((log_bound - x) / k)
    return x


def _arnoldi(A, psi, k, tol):
    """(V, H, ||psi||, exact): the Arnoldi basis of A from psi.

    The rows of V are an orthonormal basis of span{psi, A psi, ...} and
    H = conj(V) A V^T is its upper Hessenberg projection, built by classical
    Gram-Schmidt applied twice.  V has k rows unless a residual falls to
    tol or the basis fills the space: then the space is invariant and
    exact is True.
    """
    n = psi.size
    V = np.empty((k, n), dtype=complex)
    H = np.zeros((k, k), dtype=complex)
    beta = np.linalg.norm(psi)
    V[0] = psi / beta if beta else psi  # a state decayed to 0 stays 0
    for j in range(k):
        w = A @ V[j]
        for _ in range(2):
            h = np.conj(V[: j + 1] @ w.conj())
            w -= h @ V[: j + 1]
            H[: j + 1, j] += h
        r = np.linalg.norm(w)
        if j + 1 == n or r <= tol:
            return V[: j + 1], H[: j + 1, : j + 1], beta, True
        if j + 1 < k:
            V[j + 1] = w / r
            H[j + 1, j] = r
    return V, H, beta, False


# 1/k! for the degree-18 Taylor polynomial of _expm
_TAYLOR_18 = [1.0 / math.factorial(k) for k in range(19)]


def _expm(A):
    """exp(A) of a dense matrix by one degree-18 Taylor series, scaled and squared.

    The trace shift mu = tr(A)/n comes out first, exp(A) = e^mu exp(B) with
    B = A - mu I: the mean energy and mean decay rate on the diagonal would
    add to the norm and so to the squarings, yet commute with everything and
    are applied exactly as the scalar e^mu.  B is halved j times, j the
    fewest halvings with ||B||_1 / 2^j <= theta_18 = 1.09, where the
    truncated series has backward error below 2^-53 (Al-Mohy and Higham,
    SIAM J. Sci. Comput. 33, 488 (2011)).  Paterson-Stockmeyer evaluation
    forms B^2, B^3, B^4 and runs Horner in B^4 over polynomials of degree
    <= 3 in B: 7 matrix products (Higham, Functions of Matrices, SIAM 2008,
    sec. 4.4), then j squarings.  It is the package's one matrix
    exponential: the dense path's step operators and the window
    exponentials of the Krylov path.
    """
    n = len(A)
    mu = np.trace(A) / n
    B = A - mu * np.eye(n)
    norm = np.abs(B).sum(axis=0).max()
    if not math.isfinite(norm):  # NaN compares false and would pass as j = 0
        raise ValueError(f"generator must be finite, got ||A - mu I||_1 = {norm}")
    j = math.ceil(math.log2(max(norm / 1.09, 1.0)))
    B = B / 2**j
    B2 = B @ B
    powers = (np.eye(n), B, B2, B2 @ B)
    B4 = B2 @ B2
    c = _TAYLOR_18
    E = sum(c[16 + k] * powers[k] for k in range(3))
    for i in (12, 8, 4, 0):
        E = E @ B4 + sum(c[i + k] * powers[k] for k in range(4))
    for _ in range(j):
        E = E @ E
    return np.exp(mu) * E


def _step(windows, psi0, grid, keep_states, bra=None) -> Trajectory:
    """Record <psi0|psi>, ||psi|| (psi, <bra|psi>) at each grid time.

    windows yields (n, V, Y) in grid order: the states at grid times n,
    n + 1, ... are the columns of Y (V None) or of V^T Y, where V has
    orthonormal rows (a Krylov basis).  Amplitudes and norms are then taken
    from the short columns of Y, and states are formed only to be stored.
    """
    nt = grid.n_steps + 1
    norm_t = np.empty(nt)
    states = np.empty((nt, psi0.size), dtype=complex) if keep_states else None
    bras = np.conj([psi0] if bra is None else [psi0, bra])
    amps = np.empty((len(bras), nt), dtype=complex)
    for n, V, Y in windows:
        span = slice(n, n + Y.shape[1])
        amps[:, span] = (bras if V is None else bras @ V.T) @ Y
        norm_t[span] = np.sqrt(np.vecdot(Y, Y, axis=0).real)
        if states is not None:
            states[span] = (Y if V is None else V.T @ Y).T
    bra_t = None if bra is None else amps[1]
    return Trajectory(grid=grid, c_t=amps[0], norm_t=norm_t, states=states, bra_t=bra_t)


def photon_survival(vs: VibronicStructure, cav: CavityParams, grid: TimeGrid) -> Trajectory:
    """Survival amplitude of the bare photon state under the zeroth block."""
    H0 = build_H0(vs, cav)
    psi0 = np.zeros(H0.shape[0], dtype=complex)
    psi0[0] = 1.0
    n_ph = np.zeros(H0.shape[0])
    n_ph[0] = 1.0
    return propagate(H0, psi0, grid, kappa=cav.kappa, n_ph=n_ph)


def spectrum(
    c_t: np.ndarray,
    grid: TimeGrid,
    omega: np.ndarray | None = None,
    window: str | None = "halfcos10",
):
    """Unit-peak absorption spectrum A(w) ~ Re sum_n dt c(t_n) e^{i w t_n}.

    The discrete transform is evaluated on a uniform frequency grid
    omega_0 + k delta_omega below Nyquist: the natural FFT bins
    2 pi k / (n_t dt), k <= n_t // 2 (omega=None), or any uniform `omega`.
    One Bluestein chirp-z transform serves both.  Its chirp phases reach
    delta_omega dt n_t^2 / 2, which is <= pi n_t for delta_omega <=
    2 pi / t_max, so rounding is of the same order as in the explicit
    e^{i w t} sum.  window 'halfcos10' applies a half-cosine taper over
    the final 10% of the grid (suppresses truncation ringing); pass None
    for bit-reproducible comparisons against the pole oracle.
    """
    c_t = np.asarray(c_t, dtype=complex)
    nt = grid.n_steps + 1
    if c_t.size != nt:
        raise ValueError(f"c_t has {c_t.size} samples, grid expects {nt}")
    data = c_t * _window(window, nt)
    dt = grid.dt

    if omega is None:
        # the natural bins; the last may round one ulp past pi / dt
        omega = 2.0 * math.pi * np.arange(nt // 2 + 1) / (nt * dt)
        d_omega = 2.0 * math.pi / (nt * dt)
    else:
        omega = np.asarray(omega, dtype=float)
        if omega.ndim != 1 or omega.size == 0:
            raise ValueError("omega must be a non-empty 1-d grid")
        if np.max(np.abs(omega)) > grid.omega_nyquist:
            raise ValueError(
                f"grid too coarse for requested frequencies: |omega| up to "
                f"{np.max(np.abs(omega)):.6g} exceeds Nyquist {grid.omega_nyquist:.6g}"
            )
        d_omega = (omega[-1] - omega[0]) / max(1, omega.size - 1)
        uniform = omega[0] + d_omega * np.arange(omega.size)
        tol = 1e-9 * abs(d_omega) + 1e-14 * np.max(np.abs(omega))
        if np.max(np.abs(omega - uniform)) > tol:
            raise ValueError("omega must be a uniform grid")

    A = dt * _chirp_z(data, omega[0] * dt, d_omega * dt, omega.size).real
    peak = np.max(np.abs(A))
    if peak > 0:
        A = A / peak
    return omega, A


def _chirp_z(x: np.ndarray, phi0: float, dphi: float, n_out: int) -> np.ndarray:
    """sum_n x_n e^{i (phi0 + k dphi) n} for k < n_out (Bluestein 1970).

    With nk = (n^2 + k^2 - (k - n)^2) / 2 the sum becomes a convolution of
    x_n e^{i phi0 n} e^{i dphi n^2 / 2} with the chirp e^{-i dphi j^2 / 2},
    done by zero-padded FFTs of length >= n + n_out - 1.
    """
    n = x.size
    idx = np.arange(max(n, n_out), dtype=float)
    chirp = np.exp(0.5j * dphi * idx**2)
    size = 1 << (n + n_out - 2).bit_length()
    y = np.fft.fft(x * np.exp(1j * phi0 * idx[:n]) * chirp[:n], size)
    h = np.zeros(size, dtype=complex)
    h[:n_out] = chirp[:n_out].conj()
    h[size - n + 1 :] = chirp[n - 1 : 0 : -1].conj()
    return chirp[:n_out] * np.fft.ifft(y * np.fft.fft(h))[:n_out]


def _window(window: str | None, nt: int) -> np.ndarray:
    if window is None:
        return np.ones(nt)
    if window == "halfcos10":
        w = np.ones(nt)
        start = int(math.floor(0.9 * (nt - 1)))
        tail = np.arange(nt - start)
        span = max(1, nt - 1 - start)
        w[start:] = np.cos(0.5 * math.pi * tail / span)
        return w
    raise ValueError(f"unknown window {window!r}")


def pole_decomposition(H_eff):
    """Poles and weights of <0| exp(-i H_eff t) |0>, the photon survival.

    For Hermitian H_eff the weights are |<0|v_j>|^2; with photon leakage
    the matrix is complex symmetric and the weights are the bilinear
    residues v_j[0]^2 / (v_j^T v_j).  Provides the sum-over-poles oracle
    c(t) = sum_j w_j exp(-i lambda_j t) against which transforms are checked.
    """
    H_eff = np.asarray(H_eff)
    if np.allclose(H_eff, H_eff.conj().T, atol=1e-12):
        evals, V = np.linalg.eigh(H_eff)
        weights = np.abs(V[0, :]) ** 2
        return evals.astype(complex), weights.astype(complex)
    if not np.allclose(H_eff, H_eff.T, atol=1e-12):
        raise ValueError("pole decomposition expects Hermitian or complex-symmetric input")
    evals, V = np.linalg.eig(H_eff)
    norms = np.einsum("ij,ij->j", V, V)
    if np.min(np.abs(norms)) < 1e-12:
        raise RuntimeError("defective eigenvector pair in pole decomposition")
    weights = V[0, :] ** 2 / norms
    return evals, weights


def pole_spectrum(lambdas, weights, omega, grid: TimeGrid):
    """Unit-peak closed-form discrete transform of sum_j w_j exp(-i lambda_j t).

    Uses the same left-sum convention as spectrum() (geometric series over
    the n_steps + 1 samples), so the two curves are directly comparable.
    """
    omega = np.asarray(omega, dtype=float)
    dt = grid.dt
    M = grid.n_steps
    A = np.zeros(omega.size, dtype=complex)
    for lam, w in zip(lambdas, weights):
        r = np.exp(1j * (omega - lam) * dt)
        rM = r ** (M + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            geo = np.where(np.abs(1.0 - r) > 1e-14, (1.0 - rM) / (1.0 - r), M + 1.0)
        A += w * geo
    A = dt * A.real
    peak = np.max(np.abs(A))
    if peak > 0:
        A = A / peak
    return A


def photonic_weights(vs: VibronicStructure, cav: CavityParams):
    """Eigenvalues of the Hermitian zeroth block and |<1|eigvec>|^2."""
    evals, V = np.linalg.eigh(build_H0(vs, cav))
    return evals, V[0, :] ** 2


@dataclass
class ModeDensity:
    """Vibrational density of one mode within an eigenstate's excited sector."""

    q: np.ndarray
    rho: np.ndarray
    quanta_marginal: np.ndarray
    displacement: float


def dark_state_density(
    vs: VibronicStructure,
    cav: CavityParams,
    which: int,
) -> list[ModeDensity]:
    """Per-mode vibrational densities of a zeroth-block eigenstate.

    The excited-sector amplitudes of eigenstate `which` (ascending energy)
    are reshaped onto the per-mode quanta tensor; for each mode the
    coordinate density is the proper quantum marginal

        rho(q) = sum_rest | sum_n c[.. n ..] chi_n(q - d) |^2

    over excited-surface oscillator functions chi displaced by d, normalized
    to unit integral.  Polariton states give densities near the ground-
    surface minimum (Franck-Condon region); relaxed dark states sit at the
    displaced (Stokes-shifted) minimum.  Each mode's grid has 2048 points
    spanning both minima plus 1.5 classical turning radii of its top level.
    """
    modes = vs.model.modes
    if not modes:
        raise ValueError("density requires at least one vibrational mode")
    evals, V = np.linalg.eigh(build_H0(vs, cav))
    if not 0 <= which < evals.size:
        raise ValueError(f"eigenstate index {which} out of range 0..{evals.size - 1}")
    c = V[1:, which]
    weight = float(np.dot(c, c))
    if weight < 1e-12:
        raise ValueError(f"eigenstate {which} has no excited-sector weight")

    shape = tuple(mode.n_max + 1 for mode in modes)
    tensor = np.zeros(shape)
    for i, quanta in enumerate(vs.quanta):
        tensor[quanta] = c[i]

    out = []
    for ax, mode in enumerate(modes):
        d = mode.displacement
        turning = math.sqrt((2 * mode.n_max + 1) / mode.frequency)
        lo = min(0.0, d) - 1.5 * turning
        hi = max(0.0, d) + 1.5 * turning
        q = np.linspace(lo, hi, 2048)
        chi = ho_wavefunctions(mode.n_max, q, mode.frequency, center=d)
        amp = np.tensordot(chi, np.moveaxis(tensor, ax, 0), axes=(0, 0))
        rho = np.sum(np.abs(amp.reshape(q.size, -1)) ** 2, axis=1)
        norm = np.trapezoid(rho, q)
        if norm > 0:
            rho = rho / norm
        marg = np.sum(
            np.abs(np.moveaxis(tensor, ax, 0).reshape(shape[ax], -1)) ** 2, axis=1
        )
        marg = marg / weight
        out.append(ModeDensity(q=q, rho=rho, quanta_marginal=marg, displacement=d))
    return out


def write_trajectory_csv(path, traj: Trajectory, header: dict | None = None):
    """CSV columns t, re_c, im_c, norm with a '#'-prefixed parameter header."""
    lines = [f"# {k} = {v}" for k, v in (header or {}).items()]
    lines.append("t,re_c,im_c,norm")
    for t, c, n in zip(traj.grid.times, traj.c_t, traj.norm_t):
        lines.append(f"{t:.17g},{c.real:.17g},{c.imag:.17g},{n:.17g}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_spectrum_csv(path, omega, intensity, header: dict | None = None):
    """CSV columns omega, intensity with a '#'-prefixed parameter header."""
    lines = [f"# {k} = {v}" for k, v in (header or {}).items()]
    lines.append("omega,intensity")
    for w, a in zip(omega, intensity):
        lines.append(f"{w:.17g},{a:.17g}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_write_text(path, text: str):
    """Write via a temp file and rename, so outputs are never half-written."""
    import os
    import tempfile

    path = str(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
