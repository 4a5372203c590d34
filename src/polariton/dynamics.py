"""Time propagation, survival amplitudes, spectra and vibronic densities.

Cavity leakage enters as the non-Hermitian term -i (kappa/2) n_ph added to
the Hamiltonian, which in the first excitation manifold reproduces the
quantum-jump survival amplitudes.  The steppers take a dense array, a
sparse matrix (one with a toarray method, such as the H that
cute.assemble_truncated returns) or a generator, an operator applied from
its coefficients that also has a scaled method, a cute.TruncatedGenerator:
the Hamiltonian the CLI steps, or the Van Loan generator of the 1/N
correction (perturbation.van_loan_generator).  From their shared input
check _checked they take the vector leak = (kappa/2) n_ph; each path
subtracts i leak once, where it builds its own operator.  Up to
DENSE_DIM_LIMIT, _baby_steps forms the dense H_eff once, steps the first
w = ceil(sqrt(n_t)) states by exp(-i H_eff dt) and forms
exp(-i H_eff w dt): propagate then advances w states per matrix product,
and autocorrelation, the survival amplitude of a spectrum, splits
c(a + b) = psi_a^T psi_b (H_eff complex symmetric, psi0 real), so about
2 sqrt(n_t) states are stepped.
Above the limit Arnoldi bases of KRYLOV_DIM vectors step one pre-scaled
operator, a window of grid steps each, chosen once from Saad's error
bound: a scaled copy of a generator, else one complex CSR matrix.  A
propagation holds one KRYLOV_DIM x dim basis buffer, refilled in place by
every window, so no two bases are ever live.
Every matrix exponential is _expm, one degree-18 Taylor series scaled and
squared; scipy.sparse is imported only to step a matrix that is not a
generator on the Krylov path, and no state is stored.  spectrum
evaluates the discrete transform on any uniform frequency grid through one
Bluestein chirp-z transform done in place on a 5-smooth length.  A
TimeGrid, and the Krylov substep grid, hold at most GRID_SIZE_CAP samples.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .cute import CavityParams, build_H0
from .errors import DimensionGuardError
from .vibronic import VibronicStructure, ho_wavefunctions

DENSE_DIM_LIMIT = 512
# samples per time grid (64x the fig5 grid), checked before any per-sample array exists
GRID_SIZE_CAP = 2**22
# vectors per Arnoldi basis of the sparse path; its window follows from Saad's bound
KRYLOV_DIM = 30
# dark_state_density: the fewest grid points of a mode, and the points per
# block of oscillator functions
DENSITY_CHUNK = 2048


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
        if self.n_steps + 1 > GRID_SIZE_CAP:
            raise DimensionGuardError(
                f"n_steps = {self.n_steps} gives more than {GRID_SIZE_CAP} time samples"
            )

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
    constant without leakage and non-increasing with it (None from
    autocorrelation); bra_t is the transition amplitude <bra|psi(t)> when
    propagate was given a bra.
    """

    grid: TimeGrid
    c_t: np.ndarray
    norm_t: np.ndarray | None
    params: dict = field(default_factory=dict)
    bra_t: np.ndarray | None = None


def _checked(H, psi0, kappa, n_ph):
    """(psi0, leak) after the input checks shared by every stepping entry point.

    leak = (kappa/2) n_ph, or 0.0 without leakage.  A sparse H, or a
    generator, has a toarray method and holds its stored entries as data.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    nrm = np.linalg.norm(psi0)
    if not abs(nrm - 1.0) <= 1e-8:  # also rejects NaN
        raise ValueError(f"psi0 must be finite and normalized, got ||psi0|| = {nrm}")
    if not (math.isfinite(kappa) and kappa >= 0):
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
    if kappa != 0.0 and n_ph is None:
        raise ValueError("kappa > 0 requires the photon-number diagonal n_ph")
    if n_ph is not None and np.shape(n_ph) != psi0.shape:
        raise ValueError(f"n_ph must have psi0's shape {psi0.shape}, got {np.shape(n_ph)}")
    leak = 0.5 * kappa * np.asarray(n_ph, dtype=float) if kappa else 0.0
    entries = H.data if hasattr(H, "toarray") else H
    if not (np.all(np.isfinite(entries)) and np.all(np.isfinite(leak))):
        raise ValueError("H and n_ph must be finite")
    return psi0, leak


def _finished(traj, kappa, method, dim) -> Trajectory:
    """traj with its path recorded; non-finite amplitudes raise RuntimeError."""
    for amps in (traj.c_t, traj.bra_t):
        if amps is not None and not np.all(np.isfinite(amps)):
            raise RuntimeError("propagation produced non-finite amplitudes")
    traj.params.update({"kappa": kappa, "method": method, "dim": dim})
    return traj


def propagate(
    H,
    psi0,
    grid: TimeGrid,
    kappa: float = 0.0,
    n_ph=None,
    bra=None,
) -> Trajectory:
    """Evolve psi0 under H (plus optional photon leakage) over the grid.

    psi(t) = exp(-i H_eff t) psi0 with H_eff = H - i (kappa/2) diag(n_ph);
    traj.c_t is <psi0|psi(t)> and, given a bra, traj.bra_t is <bra|psi(t)>.
    Up to DENSE_DIM_LIMIT the two step operators of _baby_steps advance
    w = ceil(sqrt(n_t)) states per matrix-matrix product; above it Arnoldi
    windows step one pre-scaled operator (_propagate_krylov).  Neither path
    needs an eigenbasis, so defective generators step exactly.
    traj.params['method'] records 'dense' (with w as 'block_steps') or
    'krylov' (with the basis size 'krylov_dim', the grid steps per basis
    'block_steps' and the bases per grid step 'substeps').  Non-finite
    psi0, kappa, H, n_ph or bra, and an n_ph or bra not of psi0's shape,
    raise ValueError before any step, and non-finite amplitudes in either
    row RuntimeError.
    """
    psi0, leak = _checked(H, psi0, kappa, n_ph)
    if bra is not None and not (np.shape(bra) == psi0.shape and np.all(np.isfinite(bra))):
        raise ValueError(f"bra must be finite and of psi0's shape {psi0.shape}")
    dim = psi0.size
    if dim > DENSE_DIM_LIMIT:
        return _finished(_propagate_krylov(H, leak, psi0, grid, bra), kappa, "krylov", dim)
    F, U = _baby_steps(H, leak, psi0, grid)
    traj = _step(_blocks(U, F, grid.n_steps + 1), psi0, grid, bra)
    traj.params["block_steps"] = F.shape[1]
    return _finished(traj, kappa, "dense", dim)


def autocorrelation(H, psi0, grid: TimeGrid, kappa: float = 0.0, n_ph=None) -> Trajectory:
    """The survival amplitude c(t) = psi0^T exp(-i H_eff t) psi0 alone, no norms.

    H_eff = H - i (kappa/2) diag(n_ph) must equal its transpose (H = H^T,
    the leak being diagonal; a generator says so as H.symmetric) and psi0
    be real, else ValueError (besides propagate's checks).  Then with
    psi_n = exp(-i H_eff n dt) psi0 exactly c((a + b) dt) = psi_a^T psi_b,
    defective generators included.  Up to DENSE_DIM_LIMIT, with
    w = ceil(sqrt(n_t)), _baby_steps gives the baby states
    F = [psi_0 .. psi_{w-1}] and exp(-i H_eff w dt) steps the giant states
    G = [psi_0, psi_w, ..]; c(t_{jw+i}) = (G^T F)[j, i], so about
    2 sqrt(n_t) matrix-vector products give all n_t samples.  traj.params
    records method 'split' and w as 'block_steps'.  Above the limit the
    amplitude is propagate's Krylov one.  traj.norm_t is None.
    """
    psi0, leak = _checked(H, psi0, kappa, n_ph)
    if np.any(psi0.imag):
        raise ValueError("autocorrelation needs a real psi0")
    # the leak is diagonal
    if not (H.symmetric if hasattr(H, "scaled") else abs(H - H.T).max() == 0):
        raise ValueError("autocorrelation needs a complex-symmetric H_eff = H_eff^T")
    dim = psi0.size
    if dim > DENSE_DIM_LIMIT:
        traj = _propagate_krylov(H, leak, psi0, grid)
        traj.norm_t = None
        return _finished(traj, kappa, "krylov", dim)
    nt = grid.n_steps + 1
    F, U = _baby_steps(H, leak, psi0, grid)
    w = F.shape[1]
    G = np.empty((dim, -(-nt // w)), dtype=complex)
    G[:, 0] = psi0
    for j in range(1, G.shape[1]):
        G[:, j] = U @ G[:, j - 1]
    c_t = (G.T @ F).ravel()[:nt]
    traj = Trajectory(grid=grid, c_t=c_t, norm_t=None, params={"block_steps": w})
    return _finished(traj, kappa, "split", dim)


def _baby_steps(H, leak, psi0, grid):
    """(F, U_w): the baby states F = [psi_0 .. psi_{w-1}] and exp(-i H_eff w dt).

    w = ceil(sqrt(n_t)), the dense path's one width: 2 <= w < n_t as
    n_t >= 3.  The dense H_eff = H - i diag(leak) is formed once; its step
    operator exp(-i H_eff dt) fills the columns of F, and U_w is formed
    directly by _expm, backward stable where the w-th power of the step
    operator is not.
    """
    w = math.isqrt(grid.n_steps) + 1  # ceil(sqrt(n_steps + 1))
    H_eff = np.array(H.toarray() if hasattr(H, "toarray") else H, dtype=complex)
    H_eff[np.diag_indices_from(H_eff)] -= 1j * leak
    U = _expm(-1j * grid.dt * H_eff)
    F = np.empty((psi0.size, w), dtype=complex)
    F[:, 0] = psi0
    for j in range(1, w):
        F[:, j] = U @ F[:, j - 1]
    return F, _expm(-1j * (w * grid.dt) * H_eff)


def _blocks(U, block, nt):
    """The dense path's windows: block, U block, U^2 block, ... up to n_t states."""
    w = block.shape[1]
    for n in range(0, nt, w):
        if n:
            block = U @ block
        yield n, None, block[:, : nt - n]


def _propagate_krylov(H, leak, psi0, grid, bra=None) -> Trajectory:
    """Step psi0 by Arnoldi bases of H_eff = H - i diag(leak), a window of grid steps each.

    With the trace shift mu = tr(H_eff)/dim, A = -i dt (H_eff - mu I) is
    the pre-scaled operator of _krylov_operator, the only copy of H the
    path makes.  Each window builds a basis V of k = min(KRYLOV_DIM, dim)
    vectors from the current state psi, in place in the one k x dim buffer
    the propagation allocates, and steps the k x k projection T of A by
    E = exp(T / s) e^(-i mu dt / s): y_j = E^j ||psi|| e_1 stands for the
    state V^T y_j (Saad, SIAM J. Numer. Anal. 29, 209 (1992)).  The window
    of W grid steps and the s substeps per grid step are chosen once: the
    largest W with Saad's error bound 2 (rho W)^k e^(rho W) / k! <= 2^-53,
    where rho = max(||A||_1, ||A||_inf) >= ||A||_2, else W = 1 and the
    smallest s that meets the bound with rho / s, one basis per substep; a
    substep grid of more than GRID_SIZE_CAP samples raises
    DimensionGuardError before any basis is built.  An invariant basis
    (dim <= k, or a happy breakdown) is exact, so it covers the rest of the
    grid and no bound is applied.  Amplitudes and norms come from the
    k-vectors y_j; the full state is formed once per window.  A yielded V
    is a view of the buffer, valid only until the next window is requested.
    """
    dim = psi0.size
    A, mu, rho = _krylov_operator(H, leak, grid.dt)
    if not math.isfinite(rho):  # finite entries (_checked) can still overflow the norm
        raise ValueError(f"generator norm overflows: max(||A||_1, ||A||_inf) = {rho}")
    k = min(KRYLOV_DIM, dim)
    reach = _krylov_reach(k) if dim > k else math.inf
    width, substeps = grid.n_steps, 1
    if rho * grid.n_steps > reach:
        if rho <= reach:
            width = int(reach / rho)
        else:
            width, substeps = 1, math.ceil(rho / reach)
    if grid.n_steps * substeps + 1 > GRID_SIZE_CAP:  # the substep grid is a time grid
        msg = f"{substeps:.3g} Arnoldi bases per step give more than {GRID_SIZE_CAP}"
        raise DimensionGuardError(f"{msg} substep samples (generator norm {rho:.3g} per step)")
    phase = np.exp(-1j * grid.dt * mu / substeps)  # E carries the trace shift

    def windows(psi):
        basis = np.empty((k, dim), dtype=complex)  # every window's Arnoldi refills it
        yield 0, None, psi[:, None]
        total, done = grid.n_steps * substeps, 0
        while done < total:
            H, beta, exact = _arnoldi(A, psi, basis, 2.0**-53 * rho)
            V = basis[: len(H)]
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

    traj = _step(windows(psi0), psi0, grid, bra)
    traj.params.update({"krylov_dim": k, "block_steps": width, "substeps": substeps})
    return traj


def _krylov_operator(H, leak, dt):
    """(A, mu, rho): A = -i dt (H_eff - mu I), its trace shift mu and norm bound rho.

    rho = max(||A||_1, ||A||_inf).  A generator (an H with a scaled
    method, a TruncatedGenerator) is scaled in its own layout, whose
    abs(A) @ 1 has rho as its largest entry: |A| = |A|^T for a symmetric
    one, and the Van Loan generator is persymmetric, J M J = M^T with J
    the exchange of its first and last blocks, which take the same leak,
    so its largest row and column sums of |A| are equal.  Any other H
    becomes one complex CSR matrix, whose |A| serves both norms.  Either A
    is the only copy of H the path makes and costs one application per
    product.
    """
    diag = H.diagonal()
    dim = diag.size
    mu = (diag - 1j * leak).sum() / dim
    shift = np.broadcast_to(1j * leak + mu, dim)
    if hasattr(H, "scaled"):
        A = H.scaled(-1j * dt, shift)
        return A, mu, (abs(A) @ np.ones(dim)).max()
    import scipy.sparse as sp
    A = -1j * dt * (sp.csr_matrix(H) - sp.diags(shift))
    size = abs(A)
    return A, mu, max(size.sum(axis=0).max(), size.sum(axis=1).max())


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


def _arnoldi(A, psi, V, tol):
    """(H, ||psi||, exact): the Arnoldi basis of A from psi, written into V.

    The k x n buffer V is filled in place and no basis is allocated: its
    first len(H) rows are an orthonormal basis of span{psi, A psi, ...} and
    H = conj(V) A V^T is their upper Hessenberg projection, built by
    classical Gram-Schmidt applied twice.  H is k x k unless a residual
    falls to tol or the basis fills the space: then the space is invariant
    and exact is True.  Rows from len(H) on are left as they were.
    """
    k, n = V.shape
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
            return H[: j + 1, : j + 1], beta, True
        if j + 1 < k:
            np.divide(w, r, out=V[j + 1])
            H[j + 1, j] = r
    return H, beta, False


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


def _step(windows, psi0, grid, bra=None) -> Trajectory:
    """Record <psi0|psi>, ||psi|| (psi, <bra|psi>) at each grid time.

    windows yields (n, V, Y) in grid order: the states at grid times n,
    n + 1, ... are the columns of Y (V None) or of V^T Y, where V has
    orthonormal rows (a Krylov basis).  Amplitudes and norms are then taken
    from the short columns of Y.  A window's V is valid only until the next
    window is requested (the Krylov path refills one buffer), so each
    window is read before the generator resumes.
    """
    nt = grid.n_steps + 1
    norm_t = np.empty(nt)
    bras = np.conj([psi0] if bra is None else [psi0, bra])
    amps = np.empty((len(bras), nt), dtype=complex)
    for n, V, Y in windows:
        span = slice(n, n + Y.shape[1])
        amps[:, span] = (bras if V is None else bras @ V.T) @ Y
        norm_t[span] = np.sqrt(np.vecdot(Y, Y, axis=0).real)
    bra_t = None if bra is None else amps[1]
    return Trajectory(grid=grid, c_t=amps[0], norm_t=norm_t, bra_t=bra_t)


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
    done by zero-padded FFTs of the smallest 5-smooth length >= n + n_out - 1.
    The signal and the filter are transformed in place in one buffer each,
    and the filter is freed before the inverse transform.
    """
    n = x.size
    idx = np.arange(max(n, n_out), dtype=float)
    chirp = np.exp(0.5j * dphi * idx**2)
    size = _fft_size(n + n_out - 1)
    y = np.zeros(size, dtype=complex)
    y[:n] = x
    y[:n] *= np.exp(1j * phi0 * idx[:n])
    y[:n] *= chirp[:n]
    np.fft.fft(y, out=y)
    h = np.zeros(size, dtype=complex)
    np.conjugate(chirp[:n_out], out=h[:n_out])
    np.conjugate(chirp[n - 1 : 0 : -1], out=h[size - n + 1 :])
    y *= np.fft.fft(h, out=h)
    del h
    np.fft.ifft(y, out=y)
    return chirp[:n_out] * y[:n_out]


def _fft_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length numpy's FFT transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power-of-two multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


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
    displaced (Stokes-shifted) minimum.  In x = sqrt(omega) q, each mode's
    grid spans both minima plus 1.5 classical turning radii
    sqrt(2 n_max + 1) of its top level and 6 more, where every level's
    tail has decayed, at a spacing of at most pi / (2 sqrt(2 n_max + 1)),
    a quarter of the top level's shortest wavelength, and at least
    DENSITY_CHUNK points; the trapezoid rule then gives every chi_n unit
    norm to about 1e-13.  The oscillator functions are evaluated
    DENSITY_CHUNK points at a time, so they never hold more than
    (n_max + 1) x DENSITY_CHUNK values.
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
        radius = math.sqrt(2 * mode.n_max + 1)
        reach = (1.5 * radius + 6.0) / math.sqrt(mode.frequency)
        lo, hi = min(0.0, d) - reach, max(0.0, d) + reach
        spacing = math.pi / (2.0 * radius * math.sqrt(mode.frequency))
        q = np.linspace(lo, hi, max(DENSITY_CHUNK, math.ceil((hi - lo) / spacing) + 1))
        rest = np.moveaxis(tensor, ax, 0).reshape(shape[ax], -1)
        rho = np.empty(q.size)
        for i in range(0, q.size, DENSITY_CHUNK):
            chi = ho_wavefunctions(mode.n_max, q[i : i + DENSITY_CHUNK], mode.frequency, center=d)
            rho[i : i + DENSITY_CHUNK] = np.sum((chi.T @ rest) ** 2, axis=1)
        norm = np.trapezoid(rho, q)
        if norm > 0:
            rho = rho / norm
        marg = np.sum(rest**2, axis=1) / weight
        out.append(ModeDensity(q=q, rho=rho, quanta_marginal=marg, displacement=d))
    return out
