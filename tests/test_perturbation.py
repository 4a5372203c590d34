"""1/N expansion of the survival amplitude and dark-state pumping rates."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from polariton.cute import (
    CavityParams,
    assemble_truncated,
    build_H0,
    build_H1k,
    build_v0k,
    truncated_generator,
)
from polariton.dynamics import TimeGrid, autocorrelation, photonic_weights, propagate
from polariton.perturbation import (
    COUPLING_SCALE,
    radiative_pumping_rate,
    survival_correction,
    van_loan_generator,
)
from polariton.vibronic import MolecularModel, VibrationalMode, build_vibronic

from reference_ops import block, photon_survival, van_loan_matrix

INF = float("inf")


def single_mode(s=1.0, omega=0.01, n_max=1, gap=0.1):
    return build_vibronic(
        MolecularModel(electronic_gap=gap, modes=(VibrationalMode(omega, s, n_max),))
    )


# --- reference: the closed form per eigenvalue triple ---------------------


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


def triple_sum_correction(vs, cav, psi0, grid):
    """(c1, N c_corr) at kappa = 0 from the eigenbases of H0 and every H1k.

    sqrt(N) v0k holds g_sqrt_n fc[:, k-1], finite at N = inf, where H1k is
    exactly H0 + omega_g[k] I.
    """
    E0, U0 = np.linalg.eigh(build_H0(vs, cav))
    alpha = U0.T @ psi0
    t = grid.times
    c1 = np.exp(-1j * np.outer(t, E0)) @ np.abs(alpha) ** 2
    corr = np.zeros_like(c1)
    for k in range(2, vs.m + 1):
        F, W = np.linalg.eigh(build_H1k(vs, cav, k))
        X = np.outer(W[0], cav.g_sqrt_n * vs.fc[:, k - 1] @ U0[1:])  # <mu| sqrt(N) v0k^T |a>
        for b, mu, a in itertools.product(range(E0.size), range(F.size), range(E0.size)):
            coeff = alpha[b].conj() * alpha[a] * X[mu, b] * X[mu, a]
            corr -= coeff * double_phase_integral(E0[b], F[mu], E0[a], t)
    return c1, corr


def quad_double_integral(a, b, c, t):
    def inner(t1):
        re = quad(lambda t2: math.cos(-(a * (t - t1) + b * (t1 - t2) + c * t2)), 0, t1, limit=400)[0]
        im = quad(lambda t2: math.sin(-(a * (t - t1) + b * (t1 - t2) + c * t2)), 0, t1, limit=400)[0]
        return re + 1j * im
    re = quad(lambda t1: inner(t1).real, 0, t, limit=400)[0]
    im = quad(lambda t1: inner(t1).imag, 0, t, limit=400)[0]
    return re + 1j * im


@pytest.mark.parametrize(
    "a,b,c,t",
    [
        (0.21, -0.13, 0.05, 31.0),
        (0.1, 0.1, 0.1, 25.0),          # fully degenerate
        (0.1, 0.1 + 1e-9, 0.1, 25.0),   # nearly degenerate
        (0.3, 0.3, -0.2, 18.0),         # one degenerate pair
        (0.0, 0.5, 0.0, 12.0),
    ],
)
def test_double_phase_integral_vs_quadrature(a, b, c, t):
    closed = double_phase_integral(a, b, c, t)[0]
    reference = quad_double_integral(a, b, c, t)
    assert abs(closed - reference) < 1e-9 * max(1.0, abs(reference))


def test_double_phase_integral_permutation_invariant():
    t = np.linspace(0.0, 40.0, 7)
    vals = [double_phase_integral(a, b, c, t)
            for a, b, c in [(0.2, 0.05, -0.1), (0.05, -0.1, 0.2), (-0.1, 0.2, 0.05)]]
    np.testing.assert_allclose(vals[0], vals[1], atol=1e-12)
    np.testing.assert_allclose(vals[0], vals[2], atol=1e-12)


# n_max per mode: m = 1 (no modes), 2, 3, 4 and 4 (two modes)
MODE_SHAPES = [(), (1,), (2,), (3,), (1, 1)]


@settings(max_examples=15, deadline=None)
@given(
    shape=st.sampled_from(MODE_SHAPES),
    huang_rhys=st.floats(1e-4, 2.0),
    omega_c=st.floats(0.09, 0.13),
    g_sqrt_n=st.floats(1e-4, 0.03),
    N=st.one_of(st.integers(2, 10**6), st.just(INF)),
    n_steps=st.integers(2, 128),
    t_max=st.floats(20.0, 800.0),
    seed=st.integers(0, 2**32 - 1),
)
# nearly defective generators (eigenvector condition numbers 2e10 and 1e11,
# below the spectral path's cut), where an eigendecomposition of M loses
# a quarter or more of the correction
@example(shape=(2,), huang_rhys=1e-4, omega_c=0.11, g_sqrt_n=0.01, N=100,
         n_steps=128, t_max=400.0, seed=1)
@example(shape=(3,), huang_rhys=0.5, omega_c=0.11, g_sqrt_n=1e-4, N=INF,
         n_steps=128, t_max=400.0, seed=2)
# m = 1: no quasi = 1 sub-blocks, so the correction is exactly zero
@example(shape=(), huang_rhys=1.0, omega_c=0.11, g_sqrt_n=0.01, N=100,
         n_steps=16, t_max=100.0, seed=3)
def test_correction_matches_triple_sum(
    shape, huang_rhys, omega_c, g_sqrt_n, N, n_steps, t_max, seed
):
    modes = tuple(VibrationalMode(0.01 / (i + 1), huang_rhys, n) for i, n in enumerate(shape))
    vs = build_vibronic(MolecularModel(electronic_gap=0.1, modes=modes))
    cav = CavityParams(omega_c=omega_c, g_sqrt_n=g_sqrt_n, n_molecules=N)
    grid = TimeGrid(t_max=t_max, n_steps=n_steps)
    rng = np.random.default_rng(seed)
    psi0 = rng.normal(size=vs.m + 1) + 1j * rng.normal(size=vs.m + 1)
    psi0 /= np.linalg.norm(psi0)

    res = survival_correction(vs, cav, psi0, grid)
    c1, scaled = triple_sum_correction(vs, cav, psi0, grid)
    assert np.max(np.abs(res.c1_t - c1)) < 1e-12
    # the reference's series branch is good to 2e-10 relative
    peak = np.max(np.abs(scaled))
    assert np.max(np.abs(res.scaled_corr_t - scaled)) <= 1e-9 * peak


def test_correction_honours_cavity_loss():
    # with leakage c1 is the leaky photon survival, and N c_corr approaches
    # N (c_cute1 - c1) of the leaky cute1 dynamics as 1/N
    vs = single_mode(s=1.0, n_max=3)
    grid = TimeGrid(t_max=400.0, n_steps=256)
    psi0 = np.zeros(vs.m + 1, dtype=complex)
    psi0[0] = 1.0
    dev = {}
    for N in (100, 1000):
        cav = CavityParams(omega_c=0.11, g_sqrt_n=0.01, n_molecules=N, kappa=0.002)
        res = survival_correction(vs, cav, psi0, grid)
        assert np.max(np.abs(res.c1_t - photon_survival(vs, cav, grid).c_t)) < 1e-12
        basis, H = assemble_truncated(vs, cav, q_max=1)
        psi = np.zeros(basis.dim, dtype=complex)
        psi[0] = 1.0
        c_cute1 = propagate(H, psi, grid, kappa=cav.kappa, n_ph=basis.photon_numbers()).c_t
        ref = N * (c_cute1 - res.c1_t)
        dev[N] = np.max(np.abs(res.scaled_corr_t - ref)) / np.max(np.abs(ref))
    assert dev[100] / dev[1000] == pytest.approx(10.0, rel=0.2)


def test_infinite_N_correction_is_zero():
    vs = single_mode()
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=INF)
    grid = TimeGrid(t_max=300.0, n_steps=64)
    psi0 = np.zeros(vs.m + 1, dtype=complex)
    psi0[0] = 1.0
    res = survival_correction(vs, cav, psi0, grid)
    assert np.all(res.c_corr_t == 0)
    np.testing.assert_array_equal(res.c_t, res.c1_t)
    # the 1/N coefficient is its N -> inf limit, not zero
    assert np.all(np.isfinite(res.scaled_corr_t))
    assert np.max(np.abs(res.scaled_corr_t)) > 0
    # c1 still evolves under the zeroth block
    assert abs(res.c1_t[0] - 1.0) < 1e-12


def test_zero_displacement_correction_vanishes():
    # s = 0: the photon state couples only into the bright channel, which the
    # single-molecule coupling cannot scatter (fc off-diagonal column is zero),
    # so the leading correction vanishes identically.
    vs = single_mode(s=0.0, n_max=2)
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=12)
    grid = TimeGrid(t_max=300.0, n_steps=64)
    psi0 = np.zeros(vs.m + 1, dtype=complex)
    psi0[0] = 1.0
    res = survival_correction(vs, cav, psi0, grid)
    assert np.max(np.abs(res.c_corr_t)) < 1e-14


def exact_survival(vs, cav, grid):
    N = int(cav.n_molecules)
    basis, H = assemble_truncated(vs, cav, q_max=N)
    psi = np.zeros(basis.dim, dtype=complex)
    psi[0] = 1.0
    return propagate(H, psi, grid).c_t


def test_residual_shrinks_16x_when_coupling_halved():
    # residual after the leading correction is O(v^4): halving g at fixed N
    # shrinks it by ~16.  (A pure photon start is special: its 4th-order term
    # vanishes and the residual drops as v^6, so probe with a generic block-0
    # superposition.)
    vs = single_mode(s=0.6, n_max=1)
    grid = TimeGrid(t_max=200.0, n_steps=128)
    psi0 = np.zeros(vs.m + 1, dtype=complex)
    psi0[0] = psi0[1] = 1.0 / math.sqrt(2.0)
    resid = {}
    for gsn in (0.006, 0.003):
        cav = CavityParams(omega_c=0.108, g_sqrt_n=gsn, n_molecules=2)
        res = survival_correction(vs, cav, psi0, grid)
        basis, H = assemble_truncated(vs, cav, q_max=2)
        psi_full = np.zeros(basis.dim, dtype=complex)
        psi_full[: vs.m + 1] = psi0
        exact = propagate(H, psi_full, grid).c_t
        resid[gsn] = np.max(np.abs(exact - res.c_t))
    ratio = resid[0.006] / resid[0.003]
    assert 12.0 < ratio < 21.0, ratio


def test_correction_scales_as_1_over_N():
    vs = single_mode(s=1.0, n_max=1)
    grid = TimeGrid(t_max=400.0, n_steps=256)
    psi0 = np.zeros(vs.m + 1, dtype=complex)
    psi0[0] = 1.0
    peak = {}
    for N in (100, 400):
        cav = CavityParams(omega_c=0.11, g_sqrt_n=0.01, n_molecules=N)
        res = survival_correction(vs, cav, psi0, grid)
        peak[N] = np.max(np.abs(res.c_corr_t))
    assert peak[100] / peak[400] == pytest.approx(4.0, rel=0.2)


def test_even_order_structure_no_first_order_term():
    # single actions of the block coupling cannot return to block 0: the
    # block-0 diagonal of the assembled Hamiltonian is exactly the collective
    # zeroth block
    vs = single_mode(s=0.8, n_max=2)
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=5)
    basis, H = assemble_truncated(vs, cav, q_max=2)
    np.testing.assert_allclose(block(basis, H, 0), build_H0(vs, cav), atol=1e-14)


def test_infinite_N_coefficient_close_to_exact():
    # the N >> 1 approximation H1k = H0 + omega_g[k] I: lim N c_corr over N
    vs = single_mode(s=1.0, n_max=1)
    grid = TimeGrid(t_max=400.0, n_steps=128)
    psi0 = np.zeros(vs.m + 1, dtype=complex)
    psi0[0] = 1.0
    N = 1000
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.01, n_molecules=N)
    exact = survival_correction(vs, cav, psi0, grid)
    limit = survival_correction(vs, replace(cav, n_molecules=INF), psi0, grid)
    diff = np.max(np.abs(exact.c_corr_t - limit.scaled_corr_t / N))
    scale = np.max(np.abs(exact.c_corr_t))
    assert diff / scale < 10.0 / N


@pytest.mark.parametrize("kappa", [0.0, 0.002])
def test_scaled_correction_converges_to_infinite_N_limit(kappa):
    # N c_corr(N) = a_inf + O(1/N): its distance to the N = inf coefficient
    # shrinks tenfold per decade of N, with and without cavity loss
    vs = single_mode(s=1.0, n_max=3)
    grid = TimeGrid(t_max=400.0, n_steps=256)
    psi0 = np.zeros(vs.m + 1, dtype=complex)
    psi0[0] = 1.0
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.01, n_molecules=INF, kappa=kappa)
    a_inf = survival_correction(vs, cav, psi0, grid).scaled_corr_t

    def deviation(N):
        a = survival_correction(vs, replace(cav, n_molecules=N), psi0, grid).scaled_corr_t
        return np.max(np.abs(a - a_inf)) / np.max(np.abs(a_inf))

    dev = [deviation(N) for N in (10**2, 10**3, 10**4)]
    assert dev[0] / dev[1] == pytest.approx(10.0, rel=0.1)
    assert dev[1] / dev[2] == pytest.approx(10.0, rel=0.1)


def test_residual_bound_holds_across_N():
    # |c_exact - c1 - c_corr| <= K / N^2 with K fitted at N = 8
    vs = single_mode(s=1.0, n_max=1)
    grid = TimeGrid(t_max=400.0, n_steps=256)
    psi0 = np.zeros(vs.m + 1, dtype=complex)
    psi0[0] = 1.0

    def residual(N):
        cav = CavityParams(omega_c=0.11, g_sqrt_n=0.01, n_molecules=N)
        res = survival_correction(vs, cav, psi0, grid)
        return np.max(np.abs(exact_survival(vs, cav, grid) - res.c_t))

    K = residual(8) * 64
    assert residual(16) <= 1.3 * K / 16**2
    assert residual(32) <= 1.3 * K / 32**2


def test_survival_correction_input_validation():
    vs = single_mode()
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=4)
    grid = TimeGrid(t_max=10.0, n_steps=4)
    with pytest.raises(ValueError, match="block"):
        survival_correction(vs, cav, np.ones(7), grid)
    with pytest.raises(ValueError, match="normalized"):
        survival_correction(vs, cav, np.ones(vs.m + 1), grid)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            survival_correction(vs, cav, np.array([bad] + [0.0] * vs.m), grid)


# --- the Van Loan generator --------------------------------------------


@pytest.mark.parametrize("kappa", [0.0, 0.002])
@pytest.mark.parametrize("N", [1, 2, 1000, INF])
@pytest.mark.parametrize("n_max", [None, 1, 11])  # m = 1 (no mode), 2 and 12
def test_van_loan_generator_matches_reference_matrix(n_max, N, kappa):
    modes = () if n_max is None else (VibrationalMode(0.01, 1.0, n_max),)
    vs = build_vibronic(MolecularModel(electronic_gap=0.1, modes=modes))
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=N, kappa=kappa)
    M = van_loan_generator(vs, cav)
    ref = van_loan_matrix(vs, cav, COUPLING_SCALE)
    dim = (vs.m + 1) ** 2
    assert M.shape == ref.shape == (dim, dim)
    n_ph = np.zeros(dim)
    n_ph[:: vs.m + 1] = 1.0  # every block starts with its photon state
    np.testing.assert_array_equal(M.photon_numbers, n_ph)
    np.testing.assert_array_equal(M.diagonal(), ref.diagonal())
    np.testing.assert_allclose(M.toarray(), ref.toarray(), rtol=0, atol=1e-15)
    rng = np.random.default_rng(vs.m)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    np.testing.assert_allclose(M @ v, ref @ v, rtol=0, atol=1e-15)

    # the Krylov path's pre-scaled operator and its row-sum bound
    leak = 0.5 * kappa * n_ph
    mu = (M.diagonal() - 1j * leak).sum() / dim
    shift = 1j * leak + mu
    A = M.scaled(-1j * 0.7, shift)
    A_ref = -1j * 0.7 * (ref.toarray() - np.diag(shift))
    np.testing.assert_allclose(A.toarray(), A_ref, rtol=0, atol=1e-15)
    np.testing.assert_allclose(A @ v, A_ref @ v, rtol=0, atol=1e-15)
    rows = abs(A) @ np.ones(dim)
    np.testing.assert_allclose(rows, np.abs(A_ref).sum(axis=1), rtol=1e-15, atol=0)
    # its largest entry is both norms of A
    assert rows.max() == pytest.approx(np.abs(A_ref).sum(axis=0).max(), rel=1e-15, abs=0)
    # every row takes its own shift
    c = 0.3 - 0.4j
    shift = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    B_ref = c * (ref.toarray() - np.diag(shift))
    np.testing.assert_allclose(M.scaled(c, shift).toarray(), B_ref, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_max, method", [(11, "dense"), (21, "krylov")])
def test_van_loan_propagation_matches_reference_matrix(n_max, method):
    # dim 169 and 529, the two sides of DENSE_DIM_LIMIT, against single
    # steps of the dense exponential of the reference matrix
    vs = single_mode(s=1.0, n_max=n_max)
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=1000, kappa=0.002)
    M = van_loan_generator(vs, cav)
    n_ph = M.photon_numbers
    grid = TimeGrid(t_max=400.0, n_steps=64)
    rng = np.random.default_rng(n_max)
    psi0, bra = rng.normal(size=(2, M.shape[0])) + 1j * rng.normal(size=(2, M.shape[0]))
    psi0 /= np.linalg.norm(psi0)
    bra /= np.linalg.norm(bra)
    traj = propagate(M, psi0, grid, cav.kappa, n_ph, bra=bra)
    assert traj.params["method"] == method

    H_eff = van_loan_matrix(vs, cav, COUPLING_SCALE).toarray() - 0.5j * cav.kappa * np.diag(n_ph)
    U = sla.expm(-1j * grid.dt * H_eff)
    ref = np.empty((grid.n_steps + 1, M.shape[0]), dtype=complex)
    ref[0] = psi0
    for n in range(1, grid.n_steps + 1):
        ref[n] = U @ ref[n - 1]
    np.testing.assert_allclose(traj.c_t, ref @ psi0.conj(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.bra_t, ref @ bra.conj(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.norm_t, np.linalg.norm(ref, axis=1), rtol=0, atol=1e-12)


def test_one_over_N_coefficient_at_weak_coupling_on_the_krylov_path():
    # g_sqrt_n = 0.001 at m = 25 (dim 676): a = N c_corr is O(g^2) below
    # c1, so any cancellation of c1-sized terms inside the generator shows
    # up amplified by 1/COUPLING_SCALE^2.  Reference: single steps of the
    # dense exponential of the unscaled Van Loan matrix, whose top block
    # projection is a itself
    vs = single_mode(s=1.0, n_max=24)
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.001, n_molecules=1000, kappa=0.0015)
    grid = TimeGrid(t_max=2000.0, n_steps=256)
    n = vs.m + 1
    psi0 = np.eye(1, n).ravel()
    res = survival_correction(vs, cav, psi0, grid)

    M = van_loan_matrix(vs, cav, 1.0).toarray()
    n_ph = np.zeros(len(M))
    n_ph[::n] = 1.0
    U = sla.expm(-1j * grid.dt * (M - 0.5j * cav.kappa * np.diag(n_ph)))
    x = np.zeros(len(M), dtype=complex)
    x[-n:] = psi0
    a, c1 = np.empty((2, grid.n_steps + 1), dtype=complex)
    for j in range(grid.n_steps + 1):
        a[j], c1[j] = x[:n] @ psi0, x[-n:] @ psi0
        x = U @ x
    np.testing.assert_allclose(res.c1_t, c1, rtol=0, atol=1e-13)
    np.testing.assert_allclose(res.scaled_corr_t, a, rtol=0, atol=1e-12 * np.abs(a).max())


def test_autocorrelation_refuses_the_van_loan_generator():
    vs = single_mode(s=1.0, n_max=2)
    M = van_loan_generator(vs, CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=10))
    photon = np.eye(1, M.shape[0]).ravel()
    with pytest.raises(ValueError, match="symmetric"):
        autocorrelation(M, photon, TimeGrid(t_max=10.0, n_steps=4))


def test_two_routes_to_the_one_over_N_coefficient_agree_at_m42():
    # the fig5 molecule with its slow mode cut at n_max = 13 (m = 42): cute1
    # through truncated_generator gives N (c_cute1(N) - c1) = a_inf + O(1/N),
    # a_inf from the N = inf Van Loan propagation (dim 1849, Krylov path)
    modes = (VibrationalMode(0.01, 0.01, 2), VibrationalMode(0.001, 16.0, 13))
    vs = build_vibronic(MolecularModel(electronic_gap=0.1, modes=modes))
    assert vs.m == 42
    cav = CavityParams(omega_c=0.1161, g_sqrt_n=0.03, n_molecules=INF, kappa=0.0015)
    grid = TimeGrid(t_max=2000.0, n_steps=512)
    photon = np.eye(1, vs.m + 1).ravel()
    limit = survival_correction(vs, cav, photon, grid)
    a_inf = limit.scaled_corr_t

    def residual(N):
        gen = truncated_generator(vs, replace(cav, n_molecules=N), 1)
        psi0 = np.eye(1, gen.shape[0]).ravel()
        c = propagate(gen, psi0, grid, cav.kappa, gen.photon_numbers).c_t
        return np.max(np.abs(N * (c - limit.c1_t) - a_inf)) / np.max(np.abs(a_inf))

    res = [residual(N) for N in (1000, 4000, 16000)]
    assert res[0] / res[1] == pytest.approx(4.0, abs=0.4), res
    assert res[1] / res[2] == pytest.approx(4.0, abs=0.4), res


# --- radiative pumping -------------------------------------------------

PUMP_MODEL = MolecularModel(electronic_gap=0.1, modes=(VibrationalMode(0.02, 1.0, 5),))
PUMP_KAPPA = 0.0015
PUMP_WC = 0.08 + 1.5 * PUMP_KAPPA  # photon channel detuned 1.5 kappa below the
PUMP_DARK = 2                      # one-quantum dark state at 0.12


def per_k_pumping_rate(vs, cav, dark_index):
    """Reference: (channels, Gamma_total) from one eigh(H1k) and dense v0k per k."""
    E0, U0 = np.linalg.eigh(build_H0(vs, cav))
    E_D = E0[dark_index]
    channels = []
    for k in range(2, vs.m + 1):
        F, W = np.linalg.eigh(build_H1k(vs, cav, k))
        coup = W.T @ build_v0k(vs, cav, k).T @ U0[:, dark_index]
        for mu in range(F.size):
            c2 = coup[mu] ** 2
            gamma = c2 * cav.kappa / ((E_D - F[mu]) ** 2 + 0.25 * cav.kappa**2)
            channels.append((k, mu, F[mu], c2, gamma))
    return channels, sum(ch[-1] for ch in channels)


@pytest.mark.parametrize(
    "modes,omega_c,g_sqrt_n,N,dark",
    [
        (PUMP_MODEL.modes, PUMP_WC, 2.5e-4, 50, PUMP_DARK),  # configs/pumping_rate.ini
        (PUMP_MODEL.modes, PUMP_WC, 2.5e-4, 100, PUMP_DARK),
        ((VibrationalMode(0.02, 0.5, 2), VibrationalMode(0.005, 1.5, 3)), 0.1, 3e-4, 8, None),
    ],
    ids=["pumping_rate_N50", "pumping_rate_N100", "two_modes_N8"],
)
def test_rate_matches_per_k_reference(modes, omega_c, g_sqrt_n, N, dark):
    vs = build_vibronic(MolecularModel(electronic_gap=0.1, modes=modes))
    cav = CavityParams(omega_c=omega_c, g_sqrt_n=g_sqrt_n, n_molecules=N, kappa=PUMP_KAPPA)
    if dark is None:
        dark = int(np.argmin(photonic_weights(vs, cav)[1]))
    res = radiative_pumping_rate(vs, cav, dark)
    channels, gamma_total = per_k_pumping_rate(vs, cav, dark)
    got = np.array([(ch.k, ch.mu, ch.energy, ch.coupling_sq, ch.gamma) for ch in res.channels])
    want = np.array(channels)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got[:, :2], want[:, :2])
    for col in (2, 3, 4):
        np.testing.assert_allclose(got[:, col], want[:, col], rtol=1e-12, atol=0)
    assert res.gamma_total == pytest.approx(gamma_total, rel=1e-12, abs=0)


def test_rate_zero_when_emission_channels_closed():
    # s = 0 with a weakly admixed relaxed excited state: every fc factor into
    # a vibrationally excited ground state vanishes, so no pumping channel
    # exists and the rate is exactly zero (with a diagnostic).
    vs = single_mode(s=0.0, n_max=2, omega=0.02)
    cav = CavityParams(omega_c=0.16, g_sqrt_n=5e-4, n_molecules=16, kappa=PUMP_KAPPA)
    evals, wts = photonic_weights(vs, cav)
    dark = int(np.argmin(np.abs(evals - vs.omega_e[0])))
    assert wts[dark] < 1e-3
    res = radiative_pumping_rate(vs, cav, dark)
    assert res.gamma_total == 0.0
    assert all(ch.coupling_sq < 1e-30 for ch in res.channels)


def test_rate_halves_when_N_doubles():
    vs = build_vibronic(PUMP_MODEL)
    rates = {}
    for N in (50, 100):
        cav = CavityParams(omega_c=PUMP_WC, g_sqrt_n=2.5e-4, n_molecules=N, kappa=PUMP_KAPPA)
        rates[N] = radiative_pumping_rate(vs, cav, PUMP_DARK).gamma_total
    assert rates[100] / rates[50] == pytest.approx(0.5, abs=0.01)


def test_rate_requires_dark_state_and_finite_N():
    vs = build_vibronic(PUMP_MODEL)
    cav = CavityParams(omega_c=PUMP_WC, g_sqrt_n=2.5e-4, n_molecules=16, kappa=PUMP_KAPPA)
    with pytest.raises(ValueError, match="dark"):
        radiative_pumping_rate(vs, cav, 0)  # the photon-like state
    with pytest.raises(ValueError, match="finite"):
        radiative_pumping_rate(
            vs, CavityParams(PUMP_WC, 2.5e-4, INF, PUMP_KAPPA), PUMP_DARK
        )
    with pytest.raises(ValueError, match="kappa"):
        radiative_pumping_rate(vs, CavityParams(PUMP_WC, 2.5e-4, 16, 0.0), PUMP_DARK)


def test_rate_window_diagnostic():
    # push every final state far outside the resolvable window
    vs = single_mode(s=1.0, n_max=1, omega=0.02)
    cav = CavityParams(omega_c=0.5, g_sqrt_n=1e-4, n_molecules=16, kappa=1e-5)
    evals, wts = photonic_weights(vs, cav)
    dark = int(np.argmin(wts))
    res = radiative_pumping_rate(vs, cav, dark)
    assert res.gamma_total == 0.0
    assert "window" in res.diagnostic

