"""Propagation, spectra and densities against analytic and pole oracles."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from polariton import dynamics
from polariton.cute import CavityParams, assemble_truncated, build_H0, truncated_generator
from polariton.dynamics import (
    TimeGrid,
    _window,
    autocorrelation,
    dark_state_density,
    photonic_weights,
    pole_decomposition,
    pole_spectrum,
    propagate,
    spectrum,
)
from polariton.errors import DimensionGuardError
from polariton.perturbation import survival_correction
from polariton.vibronic import MolecularModel, VibrationalMode, build_vibronic, ho_wavefunctions

from peaks import find_peaks
from reference_ops import photon_survival

INF = float("inf")


def rk4_propagate(H_eff, psi0, grid):
    """Independent fixed-step 4th-order integrator for cross-checks."""
    dt = grid.dt
    psi = psi0.astype(complex).copy()
    out = [psi.copy()]
    def deriv(p):
        return -1j * (H_eff @ p)
    for _ in range(grid.n_steps):
        k1 = deriv(psi)
        k2 = deriv(psi + 0.5 * dt * k1)
        k3 = deriv(psi + 0.5 * dt * k2)
        k4 = deriv(psi + dt * k3)
        psi = psi + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(psi.copy())
    return np.array(out)


def with_states(propagation, *args, **kwargs):
    """(traj, states): a propagation run with every state at a grid time recorded.

    dynamics._step reads the amplitudes from the windows (n, V, Y) its path
    yields; the states are the columns of Y (V None) or of V^T Y.  A
    window's V is valid only until the next window is requested (the Krylov
    path refills one buffer), so V^T Y is formed before the path resumes.
    """
    rows = []
    step = dynamics._step

    def recording(windows, psi0, grid, bra=None):
        def recorded():
            for n, V, Y in windows:
                rows.append((Y if V is None else V.T @ Y).T)
                yield n, V, Y

        return step(recorded(), psi0, grid, bra)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_step", recording)
        traj = propagation(*args, **kwargs)
    return traj, np.concatenate(rows)


def test_stationary_state_phase():
    H = np.diag([0.1, 0.25, 0.4])
    psi0 = np.array([0.0, 1.0, 0.0], dtype=complex)
    grid = TimeGrid(t_max=100.0, n_steps=200)
    traj = propagate(H, psi0, grid)
    np.testing.assert_allclose(traj.c_t, np.exp(-1j * 0.25 * grid.times), atol=1e-12)
    np.testing.assert_allclose(np.abs(traj.c_t), 1.0, atol=1e-12)


def test_resonant_rabi_oscillation():
    vs = build_vibronic(MolecularModel(electronic_gap=0.1))
    cav = CavityParams(omega_c=0.1, g_sqrt_n=0.02, n_molecules=INF)
    grid = TimeGrid(t_max=2 * math.pi / cav.g_sqrt_n, n_steps=400)
    traj = photon_survival(vs, cav, grid)
    np.testing.assert_allclose(
        np.abs(traj.c_t) ** 2, np.cos(cav.g_sqrt_n * grid.times) ** 2, atol=1e-12
    )


def test_pure_photon_decay():
    vs = build_vibronic(MolecularModel(electronic_gap=0.1))
    cav = CavityParams(omega_c=0.1, g_sqrt_n=0.0, n_molecules=INF, kappa=2e-3)
    grid = TimeGrid(t_max=3000.0, n_steps=300)
    traj = photon_survival(vs, cav, grid)
    np.testing.assert_allclose(
        np.abs(traj.c_t) ** 2, np.exp(-cav.kappa * grid.times), atol=1e-12
    )
    assert np.all(np.diff(traj.norm_t) <= 1e-12)


def test_unitarity_without_leakage():
    rng = np.random.default_rng(3)
    H = rng.normal(size=(9, 9))
    H = H + H.T
    psi0 = rng.normal(size=9) + 1j * rng.normal(size=9)
    psi0 /= np.linalg.norm(psi0)
    grid = TimeGrid(t_max=50.0, n_steps=128)
    traj = propagate(H, psi0, grid)
    assert np.max(np.abs(traj.norm_t - 1.0)) < 1e-10
    assert abs(traj.c_t[0] - 1.0) < 1e-12


def test_linearity():
    rng = np.random.default_rng(5)
    H = rng.normal(size=(6, 6))
    H = H + H.T
    e = np.eye(6, dtype=complex)
    grid = TimeGrid(t_max=20.0, n_steps=50)
    s1 = with_states(propagate, H, e[0], grid)[1]
    s2 = with_states(propagate, H, e[3], grid)[1]
    both = with_states(propagate, H, (e[0] + e[3]) / math.sqrt(2), grid)[1]
    np.testing.assert_allclose(both, (s1 + s2) / math.sqrt(2), atol=1e-10)


def test_dense_vs_rk4_on_rabi():
    # 10 Rabi periods, fixed-step reference fine enough for 1e-8 agreement
    vs = build_vibronic(MolecularModel(electronic_gap=0.1))
    cav = CavityParams(omega_c=0.1, g_sqrt_n=0.02, n_molecules=INF)
    H = build_H0(vs, cav)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    grid = TimeGrid(t_max=10 * math.pi / cav.g_sqrt_n, n_steps=40000)
    traj = propagate(H, psi0, grid)
    ref = rk4_propagate(H, psi0, grid)[:, 0]
    assert np.max(np.abs(traj.c_t - ref)) < 1e-8


@settings(max_examples=30, deadline=None)
@given(
    dim=st.integers(2, 12),
    kappa=st.floats(0.0, 0.1),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_and_krylov_paths_agree(dim, kappa, seed):
    rng = np.random.default_rng(seed)
    H = rng.normal(size=(dim, dim))
    H = H + H.T
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    n_ph = (rng.random(dim) < 0.5).astype(float)
    grid = TimeGrid(t_max=15.0, n_steps=30)
    a, a_states = with_states(propagate, H, psi0, grid, kappa=kappa, n_ph=n_ph)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "DENSE_DIM_LIMIT", dim - 1)
        b, b_states = with_states(propagate, sp.csr_matrix(H), psi0, grid, kappa=kappa, n_ph=n_ph)
    assert (a.params["method"], b.params["method"]) == ("dense", "krylov")
    np.testing.assert_allclose(a.c_t, b.c_t, atol=1e-10)
    np.testing.assert_allclose(a.norm_t, b.norm_t, atol=1e-10)
    np.testing.assert_allclose(a_states, b_states, atol=1e-10)
    assert np.all(np.diff(a.norm_t) <= 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 12),
    w=st.integers(2, 12),
    full=st.booleans(),
    kappa=st.floats(0.0, 0.1),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_dense_path_matches_single_steps(dim, w, full, kappa, seed):
    # windows of w = ceil(sqrt(n_t)) states against one step at a time: n_t = w^2
    # fills the last window, n_t = w^2 - w + 1 leaves one state in it
    n_t = w * w if full else w * w - w + 1
    rng = np.random.default_rng(seed)
    H = rng.normal(size=(dim, dim))
    H = H + H.T
    n_ph = (rng.random(dim) < 0.5).astype(float)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    grid = TimeGrid(t_max=0.1 * (n_t - 1), n_steps=n_t - 1)
    traj, states = with_states(propagate, H, psi0, grid, kappa=kappa, n_ph=n_ph)
    assert traj.params["block_steps"] == w

    U = sla.expm(-1j * grid.dt * (H - 0.5j * kappa * np.diag(n_ph)))
    ref = np.empty((n_t, dim), dtype=complex)
    ref[0] = psi0
    for n in range(1, n_t):
        ref[n] = U @ ref[n - 1]
    np.testing.assert_allclose(states, ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.c_t, ref @ psi0.conj(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.norm_t, np.linalg.norm(ref, axis=1), rtol=0, atol=1e-12)


def test_blocked_dense_norm_drift_on_fig5(monkeypatch):
    # configs/fig5_spectrum.ini: dim 124, 65537 samples, 256 windows of w = 257
    vs = build_vibronic(
        MolecularModel(
            electronic_gap=0.1,
            modes=(VibrationalMode(0.01, 0.01, 2), VibrationalMode(0.001, 16, 40)),
        )
    )
    cav = CavityParams(omega_c=0.1161, g_sqrt_n=0.03, n_molecules=INF, kappa=0.0015)
    grid = TimeGrid(t_max=65536.0, n_steps=65536)
    traj = photon_survival(vs, cav, grid)
    assert (traj.params["dim"], traj.params["block_steps"]) == (124, 257)
    monkeypatch.setattr(dynamics, "_expm", sla.expm)
    ref = photon_survival(vs, cav, grid)
    np.testing.assert_allclose(traj.norm_t, ref.norm_t, rtol=0, atol=1e-13)


def test_krylov_path_matches_spectral():
    # the Krylov stepper against the small-dim step operator, fixed seed
    rng = np.random.default_rng(11)
    H = rng.normal(size=(12, 12))
    H = H + H.T
    psi0 = rng.normal(size=12) + 0j
    psi0 /= np.linalg.norm(psi0)
    grid = TimeGrid(t_max=30.0, n_steps=60)
    n_ph = np.zeros(12)
    n_ph[0] = 1.0
    for kappa in (0.0, 0.05):  # Hermitian, then with leakage
        H_eff = H - 0.5j * kappa * np.diag(n_ph)
        a = propagate(H, psi0, grid, kappa=kappa, n_ph=n_ph)
        b = dynamics._propagate_krylov(sp.csc_matrix(H_eff), 0.0, psi0, grid)
        assert a.params["method"] == "dense"
        np.testing.assert_allclose(a.c_t, b.c_t, atol=1e-10)
        np.testing.assert_allclose(a.norm_t, b.norm_t, atol=1e-10)


def test_propagate_path_follows_dense_dim_limit(monkeypatch):
    rng = np.random.default_rng(12)
    H = rng.normal(size=(6, 6))
    H = H + H.T
    psi0 = np.zeros(6, dtype=complex)
    psi0[0] = 1.0
    grid = TimeGrid(t_max=10.0, n_steps=20)
    a = propagate(H, psi0, grid)
    assert a.params["block_steps"] == 5  # ceil(sqrt(21))
    monkeypatch.setattr(dynamics, "DENSE_DIM_LIMIT", 5)
    b = propagate(H, psi0, grid)
    assert (a.params["method"], b.params["method"]) == ("dense", "krylov")
    # dim 6 <= KRYLOV_DIM: one exact basis spans the grid
    assert [b.params[key] for key in ("krylov_dim", "block_steps", "substeps")] == [6, 20, 1]
    np.testing.assert_allclose(a.c_t, b.c_t, atol=1e-10)


def test_defective_generator_steps_exactly():
    # a Jordan generator has no eigenbasis; the dense step operator needs none
    J = np.array([[0.0, 1.0], [0.0, 0.0]])
    # n_t = 21, 201: windows of w = 5, 15, the last one partial
    for grid, block_steps in ((TimeGrid(10.0, 20), 5), (TimeGrid(50.0, 200), 15)):
        jordan = propagate(J, np.array([0.0, 1.0]), grid)
        assert (jordan.params["method"], jordan.params["block_steps"]) == ("dense", block_steps)
        np.testing.assert_allclose(jordan.norm_t, np.hypot(1.0, grid.times), atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 40),
    n_steps=st.sampled_from([2, 3, 17, 1000]),
    kappa=st.floats(0.0, 1.0),
    dt=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_autocorrelation_matches_propagate(dim, n_steps, kappa, dt, seed):
    # n_t = 3, 4, 18, 1001 against w = 2, 2, 5, 32: only n_t = 4 fills the last giant row
    rng = np.random.default_rng(seed)
    H = rng.normal(size=(dim, dim))
    H = (H + H.T) / 2
    psi0 = rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    n_ph = (rng.random(dim) < 0.5).astype(float)
    grid = TimeGrid(t_max=dt * n_steps, n_steps=n_steps)
    split = autocorrelation(H, psi0, grid, kappa=kappa, n_ph=n_ph)
    ref = propagate(H, psi0, grid, kappa=kappa, n_ph=n_ph)
    assert split.params["method"] == "split" and split.norm_t is None
    # the dense path's one width: both entry points record ceil(sqrt(n_t))
    w = math.ceil(math.sqrt(n_steps + 1))
    assert split.params["block_steps"] == ref.params["block_steps"] == w
    np.testing.assert_allclose(split.c_t, ref.c_t, rtol=0, atol=1e-13)


def test_autocorrelation_above_the_limit_is_the_krylov_amplitude(monkeypatch):
    rng = np.random.default_rng(13)
    H = rng.normal(size=(6, 6))
    H = sp.csr_matrix(H + H.T)
    psi0 = np.eye(6)[0]
    n_ph = psi0.copy()
    grid = TimeGrid(t_max=10.0, n_steps=20)
    monkeypatch.setattr(dynamics, "DENSE_DIM_LIMIT", 5)
    split = autocorrelation(H, psi0, grid, kappa=0.1, n_ph=n_ph)
    ref = propagate(H, psi0, grid, kappa=0.1, n_ph=n_ph)
    assert (split.params["method"], split.norm_t) == ("krylov", None)
    np.testing.assert_array_equal(split.c_t, ref.c_t)


def test_autocorrelation_of_nilpotent_complex_symmetric_generator():
    # N = [[1, i], [i, -1]] has N^2 = 0 and no eigenbasis: exp(-i N t) = I - i N t
    N = np.array([[1.0, 1j], [1j, -1.0]])
    for grid in (TimeGrid(10.0, 20), TimeGrid(50.0, 200)):  # n_t = 21, 201: w = 5, 15
        traj = autocorrelation(N, np.array([1.0, 0.0]), grid)
        np.testing.assert_allclose(traj.c_t, 1.0 - 1j * grid.times, rtol=0, atol=1e-10)


def test_autocorrelation_input_validation():
    grid = TimeGrid(t_max=1.0, n_steps=2)
    H = np.diag([0.1, 0.2])
    with pytest.raises(ValueError, match="complex-symmetric"):
        autocorrelation(np.array([[0.1, 0.3], [0.0, 0.2]]), np.array([1.0, 0.0]), grid)
    with pytest.raises(ValueError, match="real psi0"):
        autocorrelation(H, np.array([1.0, 1j]) / math.sqrt(2), grid)
    with pytest.raises(ValueError, match="normalized"):
        autocorrelation(H, np.array([2.0, 0.0]), grid)


def test_autocorrelation_forms_two_exponentials_on_fig5(monkeypatch):
    # configs/fig5_spectrum.ini: dim 124, n_t = 65537, w = 257 baby and 256 giant states
    vs = build_vibronic(
        MolecularModel(
            electronic_gap=0.1,
            modes=(VibrationalMode(0.01, 0.01, 2), VibrationalMode(0.001, 16, 40)),
        )
    )
    cav = CavityParams(omega_c=0.1161, g_sqrt_n=0.03, n_molecules=INF, kappa=0.0015)
    calls, expm = [], dynamics._expm

    def counted(A):
        calls.append(A.shape)
        return expm(A)

    monkeypatch.setattr(dynamics, "_expm", counted)
    H0 = build_H0(vs, cav)
    e0 = np.eye(1, H0.shape[0]).ravel()
    traj = autocorrelation(H0, e0, TimeGrid(t_max=65536.0, n_steps=65536), cav.kappa, e0)
    assert calls == [(124, 124)] * 2
    assert [traj.params[key] for key in ("method", "block_steps", "dim")] == ["split", 257, 124]


def test_propagate_peak_memory_below_one_dense_copy():
    # cute1 at dim 600 lies above DENSE_DIM_LIMIT: Krylov stepping must never
    # hold a dense dim x dim complex matrix
    model = MolecularModel(
        electronic_gap=0.1,
        modes=(VibrationalMode(0.01, 0.5, 1), VibrationalMode(0.002, 2.0, 11)),
    )
    cav = CavityParams(omega_c=0.1, g_sqrt_n=0.02, n_molecules=50, kappa=0.002)
    basis, H = assemble_truncated(build_vibronic(model), cav, q_max=1)
    psi0 = np.zeros(basis.dim, dtype=complex)
    psi0[0] = 1.0
    grid = TimeGrid(t_max=500.0, n_steps=50)
    tracemalloc.start()
    try:
        traj = propagate(H, psi0, grid, kappa=cav.kappa, n_ph=basis.photon_numbers())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (basis.dim, traj.params["method"]) == (600, "krylov")
    assert peak < 16 * basis.dim**2, (peak, 16 * basis.dim**2)


def test_propagate_input_validation():
    H = np.eye(2)
    grid = TimeGrid(t_max=1.0, n_steps=2)
    with pytest.raises(ValueError, match="normalized"):
        propagate(H, np.array([2.0, 0.0]), grid)
    with pytest.raises(ValueError, match="n_ph"):
        propagate(H, np.array([1.0, 0.0]), grid, kappa=0.1)


@pytest.mark.parametrize(
    "case",
    ["psi0_nan", "psi0_inf", "kappa_nan", "sparse_H_inf", "bra_nan", "bra_short", "n_ph_scalar"],
)
def test_non_finite_input_rejected_before_stepping(monkeypatch, case):
    def no_step(*args, **kwargs):
        raise AssertionError("stepped on non-finite input")

    monkeypatch.setattr(dynamics, "_step", no_step)
    monkeypatch.setattr(dynamics, "DENSE_DIM_LIMIT", 1)  # the sparse Krylov path
    H = sp.csr_matrix(np.diag([0.1, 0.2]))
    psi0 = np.array([1.0, 0.0])
    kwargs = {}
    if case == "psi0_nan":
        psi0 = np.array([np.nan, 0.0])
    elif case == "psi0_inf":
        psi0 = np.array([np.inf, 0.0])
    elif case == "kappa_nan":
        kwargs = {"kappa": np.nan, "n_ph": np.array([1.0, 0.0])}
    elif case == "bra_nan":
        kwargs = {"bra": np.array([np.nan, 1.0])}
    elif case == "bra_short":
        kwargs = {"bra": np.array([1.0])}
    elif case == "n_ph_scalar":  # would make every state leak
        kwargs = {"kappa": 0.1, "n_ph": [1.0]}
    else:
        H = sp.csr_matrix(np.array([[0.1, np.inf], [np.inf, 0.2]]))
    match = "shape" if case in ("bra_short", "n_ph_scalar") else "finite"
    with pytest.raises(ValueError, match=match):
        propagate(H, psi0, TimeGrid(t_max=1.0, n_steps=2), **kwargs)


def test_transition_amplitudes_apply_leakage(monkeypatch):
    # propagate's bra row, on the dense path and, forced, on the Krylov path
    rng = np.random.default_rng(3)
    H = rng.normal(size=(6, 6))
    H = sp.csr_matrix(H + H.T)
    psi0, bra = np.eye(6)[0], np.eye(6)[2]
    n_ph = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
    grid = TimeGrid(t_max=10.0, n_steps=40)
    ref, states = with_states(propagate, H, psi0, grid, kappa=0.3, n_ph=n_ph)
    for limit, method in ((dynamics.DENSE_DIM_LIMIT, "dense"), (5, "krylov")):
        monkeypatch.setattr(dynamics, "DENSE_DIM_LIMIT", limit)
        traj = propagate(H, psi0, grid, kappa=0.3, n_ph=n_ph, bra=bra)
        np.testing.assert_allclose(traj.c_t, ref.c_t, rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.bra_t, states @ bra, rtol=0, atol=1e-12)
        assert (traj.params["kappa"], traj.params["method"], traj.params["dim"]) == (0.3, method, 6)
        with pytest.raises(ValueError, match="n_ph"):
            propagate(H, psi0, grid, kappa=0.3, bra=bra)


def test_transition_amplitudes_input_and_output_checks(monkeypatch):
    monkeypatch.setattr(dynamics, "DENSE_DIM_LIMIT", 1)  # the Krylov path
    grid = TimeGrid(t_max=10.0, n_steps=10)
    H = np.diag([0.1, 0.2])
    with pytest.raises(ValueError, match="normalized"):
        propagate(H, np.array([2.0, 0.0]), grid, bra=np.array([1.0, 0.0]))
    e1, e0 = np.array([0.0, 1.0]), np.eye(40)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        # a gain of 1000 per unit time overflows exp(1000 t) long before t = 10
        with pytest.raises(RuntimeError, match="non-finite amplitudes"):
            propagate(np.diag([0.1, 1000j]), e1, grid, bra=e1)
        # finite entries whose norm overflows, on a basis smaller than the space
        huge = sp.diags(np.r_[1e308, -1e308, np.zeros(38)])
        with pytest.raises(ValueError, match="overflows"):
            propagate(huge, e0, TimeGrid(t_max=20.0, n_steps=2), bra=e0)
        # and a TruncatedGenerator, whose bound is the largest row sum of its |A|
        mode = VibrationalMode(0.01, 1.0, 3)
        vs = build_vibronic(MolecularModel(electronic_gap=0.1, modes=(mode,)))
        gen = truncated_generator(vs, CavityParams(omega_c=0.1, g_sqrt_n=1e308, n_molecules=8), 1)
        photon = np.eye(1, gen.shape[0]).ravel()
        with pytest.raises(ValueError, match="overflows"):
            propagate(gen, photon, TimeGrid(t_max=20.0, n_steps=2), bra=photon)


def test_krylov_substeps_are_capped_like_a_time_grid(monkeypatch):
    monkeypatch.setattr(dynamics, "DENSE_DIM_LIMIT", 1)  # the Krylov path
    e0 = np.eye(40)[0]
    grid = TimeGrid(t_max=1.0, n_steps=1000)
    # rho = 1e3 per step: 321 substeps of the reach 3.12, 321000 in all
    stiff = sp.diags(np.r_[1e6, -1e6, np.zeros(38)])
    traj = propagate(stiff, e0, grid, bra=e0)
    assert (traj.params["block_steps"], traj.params["substeps"]) == (1, 321)

    def no_basis(*args):
        raise AssertionError("built a basis past the substep cap")

    monkeypatch.setattr(dynamics, "_arnoldi", no_basis)
    huge = sp.diags(np.r_[1e300, -1e300, np.zeros(38)])
    with pytest.raises(DimensionGuardError, match="substep samples"):
        propagate(huge, e0, grid, bra=e0)


def test_krylov_propagate_holds_one_complex_copy_of_H():
    # the Krylov path builds one complex CSR, A = -i dt (H_eff - mu I),
    # straight from the real H: with a CSR that dwarfs the Arnoldi basis the
    # traced peak stays below the basis plus A and the one it is scaled from
    rng = np.random.default_rng(21)
    dim = 600
    M = sp.random(dim, dim, density=0.1, random_state=rng) + sp.diags(rng.normal(size=dim))
    H = sp.csr_matrix(M + M.T)
    n_ph = (rng.random(dim) < 0.5).astype(float)
    psi0 = np.eye(1, dim).ravel()
    complex_csr = H.nnz * (16 + H.indices.itemsize) + H.indptr.nbytes
    basis = dynamics.KRYLOV_DIM * dim * 16
    assert complex_csr > 4 * basis
    tracemalloc.start()
    try:
        traj = propagate(H, psi0, TimeGrid(t_max=0.2, n_steps=2), kappa=0.1, n_ph=n_ph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.params["method"] == "krylov"
    assert peak < basis + 2 * complex_csr, (peak, basis, complex_csr)


@pytest.mark.parametrize("n_max, dim", [(13, 1806), (24, 5700)])
def test_krylov_propagation_holds_one_basis(n_max, dim):
    # cute1 on the fig5 molecule with its slow mode cut: every window refills
    # one k x dim buffer, so the traced peak stays near one basis, not two
    modes = (VibrationalMode(0.01, 0.01, 2), VibrationalMode(0.001, 16.0, n_max))
    vs = build_vibronic(MolecularModel(electronic_gap=0.1, modes=modes))
    cav = CavityParams(omega_c=0.1161, g_sqrt_n=0.03, n_molecules=100, kappa=0.0015)
    gen = truncated_generator(vs, cav, 1)
    photon = np.eye(1, gen.shape[0]).ravel()
    basis = dynamics.KRYLOV_DIM * dim * 16
    tracemalloc.start()
    try:
        traj = propagate(gen, photon, TimeGrid(64.0, 64), cav.kappa, gen.photon_numbers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (traj.params["method"], traj.params["dim"]) == ("krylov", dim)
    assert peak <= 1.6 * basis, peak / basis


def test_transition_amplitudes_reject_non_finite_generator(monkeypatch):
    # NaN > 0 is False: without the check a NaN norm would pick the identity step
    monkeypatch.setattr(dynamics, "DENSE_DIM_LIMIT", 1)  # the Krylov path
    H = sp.csr_matrix(np.array([[0.1, np.nan], [np.nan, 0.2]]))
    psi0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="finite"):
        propagate(H, psi0, TimeGrid(t_max=1.0, n_steps=2), bra=psi0)


def _leaky_symmetric(dim, kappa, seed):
    rng = np.random.default_rng(seed)
    H = rng.normal(size=(dim, dim))
    n_ph = (rng.random(dim) < 0.5).astype(float)
    return H + H.T - 0.5j * kappa * np.diag(n_ph)


@pytest.mark.parametrize("case, dt", [("leaky", 2.0), ("jordan", 3.0), ("zero", 1.0)])
def test_taylor_step_matches_expm(case, dt):
    # one step operator of the degree-18 series, scaled and squared, against scipy
    H_eff = {
        "leaky": _leaky_symmetric(8, 0.2, seed=5),  # complex symmetric, ||A||_1 = 23
        "jordan": np.array([[0.0, 1.0], [0.0, 0.0]]),
        "zero": np.zeros((3, 3)),
    }[case]
    A = -1j * dt * H_eff
    E = dynamics._expm(A)
    rng = np.random.default_rng(6)
    b = rng.normal(size=A.shape[0]) + 1j * rng.normal(size=A.shape[0])
    b /= np.linalg.norm(b)
    np.testing.assert_allclose(E @ b, sla.expm(A) @ b, rtol=0, atol=1e-12)
    np.testing.assert_allclose(E, sla.expm(A), rtol=0, atol=1e-12)


def test_expm_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        dynamics._expm(np.array([[0.0, np.nan], [1.0, 0.0]]))


@pytest.mark.parametrize("dt", [2.0, 1000.0])
def test_expm_scales_and_squares(dt):
    # ||A||_1 = 23 and 1.1e4: 5 and 14 squarings of the degree-18 series
    A = -1j * dt * _leaky_symmetric(8, 0.2, seed=5)
    np.testing.assert_allclose(dynamics._expm(A), sla.expm(A), rtol=0, atol=1e-13)


def test_defective_generator_on_sparse_path(monkeypatch):
    monkeypatch.setattr(dynamics, "DENSE_DIM_LIMIT", 1)
    grid = TimeGrid(t_max=10.0, n_steps=20)
    H = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    jordan = propagate(H, np.array([0.0, 1.0]), grid)
    assert jordan.params["method"] == "krylov"
    np.testing.assert_allclose(jordan.norm_t, np.hypot(1.0, grid.times), rtol=0, atol=1e-12)
    bases = []
    arnoldi = dynamics._arnoldi
    monkeypatch.setattr(dynamics, "_arnoldi", lambda *a: bases.append(arnoldi(*a)) or bases[-1])
    zero = propagate(sp.csr_matrix((2, 2)), np.array([0.6, 0.8]), grid)
    # one window of one invariant vector spans the grid
    assert [len(H) for H, *_ in bases] == [1]
    assert (zero.params["block_steps"], zero.params["substeps"]) == (20, 1)
    np.testing.assert_array_equal(zero.c_t, np.ones(grid.n_steps + 1))


def _van_loan_generator(dim, kappa, seed):
    # [[H0, V, 0], [0, H1, V^T], [0, 0, H0]] with leakage: block upper
    # triangular and non-normal, the shape survival_correction propagates
    rng = np.random.default_rng(seed)
    a = dim // 3
    b = dim - 2 * a
    H0, H1 = (rng.normal(size=(n, n)) for n in (a, b))
    V = rng.normal(size=(a, b))
    zero = np.zeros
    M = np.block([
        [H0 + H0.T, V, zero((a, a))],
        [zero((b, a)), H1 + H1.T, V.T],
        [zero((a, a + b)), H0 + H0.T],
    ])
    return M - 0.5j * kappa * np.diag((rng.random(dim) < 0.5).astype(float))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    k=st.integers(2, 6),
    dim=st.integers(8, 30),
    generator=st.sampled_from(["leaky", "van_loan"]),
    stiff=st.booleans(),
    kappa=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_krylov_windows_match_single_steps(data, k, dim, generator, stiff, kappa, seed):
    # a k = 2..6 basis on dims 8..30 cannot cover the grid: W steps per
    # basis with n_t - 1 not a multiple of W, or, at a stiff dt, s > 1
    # bases per step, against one expm per grid step
    H_eff = {"leaky": _leaky_symmetric, "van_loan": _van_loan_generator}[generator](
        dim, kappa, seed
    )
    shifted = H_eff - np.trace(H_eff) / dim * np.eye(dim)
    rho_per_dt = max(np.abs(shifted).sum(axis=0).max(), np.abs(shifted).sum(axis=1).max())
    reach = dynamics._krylov_reach(k)
    if stiff:
        substeps = data.draw(st.integers(2, 4))
        dt = reach * (substeps - 0.5) / rho_per_dt
        n_steps = data.draw(st.integers(2, 20))
        expected = {"block_steps": 1, "substeps": substeps}
        n_bases = n_steps * substeps
    else:
        width = data.draw(st.integers(2, 6))
        dt = reach / ((width + 0.5) * rho_per_dt)
        n_steps = width * data.draw(st.integers(1, 5)) + data.draw(st.integers(1, width - 1))
        expected = {"block_steps": width, "substeps": 1}
        n_bases = -(-n_steps // width)
    grid = TimeGrid(t_max=dt * n_steps, n_steps=n_steps)
    rng = np.random.default_rng(seed + 1)
    psi0, bra = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
    psi0 /= np.linalg.norm(psi0)
    buffers, bases = [], []
    arnoldi = dynamics._arnoldi

    def recording(A, psi, V, tol):
        buffers.append(V)
        bases.append(arnoldi(A, psi, V, tol))
        return bases[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "KRYLOV_DIM", k)
        mp.setattr(dynamics, "_arnoldi", recording)
        traj, states = with_states(
            dynamics._propagate_krylov, sp.csr_matrix(H_eff), 0.0, psi0, grid, bra=bra
        )
    assert {key: traj.params[key] for key in expected} == expected
    assert traj.params["krylov_dim"] == k
    assert [len(H) for H, *_ in bases] == [k] * n_bases
    # every window refills the one buffer: the states below then cover stale rows
    assert buffers[0].shape == (k, dim)
    assert all(V is buffers[0] for V in buffers)

    U = sla.expm(-1j * grid.dt * H_eff)
    ref = np.empty((n_steps + 1, dim), dtype=complex)
    ref[0] = psi0
    for n in range(1, n_steps + 1):
        ref[n] = U @ ref[n - 1]
    np.testing.assert_allclose(states, ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.c_t, ref @ psi0.conj(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.norm_t, np.linalg.norm(ref, axis=1), rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.bra_t, ref @ bra.conj(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("leaky_states", [20, 40])
def test_krylov_path_under_strong_leakage(monkeypatch, leaky_states):
    # kappa t = 5000: half the states leaky, so the amplitudes relative to
    # the trace shift's mean decay grow as e^(kappa t / 4); or all of them,
    # so the state decays to exactly 0
    rng = np.random.default_rng(1)
    H = 0.01 * rng.normal(size=(40, 40))
    n_ph = (np.arange(40) < leaky_states).astype(float)
    psi0 = np.zeros(40, dtype=complex)
    psi0[0] = 1.0
    grid = TimeGrid(t_max=100.0, n_steps=10)
    dense = propagate(H + H.T, psi0, grid, kappa=50.0, n_ph=n_ph)
    monkeypatch.setattr(dynamics, "DENSE_DIM_LIMIT", 39)
    krylov = propagate(sp.csr_matrix(H + H.T), psi0, grid, kappa=50.0, n_ph=n_ph)
    assert (krylov.params["method"], krylov.params["krylov_dim"]) == ("krylov", 30)
    assert krylov.params["substeps"] > 1
    np.testing.assert_allclose(krylov.c_t, dense.c_t, rtol=0, atol=1e-12)
    np.testing.assert_allclose(krylov.norm_t, dense.norm_t, rtol=0, atol=1e-12)
    if leaky_states == 40:
        assert krylov.norm_t[-1] == 0.0


def test_no_propagation_calls_expm_multiply(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("expm_multiply called")

    monkeypatch.setattr(spla, "expm_multiply", refuse)
    monkeypatch.setattr(dynamics, "DENSE_DIM_LIMIT", 5)
    H = _leaky_symmetric(8, 0.0, seed=7)
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = 1.0
    traj = propagate(sp.csr_matrix(H), psi0, TimeGrid(t_max=5.0, n_steps=10))
    assert traj.params["method"] == "krylov"
    vs = build_vibronic(MolecularModel(electronic_gap=0.1, modes=(VibrationalMode(0.01, 1.0, 2),)))
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=100, kappa=0.002)
    psi_b0 = np.zeros(vs.m + 1, dtype=complex)
    psi_b0[0] = 1.0
    survival_correction(vs, cav, psi_b0, TimeGrid(t_max=50.0, n_steps=10))


def test_time_grid_rejects_non_finite():
    for t_max in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="t_max"):
            TimeGrid(t_max=t_max, n_steps=8)
    with pytest.raises(ValueError, match="n_steps"):
        TimeGrid(t_max=10.0, n_steps=100.5)
    assert TimeGrid(t_max=10.0, n_steps=np.int64(50)).dt == 0.2


def test_time_grid_cap_raises_before_allocating():
    cap = dynamics.GRID_SIZE_CAP
    tracemalloc.start()
    try:
        for n_steps in (cap, 10**12):
            with pytest.raises(DimensionGuardError, match=f"n_steps = {n_steps}"):
                TimeGrid(t_max=1.0, n_steps=n_steps)
        assert TimeGrid(t_max=1.0, n_steps=cap - 1).n_steps + 1 == cap  # the largest grid
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak  # far below one array of cap samples


def test_filter_response_bare_cavity():
    # the optical-filter field of the N -> inf cavity, -i <1|exp(-i H0_eff t)|1>
    vs = build_vibronic(MolecularModel(electronic_gap=0.1))
    cav = CavityParams(omega_c=0.13, g_sqrt_n=0.0, n_molecules=INF)
    grid = TimeGrid(t_max=100.0, n_steps=100)
    D = -1j * photon_survival(vs, cav, grid).c_t
    np.testing.assert_allclose(D, -1j * np.exp(-1j * 0.13 * grid.times), atol=1e-12)
    assert D[0] == pytest.approx(-1j)


def test_filter_response_peaks_at_polaritons():
    vs = build_vibronic(
        MolecularModel(electronic_gap=0.1, modes=(VibrationalMode(0.012, 0.4, 2),))
    )
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=INF, kappa=0.001)
    grid = TimeGrid(t_max=2**14, n_steps=2**14)
    D = -1j * photon_survival(vs, cav, grid).c_t
    omega = np.arange(0.06, 0.16, grid.delta_omega)
    om, A = spectrum(1j * D, grid, omega=omega, window=None)
    peaks, heights = find_peaks(om, A, min_height=0.2)
    evals, wts = photonic_weights(vs, cav)
    polaritons = evals[wts > 0.2]
    assert len(peaks) >= len(polaritons)
    # neighbouring-line tails pull peak maxima by O(kappa^2 / splitting)
    for E in polaritons:
        assert np.min(np.abs(peaks - E)) < 2e-4


def test_spectrum_lorentzian_center_and_width():
    grid = TimeGrid(t_max=2**15, n_steps=2**15)
    w0, kappa = 0.11, 0.002
    c_t = np.exp(-1j * w0 * grid.times - 0.5 * kappa * grid.times)
    omega = np.arange(0.08, 0.14, grid.delta_omega / 4)
    om, A = spectrum(c_t, grid, omega=omega, window=None)
    peaks, heights = find_peaks(om, A, min_height=0.5)
    assert len(peaks) == 1
    assert abs(peaks[0] - w0) < 1e-7
    above = om[A > 0.5 * heights[0]]
    fwhm = above[-1] - above[0]
    assert fwhm == pytest.approx(kappa, rel=0.02)


def test_spectrum_rabi_doublet():
    vs = build_vibronic(MolecularModel(electronic_gap=0.1))
    cav = CavityParams(omega_c=0.1, g_sqrt_n=0.004, n_molecules=INF, kappa=0.0008)
    grid = TimeGrid(t_max=2**15, n_steps=2**15)
    traj = photon_survival(vs, cav, grid)
    omega = np.arange(0.09, 0.11, grid.delta_omega)
    om, A = spectrum(traj.c_t, grid, omega=omega, window=None)
    peaks, _ = find_peaks(om, A, min_height=0.3)
    # each line is pulled ~kappa^2/(8 splitting) by the partner's tail
    np.testing.assert_allclose(
        np.sort(peaks), [0.1 - cav.g_sqrt_n, 0.1 + cav.g_sqrt_n], atol=5e-5
    )


def test_spectrum_matches_pole_oracle():
    # transform of the propagated amplitude vs the closed-form geometric-sum
    # spectrum built from the eigen-poles of the same effective generator
    vs = build_vibronic(
        MolecularModel(electronic_gap=0.1, modes=(VibrationalMode(0.01, 0.8, 3),))
    )
    cav = CavityParams(omega_c=0.112, g_sqrt_n=0.02, n_molecules=INF, kappa=0.0015)
    grid = TimeGrid(t_max=2**15, n_steps=2**15)
    traj = photon_survival(vs, cav, grid)
    omega = np.arange(0.07, 0.17, grid.delta_omega)
    om, A = spectrum(traj.c_t, grid, omega=omega, window=None)

    H0 = build_H0(vs, cav)
    n_ph = np.zeros(H0.shape[0])
    n_ph[0] = 1.0
    lam, w = pole_decomposition(H0 - 0.5j * cav.kappa * np.diag(n_ph))
    A_o = pole_spectrum(lam, w, om, grid)

    pa, ha = find_peaks(om, A, min_height=0.05)
    po, ho = find_peaks(om, A_o, min_height=0.05)
    assert len(pa) == len(po) >= 3
    np.testing.assert_allclose(pa, po, rtol=1e-6)
    np.testing.assert_allclose(ha / ho, 1.0, atol=1e-6)


def test_spectrum_default_grid_and_window():
    grid = TimeGrid(t_max=1000.0, n_steps=1000)
    c_t = np.exp(-1j * 0.3 * grid.times - 0.002 * grid.times)
    om, A = spectrum(c_t, grid)
    assert om[0] == 0.0 and len(om) == len(A)
    assert np.max(np.abs(A)) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="coarse"):
        spectrum(c_t, grid, omega=np.array([10.0]))
    with pytest.raises(ValueError, match="window"):
        spectrum(c_t, grid, window="bogus")
    with pytest.raises(ValueError, match="uniform"):
        spectrum(c_t, grid, omega=np.array([0.1, 0.2, 0.4]))
    with pytest.raises(ValueError, match="non-empty"):
        spectrum(c_t, grid, omega=np.array([]))


def test_fft_size_is_the_next_5_smooth_length():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    for n in range(1, 3000):
        size = dynamics._fft_size(n)
        assert size >= n and smooth(size)
        assert not any(smooth(k) for k in range(n, size))
    assert dynamics._fft_size(65537 + 1565 - 1) == 67500  # the fig5 transform


@pytest.mark.parametrize("t_max, n_steps", [(700.0, 1000), (700.0, 1001), (25.0, 25)])
def test_spectrum_default_bins_match_ifft(t_max, n_steps):
    # the natural FFT bins against the direct n_t * ifft evaluation; at
    # (25, 25) the last bin rounds one ulp above pi / dt
    grid = TimeGrid(t_max=t_max, n_steps=n_steps)
    rng = np.random.default_rng(n_steps)
    c_t = rng.normal(size=n_steps + 1) + 1j * rng.normal(size=n_steps + 1)
    nt = grid.n_steps + 1
    om, A = spectrum(c_t, grid)
    ref = (nt * np.fft.ifft(c_t * _window("halfcos10", nt)))[: nt // 2 + 1].real
    np.testing.assert_allclose(om, 2 * math.pi * np.arange(nt // 2 + 1) / (nt * grid.dt))
    assert np.max(np.abs(A - ref / np.max(np.abs(ref)))) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    n_steps=st.integers(2, 4095),
    t_max=st.floats(1.0, 1e5),
    seed=st.integers(0, 2**32 - 1),
    start=st.floats(-1.0, 1.0),
    refine=st.floats(1.0, 8.0),
    n_omega=st.integers(1, 400),
    window=st.sampled_from(["halfcos10", None]),
)
def test_spectrum_matches_explicit_sum(n_steps, t_max, seed, start, refine, n_omega, window):
    # uniform grids below Nyquist, offset and negative omega_0, spacing
    # 2 pi / t_max down to 1/8 of it, against the O(n_omega n_t) sum
    grid = TimeGrid(t_max=t_max, n_steps=n_steps)
    rng = np.random.default_rng(seed)
    c_t = rng.normal(size=n_steps + 1) + 1j * rng.normal(size=n_steps + 1)
    nyq = grid.omega_nyquist
    d_omega = grid.delta_omega / refine
    omega0 = start * nyq
    n_omega = min(n_omega, int((nyq - omega0) / d_omega) + 1)
    omega = omega0 + d_omega * np.arange(n_omega)
    omega = omega[np.abs(omega) <= nyq]
    om, A = spectrum(c_t, grid, omega=omega, window=window)
    data = c_t * _window(window, n_steps + 1)
    ref = grid.dt * (np.exp(1j * np.outer(omega, grid.times)) @ data).real
    np.testing.assert_array_equal(om, omega)
    assert np.max(np.abs(A - ref / np.max(np.abs(ref)))) < 1e-9


def test_pole_decomposition_hermitian_weights():
    vs = build_vibronic(
        MolecularModel(electronic_gap=0.1, modes=(VibrationalMode(0.01, 0.5, 2),))
    )
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.015, n_molecules=INF)
    H0 = build_H0(vs, cav)
    lam, w = pole_decomposition(H0)
    evals, wts = photonic_weights(vs, cav)
    np.testing.assert_allclose(lam.real, evals, atol=1e-13)
    np.testing.assert_allclose(w.real, wts, atol=1e-13)
    assert np.sum(w) == pytest.approx(1.0)


def test_density_decoupled_limit_is_displaced_gaussian():
    mode = VibrationalMode(0.02, 2.0, 6)
    vs = build_vibronic(MolecularModel(electronic_gap=0.1, modes=(mode,)))
    cav = CavityParams(omega_c=0.2, g_sqrt_n=0.0, n_molecules=INF)
    # with g = 0 eigenstates are |1>, |e_1>, ...; pick |e_1> (lowest excited)
    evals, V = np.linalg.eigh(build_H0(vs, cav))
    idx = int(np.argmin(np.abs(evals - vs.omega_e[0])))
    dens = dark_state_density(vs, cav, idx)[0]
    d = mode.displacement
    ref = math.sqrt(mode.frequency / math.pi) * np.exp(-mode.frequency * (dens.q - d) ** 2)
    np.testing.assert_allclose(dens.rho, ref, atol=1e-10)
    assert dens.quanta_marginal[0] == pytest.approx(1.0)


def test_density_marginals_normalized_and_errors():
    vs = build_vibronic(
        MolecularModel(
            electronic_gap=0.1,
            modes=(VibrationalMode(0.01, 0.3, 2), VibrationalMode(0.002, 4.0, 8)),
        )
    )
    cav = CavityParams(omega_c=0.12, g_sqrt_n=0.01, n_molecules=INF)
    densities = dark_state_density(vs, cav, 1)
    for dens in densities:
        assert dens.quanta_marginal.sum() == pytest.approx(1.0)
        assert np.trapezoid(dens.rho, dens.q) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        dark_state_density(vs, cav, 999)


@pytest.mark.parametrize(
    "modes",
    [((0.01, 0.01, 2), (0.001, 16.0, 40)), ((0.001, 16.0, 1100),)],
    ids=["fig5", "slow_n_max_1100"],
)
def test_density_grid_resolves_every_level(modes):
    # the window must reach past the tails of the fast mode's low levels and
    # the spacing must resolve the top level at n_max = 1100; rho's own
    # renormalization would hide either loss, so each chi_n is integrated
    vs = build_vibronic(
        MolecularModel(electronic_gap=0.1, modes=tuple(VibrationalMode(*m) for m in modes))
    )
    cav = CavityParams(omega_c=0.1161, g_sqrt_n=0.03, n_molecules=INF)
    densities = dark_state_density(vs, cav, 1)
    assert len(densities) == len(modes)
    for mode, dens in zip(vs.model.modes, densities):
        chi = ho_wavefunctions(mode.n_max, dens.q, mode.frequency, center=dens.displacement)
        np.testing.assert_allclose(np.trapezoid(chi**2, dens.q, axis=1), 1.0, rtol=0, atol=1e-12)
