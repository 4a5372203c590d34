"""Block-Hamiltonian assembly: hand-written forms vs generic mapping."""

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polariton.cli import parse_config
from polariton.cute import (
    CavityParams,
    assemble_truncated,
    build_H0,
    build_H1k,
    build_v0k,
    hamiltonian_matrix,
    truncated_generator,
)
from polariton.dynamics import DENSE_DIM_LIMIT, TimeGrid, autocorrelation, propagate
from polariton.errors import DimensionGuardError
from polariton.fockspace import SymState, basis_size, enumerate_basis
from polariton.vibronic import MolecularModel, VibrationalMode, build_vibronic
from reference_ops import block, conserved_check, map_operator

INF = float("inf")


def vibronic_fixture(s=0.7, omega=0.012, n_max=1, gap=0.1):
    return build_vibronic(
        MolecularModel(electronic_gap=gap, modes=(VibrationalMode(omega, s, n_max),))
    )


# Two-mode benchmark set: the vertical transition sits at 0.1161 with a
# strong low-frequency progression (s = 16).
FIG5_MODEL = MolecularModel(
    electronic_gap=0.1,
    modes=(VibrationalMode(0.01, 0.01, 2), VibrationalMode(0.001, 16.0, 40)),
)
FIG5_CAV = CavityParams(omega_c=0.1161, g_sqrt_n=0.03, n_molecules=INF, kappa=0.0015)


def test_resonant_two_level_splitting():
    vs = build_vibronic(MolecularModel(electronic_gap=0.1161))
    cav = CavityParams(omega_c=0.1161, g_sqrt_n=0.03, n_molecules=INF)
    evals = np.linalg.eigvalsh(build_H0(vs, cav))
    np.testing.assert_allclose(evals, [0.0861, 0.1461], atol=1e-15)


def test_decoupled_limit():
    vs = vibronic_fixture(n_max=2)
    cav = CavityParams(omega_c=0.123, g_sqrt_n=0.0, n_molecules=INF)
    evals = np.linalg.eigvalsh(build_H0(vs, cav))
    expected = np.sort(np.concatenate([[0.123], vs.omega_e]))
    np.testing.assert_allclose(evals, expected, atol=1e-15)


def test_arrowhead_structure_matches_independent_assembly():
    # Brute-force script: assemble the zeroth block entry by entry from the
    # vibronic data, independently of build_H0's vectorized path.
    vs = build_vibronic(FIG5_MODEL)
    H = build_H0(vs, FIG5_CAV)
    m = vs.m
    ref = np.zeros((m + 1, m + 1))
    ref[0, 0] = FIG5_CAV.omega_c
    for i in range(1, m + 1):
        ref[i, i] = vs.omega_e[i - 1]
        ref[0, i] = ref[i, 0] = FIG5_CAV.g_sqrt_n * vs.fc[i - 1, 0]
    np.testing.assert_array_equal(H, ref)


def test_fig5_polariton_band_positions():
    # Frozen from the eigendecomposition of the independently assembled
    # zeroth block (previous test): the two largest-photon-weight eigenstates.
    vs = build_vibronic(FIG5_MODEL)
    E, V = np.linalg.eigh(build_H0(vs, FIG5_CAV))
    w = V[0] ** 2
    top = np.sort(E[np.argsort(w)[-2:]])
    np.testing.assert_allclose(top, [0.0858210248952043, 0.1464153512968014], atol=1e-12)
    assert top[0] < FIG5_CAV.omega_c < top[1]


@pytest.mark.parametrize(
    "bad",
    [
        dict(omega_c=float("nan")),
        dict(g_sqrt_n=float("inf")),
        dict(kappa=float("nan")),
        dict(n_molecules=float("nan")),
        dict(n_molecules=float("-inf")),
    ],
)
def test_cavity_params_reject_non_finite(bad):
    params = dict(omega_c=0.11, g_sqrt_n=0.02, n_molecules=4, kappa=0.0) | bad
    with pytest.raises(ValueError):
        CavityParams(**params)


def test_H1k_infinite_is_shifted_H0():
    vs = vibronic_fixture(n_max=3)
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=INF)
    H0 = build_H0(vs, cav)
    for k in (2, 4):
        np.testing.assert_array_equal(
            build_H1k(vs, cav, k), H0 + vs.omega_g[k - 1] * np.eye(vs.m + 1)
        )


def test_H1k_finite_coupling_sqrt_Nm1():
    vs = vibronic_fixture()
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=2)
    H1 = build_H1k(vs, cav, 2)
    np.testing.assert_allclose(H1[0, 1:], cav.g * vs.fc[:, 0], atol=1e-15)


@pytest.mark.parametrize("N", [100, 10000])
def test_H1k_eigenvalues_approach_shifted_H0(N):
    vs = vibronic_fixture(n_max=2)
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.03, n_molecules=N)
    H0 = build_H0(vs, cav)
    for k in (2, 3):
        exact = np.linalg.eigvalsh(build_H1k(vs, cav, k))
        approx = np.linalg.eigvalsh(H0 + vs.omega_g[k - 1] * np.eye(vs.m + 1))
        norm = np.linalg.norm(H0, 2)
        assert np.max(np.abs(exact - approx)) <= 2.0 * norm / N


def test_H1k_out_of_range():
    vs = vibronic_fixture()
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=3)
    with pytest.raises(ValueError):
        build_H1k(vs, cav, 1)
    with pytest.raises(ValueError):
        build_H1k(vs, cav, vs.m + 1)


def test_v0k_structure_and_identity_fc():
    vs = vibronic_fixture(n_max=2)
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=4)
    v = build_v0k(vs, cav, 2)
    assert np.all(v[0, :] == 0)
    assert np.all(v[:, 1:] == 0)

    vs_id = build_vibronic(
        MolecularModel(electronic_gap=0.1, modes=(VibrationalMode(0.012, 0.0, 2),))
    )
    v = build_v0k(vs_id, cav, 3)
    expected = np.zeros((4, 4))
    expected[3, 0] = cav.g
    np.testing.assert_array_equal(v, expected)


def test_v0k_norm_scales_inverse_sqrt_N():
    vs = vibronic_fixture()
    v1 = build_v0k(vs, CavityParams(0.11, 0.02, 50), 2)
    v2 = build_v0k(vs, CavityParams(0.11, 0.02, 100), 2)
    assert np.linalg.norm(v1) / np.linalg.norm(v2) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_v0k_infinite_is_zero():
    # 1/N = 0: the single-molecule g vanishes, and with it every v0k
    vs = vibronic_fixture(n_max=2)
    for k in (2, 3):
        np.testing.assert_array_equal(build_v0k(vs, CavityParams(0.11, 0.02, INF), k), 0.0)


def test_assemble_q0_reproduces_H0():
    vs = vibronic_fixture(n_max=2)
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=5)
    basis, H = assemble_truncated(vs, cav, q_max=0)
    np.testing.assert_allclose(block(basis, H, 0), build_H0(vs, cav), atol=1e-15)
    assert basis.states[0] == SymState((), 1)  # |1>


def test_assemble_q1_block_sizes_and_coupling_shape():
    # Counts follow from the conservation laws: the quasi = 1 block holds one
    # photon-type and m excited-type states per phonon slot k = 2..m.
    vs = vibronic_fixture(n_max=1)  # m = 2
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=5)
    basis, H = assemble_truncated(vs, cav, q_max=1)
    assert list(np.diff(basis.offsets)) == [3, 3]
    assert block(basis, H, 0, 1).shape == (3, 3)

    vs3 = vibronic_fixture(n_max=2)  # m = 3
    basis3, H3 = assemble_truncated(vs3, cav, q_max=1)
    assert list(np.diff(basis3.offsets)) == [4, 2 * 4]
    assert block(basis3, H3, 0, 1).shape == (4, 8)


def test_assembled_coupling_matches_v0k():
    # The generic assembly reproduces the single-molecule coupling matrices:
    # column |g_k 1>, (k - 2)(m + 1), of the assembled block-0/block-1
    # coupling equals column 0 of build_v0k.
    vs = vibronic_fixture(n_max=2, s=1.3)  # m = 3
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=6)
    basis, H = assemble_truncated(vs, cav, q_max=1)
    m = vs.m
    coupling = block(basis, H, 0, 1)
    photon = [(k - 2) * (m + 1) for k in range(2, m + 1)]
    for k, col in zip(range(2, m + 1), photon):
        np.testing.assert_allclose(coupling[:, col], build_v0k(vs, cav, k)[:, 0], atol=1e-14)
    # excited-type columns of the coupling vanish identically
    np.testing.assert_array_equal(np.delete(coupling, photon, axis=1), 0.0)


def test_assembled_block1_matches_H1k_direct_sum():
    # Block 1 lists g_k 1, g_k e_1..e_m for k = 2..m in turn, so it is the
    # direct sum of the H1k sub-blocks.
    vs = vibronic_fixture(n_max=2, s=0.9)  # m = 3
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=6)
    basis, H = assemble_truncated(vs, cav, q_max=1)
    want = sp.block_diag([build_H1k(vs, cav, k) for k in range(2, vs.m + 1)]).toarray()
    np.testing.assert_allclose(block(basis, H, 1), want, atol=1e-13)


@st.composite
def small_truncations(draw):
    """Random small models: m <= 3, N <= 4, q_max <= N."""
    n_max = draw(st.integers(0, 2))  # m = n_max + 1
    s = draw(st.floats(0.0, 2.0))
    omega = draw(st.floats(0.005, 0.02))
    vs = vibronic_fixture(s=s, omega=omega, n_max=n_max)
    N = draw(st.integers(1, 4))
    cav = CavityParams(
        omega_c=draw(st.floats(0.09, 0.13)),
        g_sqrt_n=draw(st.floats(0.0, 0.05)),
        n_molecules=N,
    )
    return vs, cav, draw(st.integers(0, N))


@settings(max_examples=40, deadline=None)
@given(small_truncations())
def test_assemble_full_matches_map_operator_path(case):
    vs, cav, q_max = case
    assembled, H = assemble_truncated(vs, cav, q_max=q_max)
    basis = enumerate_basis(cav.n_molecules, 1, vs.m, q_max)
    assert assembled.states == basis.states
    np.testing.assert_array_equal(H.toarray(), hamiltonian_matrix(vs, cav, basis).toarray().real)
    # reference pin: the generic one-body mapping of the same Hamiltonian,
    # which reads the reservoir occupation directly
    m = vs.m
    raise_op = np.zeros((2 * m, 2 * m))
    raise_op[m:, :m] = vs.fc
    R = map_operator(raise_op, basis, photon_shift=-1)
    ref = (
        map_operator(np.diag(np.concatenate([vs.omega_g, vs.omega_e])), basis)
        + sp.diags(cav.omega_c * basis.photon_numbers())
        + cav.g * (R + R.T)
    ).real
    assert abs(H - ref).max() <= 1e-15 * abs(ref).max()
    assert abs(H - H.T).max() <= 1e-12
    assert conserved_check(basis, H) == []
    np.testing.assert_array_equal(assembled.offsets, basis.offsets)
    assert basis.offsets[-1] == basis.dim


@st.composite
def generator_cases(draw):
    """m = n_max + 1 in 1..6, q_max <= 3 at N in {q_max, 2 q_max, 1000, inf}, kappa >= 0."""
    s, omega = draw(st.floats(0.0, 2.0)), draw(st.floats(0.005, 0.02))
    vs = vibronic_fixture(s=s, omega=omega, n_max=draw(st.integers(0, 5)))
    q_max = draw(st.integers(0, 3))
    cav = CavityParams(
        omega_c=draw(st.floats(0.09, 0.13)),
        g_sqrt_n=draw(st.floats(0.0, 0.05)),
        n_molecules=draw(st.sampled_from([max(q_max, 1), max(2 * q_max, 1), 1000, INF])),
        kappa=draw(st.floats(0.0, 0.01)),
    )
    return vs, cav, q_max


@settings(max_examples=60, deadline=None)
@given(generator_cases())
@example((vibronic_fixture(n_max=5), CavityParams(0.11, 0.03, 3, 0.002), 3))  # photon-only q = N
@example((vibronic_fixture(n_max=0), CavityParams(0.11, 0.03, 2, 0.002), 2))  # m = 1: q >= 1 empty
def test_truncated_generator_is_the_assembler(case):
    # the same states in the same order: no index map between the two
    vs, cav, q_max = case
    gen = truncated_generator(vs, cav, q_max)
    basis, H = assemble_truncated(vs, cav, q_max)
    assert gen.shape == (basis_size(cav.n_molecules, 1, vs.m, min(q_max, cav.n_molecules)),) * 2
    np.testing.assert_array_equal(gen.offsets, basis.offsets)
    np.testing.assert_array_equal(gen.photon_numbers, basis.photon_numbers())
    H = H.toarray()
    scale = abs(H).max()
    assert abs(gen.toarray() - H).max() <= 1e-15 * scale
    np.testing.assert_array_equal(gen.diagonal(), gen.toarray().diagonal())
    # the Krylov path's pre-scaled copy c (H - diag(shift)), leak included, and its row sums
    leak = 0.5 * cav.kappa * gen.photon_numbers
    shift = 1j * leak + 0.1
    A = -0.7j * (H - np.diag(shift))
    scaled = gen.scaled(-0.7j, shift)
    v = [1.0, 1j] @ np.random.default_rng(7).standard_normal((2, basis.dim))
    assert abs(scaled @ v - A @ v).max() <= 1e-15 * 0.7 * scale * abs(v).sum()
    assert abs(scaled.toarray() - A).max() <= 1e-15 * abs(A).max()
    rows = abs(A).sum(axis=1)  # up to about 50 terms each, summed in another order
    assert abs(abs(scaled) @ np.ones(basis.dim) - rows).max() <= 1e-14 * rows.max()


@pytest.mark.parametrize(
    "q_max,n_max,path",
    [(1, 10, "dense"), (1, 24, "krylov"), (2, 7, "dense"), (2, 10, "krylov")],
    ids=["cute1_dim132", "cute1_dim650", "cuteq2_dim324", "cuteq2_dim792"],
)
def test_truncated_generator_steps_like_the_assembler(q_max, n_max, path):
    # today's bosonized matrix against the generator the CLI steps, on both sides of
    # DENSE_DIM_LIMIT; the photon state is state 0 of both bases
    vs = vibronic_fixture(s=1.5, n_max=n_max)
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=8, kappa=0.0015)
    basis, H = assemble_truncated(vs, cav, q_max)
    gen = truncated_generator(vs, cav, q_max)
    assert (basis.dim > DENSE_DIM_LIMIT) == (path == "krylov")
    grid = TimeGrid(t_max=2000.0, n_steps=1024)
    psi0 = np.eye(1, basis.dim).ravel()
    want = propagate(H, psi0, grid, kappa=cav.kappa, n_ph=basis.photon_numbers())
    got = propagate(gen, psi0, grid, kappa=cav.kappa, n_ph=gen.photon_numbers)
    assert got.params == want.params and got.params["method"] == path
    np.testing.assert_allclose(got.c_t, want.c_t, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.norm_t, want.norm_t, rtol=0, atol=1e-12)
    c = autocorrelation(gen, psi0, grid, kappa=cav.kappa, n_ph=gen.photon_numbers)
    np.testing.assert_allclose(c.c_t, want.c_t, rtol=0, atol=1e-12)


def test_truncated_generator_guards():
    vs = build_vibronic(FIG5_MODEL)  # m = 123: q <= 2 at N = 1000 or inf is 945,624 states
    cav = replace(FIG5_CAV, n_molecules=1000)
    for N in (1000, INF):
        tracemalloc.start()
        try:
            with pytest.raises(DimensionGuardError, match="945624 states exceeds cap"):
                truncated_generator(vs, replace(cav, n_molecules=N), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak  # nothing basis-sized was allocated
    for build in (truncated_generator, assemble_truncated):
        with pytest.raises(ValueError, match="q_max"):
            build(vs, cav, -1)


def test_assembly_peak_memory_below_one_dense_copy():
    # cute1 for m = 18 has dim m (m + 1) = 342; the sparse assembly must never
    # hold a dense dim x dim float64 matrix
    vs = vibronic_fixture(s=1.0, n_max=17)
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=50)
    tracemalloc.start()
    try:
        basis, _ = assemble_truncated(vs, cav, q_max=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.dim >= 300
    assert peak < 8 * basis.dim**2, (peak, 8 * basis.dim**2)


def test_collective_amplification_sqrtN_exact():
    vs0 = build_vibronic(MolecularModel(electronic_gap=0.1))
    for N in (4, 9, 16):
        cav = CavityParams(omega_c=0.1, g_sqrt_n=0.02 * math.sqrt(N), n_molecules=N)
        basis, H = assemble_truncated(vs0, cav, q_max=0)
        assert abs(block(basis, H, 0)[0, 1] - math.sqrt(N) * cav.g) < 1e-12


def test_infinite_truncation_is_H0_only():
    # order 0 is build_H0 exactly at any N, also for the fig5 molecule (m = 123)
    # that the CLI's q = 0 methods propagate from build_H0; at N = inf, 1/N = 0,
    # every inter-block coupling is exactly 0, so the truncation is build_H0 alone
    fig5 = parse_config(Path(__file__).resolve().parents[1] / "configs" / "fig5_spectrum.ini")
    vs_fig5 = build_vibronic(fig5.model)
    assert vs_fig5.m == 123
    cases = [
        (vibronic_fixture(n_max=2), CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=5)),
        (vs_fig5, replace(fig5.cavity, n_molecules=1000)),
    ]
    for vs, cav in cases:
        basis, H = assemble_truncated(vs, cav, q_max=0)
        np.testing.assert_array_equal(H.toarray(), build_H0(vs, cav))
        assert list(basis.offsets) == [0, vs.m + 1]
        assert list(basis.photon_numbers()) == [1] + [0] * vs.m  # |1>, |e1>, ..., |em>
        assert basis.dim == vs.m + 1
    vs, cav = cases[0][0], replace(cases[0][1], n_molecules=INF)
    H0 = build_H0(vs, cav)
    for q_max in (0, 1, 2, 3):
        basis, H = assemble_truncated(vs, cav, q_max)
        assert len(basis.offsets) == q_max + 2  # q_max is not clamped
        np.testing.assert_array_equal(block(basis, H, 0), H0)
        for q in range(q_max):
            assert not block(basis, H, q, q + 1).any() and not block(basis, H, q + 1, q).any()
        gen = truncated_generator(vs, cav, q_max).toarray()
        np.testing.assert_array_equal(gen[: vs.m + 1, : vs.m + 1], H0)
        np.testing.assert_array_equal(gen[: vs.m + 1, vs.m + 1 :], 0.0)


def test_blocks_hermitian():
    vs = vibronic_fixture(n_max=2, s=1.1)
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=4)
    _, H = assemble_truncated(vs, cav, q_max=3)
    assert abs(H - H.T).max() < 1e-12


def test_high_excitation_nexc1_equals_H0():
    vs = vibronic_fixture(n_max=2, s=1.0)
    for N in (INF, 7):
        cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=N)
        _, H = assemble_truncated(vs, cav, 0, n_exc=1)
        np.testing.assert_array_equal(H.toarray(), build_H0(vs, cav))


def test_high_excitation_two_photon_ladder():
    # N_exc = 2, m = 1, resonant, N = inf: three rungs |2ph>, |1ph 1exc>,
    # |2exc> with couplings g sqrt(N) sqrt(2) between neighbours.
    vs = build_vibronic(MolecularModel(electronic_gap=0.1))
    cav = CavityParams(omega_c=0.1, g_sqrt_n=0.02, n_molecules=INF)
    basis, H = assemble_truncated(vs, cav, 0, n_exc=2)
    g2 = cav.g_sqrt_n * math.sqrt(2.0)
    oracle = np.array(
        [
            [0.2, g2, 0.0],
            [g2, 0.2, g2],
            [0.0, g2, 0.2],
        ]
    )
    np.testing.assert_allclose(
        np.linalg.eigvalsh(H.toarray()), np.linalg.eigvalsh(oracle), atol=1e-12
    )
    assert list(basis.photon_numbers()) == [2, 1, 0]  # one state per photon sector


@pytest.mark.parametrize(
    "N,n_exc,q_max",
    [(2, 1, 0), (2, 2, 0), (3, 1, 0), (3, 2, 0), (2, 2, 2), (3, 2, 3), (4, 2, 4)],
    ids=["2-1", "2-2", "3-1", "3-2", "2-2-q2", "3-2-q3", "4-2-q4"],
)
def test_high_excitation_matches_oracle_q0_restriction(N, n_exc, q_max):
    # At finite N the construction must agree with the quasi <= q_max sector
    # of the brute-force Hamiltonian in the N_exc manifold: at q_max = N
    # (m = 2) the whole symmetric N_exc = 2 manifold, single-molecule channel
    # included.
    from polariton.oracle import build_full_H, symmetrizer

    vs = vibronic_fixture(n_max=1, s=0.5)
    cav = CavityParams(omega_c=0.105, g_sqrt_n=0.02, n_molecules=N)
    basis, H_ladder = assemble_truncated(vs, cav, q_max, n_exc=n_exc)
    H, tb = build_full_H(vs, cav, n_exc)
    T = symmetrizer(tb, basis)
    H_sym = (T.conj().T @ (H @ T)).toarray().real
    np.testing.assert_allclose(H_ladder.toarray(), H_sym, atol=1e-13)


def test_high_excitation_finite_N_is_first_order_in_one_over_N():
    # every element is a smooth function of 1/N, so the distance to the
    # N = inf ladder falls off exactly as 1/N
    vs = vibronic_fixture(n_max=2, s=1.0)

    def distance(q_max, n_exc, N):
        H_N, H_inf = (
            assemble_truncated(vs, CavityParams(0.11, 0.02, n), q_max, n_exc)[1] for n in (N, INF)
        )
        return abs(H_N - H_inf).max()

    scaled = [N * distance(0, 3, N) for N in (10**3, 10**4, 10**5)]
    assert scaled[0] > 0
    np.testing.assert_allclose(scaled, scaled[0], rtol=0.01)
    # from q_max = 1 on, the single-molecule g = g_sqrt_n / sqrt(N) couples
    # neighbouring blocks and dominates: the distance is g_sqrt_n c / sqrt(N)
    for n_exc in (1, 2):
        scaled = [math.sqrt(N) * distance(1, n_exc, N) for N in (10**3, 10**4, 10**5, 10**6)]
        assert scaled[0] > 0
        np.testing.assert_allclose(scaled, scaled[0], rtol=1e-14)


@settings(max_examples=20, deadline=None)
@given(
    s=st.floats(0.0, 2.0),
    omega=st.floats(0.005, 0.02),
    n_max=st.integers(0, 3),
    g_sqrt_n=st.floats(0.0, 0.05),
    kappa=st.floats(0.0, 0.01),
)
def test_high_excitation_photon_survival_factorises_at_infinite_N(s, omega, n_max, g_sqrt_n, kappa):
    # At N = inf the N_exc manifold holds N_exc free bosons of one quadratic
    # (leaky) Hamiltonian, so the n-photon survival amplitude is c_1(t)^n.
    vs = vibronic_fixture(s=s, omega=omega, n_max=n_max)
    cav = CavityParams(omega_c=0.11, g_sqrt_n=g_sqrt_n, n_molecules=INF, kappa=kappa)
    grid = TimeGrid(t_max=400.0, n_steps=200)

    def survival(n):
        basis, H = assemble_truncated(vs, cav, 0, n_exc=n)
        psi0 = np.zeros(basis.dim)
        psi0[0] = 1.0  # all n quanta in the photon
        return propagate(H, psi0, grid, kappa=kappa, n_ph=basis.photon_numbers()).c_t

    c1 = survival(1)
    for n in (2, 3):
        np.testing.assert_allclose(survival(n), c1**n, rtol=0, atol=1e-12)


def test_high_excitation_conserves_photon_steps():
    vs = vibronic_fixture(n_max=1)
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=INF)
    basis, H = assemble_truncated(vs, cav, 0, n_exc=3)
    H = H.toarray()
    n_ph = basis.photon_numbers()
    for i in range(H.shape[0]):
        for j in range(H.shape[1]):
            if abs(H[i, j]) > 1e-14:
                assert abs(n_ph[i] - n_ph[j]) <= 1


def test_high_excitation_guards():
    vs = vibronic_fixture()
    with pytest.raises(ValueError):
        assemble_truncated(vs, CavityParams(0.11, 0.02, 3), 0, n_exc=5)
    with pytest.raises(DimensionGuardError):
        assemble_truncated(vs, CavityParams(0.11, 0.02, INF), 0, n_exc=1000)  # 501,501 states

