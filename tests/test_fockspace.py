"""Symmetric basis enumeration and the bosonic one-body operator mapping."""

import itertools
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polariton import fockspace
from polariton.errors import DimensionGuardError
from polariton.fockspace import SymState, basis_size, enumerate_basis
from reference_ops import conserved_check, map_operator, occupations


@dataclass(frozen=True)
class MatterBasis:
    """Full bosonic matter Fock space at fixed N (no photon, no truncation).

    Used to exercise the operator mapping on arbitrary one-body operators,
    which generally conserve neither N_exc nor quasi.
    """

    states: tuple[SymState, ...]
    N: int
    m: int
    index: dict[SymState, int] = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)


def enumerate_matter_basis(N: int, m: int) -> MatterBasis:
    """All placements of N molecules on the 2m vibronic states, g_1 = slot 0 dropped."""
    states = [
        SymState(tuple(k for k in picks if k), 0)
        for picks in itertools.combinations_with_replacement(range(2 * m), N)
    ]
    return MatterBasis(
        states=tuple(states), N=N, m=m, index={s: i for i, s in enumerate(states)}
    )


def brute_force_states(N, N_exc, m, q_max):
    """All occupation vectors satisfying both conservation laws, by full scan."""
    found = set()
    for n_g in itertools.product(range(N + 1), repeat=m):
        for n_e in itertools.product(range(N + 1), repeat=m):
            n_ph = N_exc - sum(n_e)
            if sum(n_g) + sum(n_e) != N or n_ph < 0:
                continue
            if sum(n_g[1:]) > q_max:
                continue
            found.add((n_g, n_e, n_ph))
    return found


def test_block0_states_eq7():
    # |1>, |e1>, |e2>
    basis = enumerate_basis(3, 1, 2, 0)
    assert basis.states == (SymState((), 1), SymState((2,), 0), SymState((3,), 0))


def test_first_order_block_counts():
    # Brute-force enumeration is the oracle: q_max = 1 at m = 2 adds the three
    # states |g2 1>, |g2 e1>, |g2 e2>, so each block has m + 1 states per
    # phonon configuration.
    basis = enumerate_basis(3, 1, 2, 1)
    assert basis.dim == 6
    assert basis.states[3:] == (  # |g2 1>, |g2 e1>, |g2 e2>
        SymState((1,), 1),
        SymState((1, 2), 0),
        SymState((1, 3), 0),
    )
    assert {occupations(s, 3, 2) + (s.n_ph,) for s in basis.states} == {
        g + e + (p,) for g, e, p in brute_force_states(3, 1, 2, 1)
    }


def test_jaynes_cummings_limit():
    basis = enumerate_basis(1, 1, 1, 0)
    assert basis.states == (SymState((), 1), SymState((1,), 0))  # |1>, |e1>


@pytest.mark.parametrize(
    "N,N_exc,m,q_max",
    [(1, 1, 2, 1), (2, 1, 2, 2), (3, 1, 2, 3), (2, 2, 2, 2), (3, 1, 3, 2), (2, 0, 2, 2)],
)
def test_enumeration_matches_brute_force(N, N_exc, m, q_max):
    basis = enumerate_basis(N, N_exc, m, q_max)
    occ = [occupations(s, N, m) for s in basis.states]
    got = {(o[:m], o[m:], s.n_ph) for o, s in zip(occ, basis.states)}
    assert got == brute_force_states(N, N_exc, m, q_max)
    assert len(basis.states) == len(got)


def test_enumeration_order_and_index_bijection():
    # ascending quasi; within block q the ground multisets in colex order, each
    # followed by its sectors photon-rich first, each sector in lex order
    basis = enumerate_basis(3, 2, 4, 3)  # colex and lex differ from 3 ground levels on
    m = basis.m
    quasi = [sum(k < m for k in s.slots) for s in basis.states]
    assert quasi == sorted(quasi)
    for q in range(4):
        block = basis.states[basis.offsets[q] : basis.offsets[q + 1]]
        assert {sum(k < m for k in s.slots) for s in block} == {q}
        keys = [(s.slots[:q][::-1], -s.n_ph, s.slots[q:]) for s in block]
        assert keys == sorted(set(keys))
    for p, state in enumerate(basis.states):
        assert basis.index[state] == p


def test_first_manifold_lists_each_multiset_photon_first():
    # photon(S), e_1(S), ..., e_m(S) per multiset S, the photon alone at q = N:
    # the row order of cute.truncated_generator
    basis = enumerate_basis(2, 1, 4, 2)
    exc = [(4,), (5,), (6,), (7,)]
    want = [SymState((), 1)] + [SymState(e, 0) for e in exc]
    for S in [(1,), (2,), (3,)]:
        want += [SymState(S, 1)] + [SymState(S + e, 0) for e in exc]
    colex = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]
    want += [SymState(S, 1) for S in colex]  # q = N = 2
    assert basis.states == tuple(want)
    assert list(basis.offsets) == [0, 5, 20, 26]


@pytest.mark.parametrize("N,N_exc,m", [(3, 0, 2), (3, 1, 3), (2, 3, 2), (5, 3, 3), (1, 2, 1)])
def test_quasi0_lists_photon_sectors_in_lex_order(N, N_exc, m):
    # the high-excitation ladder's order: descending photon number, lex excited slots
    cwr = itertools.combinations_with_replacement
    want = tuple(
        SymState(e, n_ph)
        for n_ph in range(N_exc, -1, -1)
        if N_exc - n_ph <= N
        for e in cwr(range(m, 2 * m), N_exc - n_ph)
    )
    assert enumerate_basis(N, N_exc, m, 0).states == want


@pytest.mark.parametrize("N_exc,m,q_max", [(1, 2, 1), (2, 3, 2), (3, 2, 0), (1, 4, 3)])
def test_states_are_independent_of_N_beyond_the_reservoir(N_exc, m, q_max):
    # the premise of assembling N = infinity at N = N_exc + q_max: once the
    # reservoir can hold every excitation and phonon, N changes no state
    N0 = N_exc + q_max
    ref = enumerate_basis(N0, N_exc, m, q_max)
    for N in (N0 + 1, N0 + 2, 50, 1000):
        basis = enumerate_basis(N, N_exc, m, q_max)
        assert basis.states == ref.states
        np.testing.assert_array_equal(basis.offsets, ref.offsets)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        enumerate_basis(0, 1, 2, 0)
    with pytest.raises(ValueError):
        enumerate_basis(2, 1, 2, 3)
    with pytest.raises(DimensionGuardError):
        enumerate_basis(1000, 1, 123, 2)  # 945,624 states


@st.composite
def basis_shapes(draw):
    N = draw(st.integers(1, 8))
    return N, draw(st.integers(0, 4)), draw(st.integers(1, 5)), draw(st.integers(0, N))


@settings(max_examples=60, deadline=None)
@given(basis_shapes())
@example((3, 2, 1, 3))  # m = 1: no vibrationally excited ground slots
@example((4, 0, 3, 2))  # N_exc = 0
@example((8, 4, 5, 8))  # the largest shape, q_max = N
def test_basis_size_counts_enumeration(shape):
    assert basis_size(*shape) == enumerate_basis(*shape).dim


@pytest.mark.parametrize(
    "N,m,q_max,size",
    [(1000, 42, 1, 1806), (1000, 75, 1, 5700), (1000, 123, 1, 15252), (1000, 123, 2, 945_624)],
)
def test_basis_size_anchors(N, m, q_max, size):
    assert basis_size(N, 1, m, q_max) == size


def test_size_guard_fires_before_enumeration(monkeypatch):
    def no_state(slots, n_ph):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(fockspace, "SymState", no_state)
    with pytest.raises(DimensionGuardError, match="945624"):
        enumerate_basis(1000, 1, 123, 2)


def test_map_identity_counts_molecules():
    basis = enumerate_basis(3, 1, 2, 1)
    out = map_operator(np.eye(4), basis).toarray()
    np.testing.assert_allclose(out, 3 * np.eye(basis.dim), atol=1e-14)


def test_map_projector_counts_occupation():
    # |g1><g1| on the state with N-1 molecules left in g1 gives N-1.
    N, m = 4, 2
    basis = enumerate_matter_basis(N, m)
    proj = np.zeros((2 * m, 2 * m))
    proj[0, 0] = 1.0
    out = map_operator(proj, basis).toarray()
    st = SymState((m,), 0)  # one molecule in e_1
    i = basis.index[st]
    assert out[i, i] == pytest.approx(N - 1)


def test_map_ladder_amplitude_sqrtN():
    # |e2><g1| on the all-ground state: amplitude sqrt(N) * sqrt(1) into the
    # singly transferred state (explicit ladder algebra).
    N, m = 3, 2
    basis = enumerate_matter_basis(N, m)
    op = np.zeros((2 * m, 2 * m))
    op[m + 1, 0] = 1.0  # e2 <- g1
    out = map_operator(op, basis).toarray()
    src = basis.index[SymState((), 0)]
    dst = basis.index[SymState((m + 1,), 0)]  # one molecule in e_2
    assert out[dst, src] == pytest.approx(np.sqrt(N))
    assert np.count_nonzero(out[:, src]) == 1


def test_map_hermitian_input_gives_hermitian_output():
    rng = np.random.default_rng(7)
    basis = enumerate_matter_basis(3, 2)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    A = A + A.conj().T
    out = map_operator(A, basis).toarray()
    np.testing.assert_allclose(out, out.conj().T, atol=1e-12)


@pytest.mark.parametrize("N,m", [(1, 1), (2, 2), (3, 2)])
def test_commutator_closure(N, m):
    # [map(A), map(B)] = map([A, B]) on the full symmetric matter space.
    rng = np.random.default_rng(42 + N + m)
    basis = enumerate_matter_basis(N, m)
    A = rng.normal(size=(2 * m, 2 * m)) + 1j * rng.normal(size=(2 * m, 2 * m))
    B = rng.normal(size=(2 * m, 2 * m)) + 1j * rng.normal(size=(2 * m, 2 * m))
    A, B = A + A.conj().T, B + B.conj().T
    mA, mB = map_operator(A, basis).toarray(), map_operator(B, basis).toarray()
    lhs = mA @ mB - mB @ mA
    rhs = map_operator(A @ B - B @ A, basis).toarray()
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_photon_shift_factors():
    basis = enumerate_basis(2, 1, 2, 2)
    op = np.zeros((4, 4))
    op[2, 0] = 1.0  # e1 <- g1
    out = map_operator(op, basis, photon_shift=-1).toarray()
    src = basis.index[SymState((), 1)]
    dst = basis.index[SymState((2,), 0)]  # one molecule in e_1
    # sqrt(n_ph) * sqrt(n_g1) * sqrt(n_e1 + 1) = 1 * sqrt(2) * 1
    assert out[dst, src] == pytest.approx(np.sqrt(2.0))
    for shift in (1, 2):
        with pytest.raises(ValueError):
            map_operator(op, basis, photon_shift=shift)
    with pytest.raises(ValueError):
        map_operator(np.eye(3), basis)


def test_conserved_check_clean_and_negative_control():
    from polariton.cute import CavityParams, hamiltonian_matrix
    from polariton.vibronic import MolecularModel, VibrationalMode, build_vibronic

    vs = build_vibronic(
        MolecularModel(electronic_gap=0.1, modes=(VibrationalMode(0.012, 0.6, 1),))
    )
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=3)
    basis = enumerate_basis(3, 1, vs.m, 3)
    H = hamiltonian_matrix(vs, cav, basis)
    assert conserved_check(basis, H) == []

    # inject an element between quasi blocks 0 and 2
    bad = H.tolil(copy=True)
    i0, i2 = basis.offsets[0], basis.offsets[2]
    bad[i2, i0] = 0.01
    violations = conserved_check(basis, bad.tocsr())
    assert len(violations) == 1 and violations[0]["reason"] == "quasi"

    # The collective part alone (light-matter coupling only through the
    # macroscopically occupied g1 channel) is block diagonal in quasi: zeroing
    # the fc columns k > 1 leaves no |dq| = 1 elements at all.
    import dataclasses

    fc0 = vs.fc.copy()
    fc0[:, 1:] = 0.0
    vs_coll = dataclasses.replace(vs, fc=fc0)
    H_coll = hamiltonian_matrix(vs_coll, cav, basis)
    assert conserved_check(basis, H_coll, max_quasi_jump=0) == []
