"""Symmetric basis enumeration and the bosonic one-body operator mapping."""

import itertools
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polariton import fockspace
from polariton.errors import DimensionGuardError
from polariton.fockspace import (
    SymState,
    _compositions_desc,
    basis_size,
    conserved_check,
    enumerate_basis,
    map_operator,
)


def recursive_compositions_desc(total, slots):
    """Reference: the recursive descending-lex walk over compositions."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in recursive_compositions_desc(total - first, slots - 1):
            yield (first,) + rest


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


def enumerate_matter_basis(N: int, m: int, size_cap: int = 500_000) -> MatterBasis:
    """All occupations of the 2m vibronic states with sum = N, descending lex."""
    states = []
    for occ in _compositions_desc(N, 2 * m):
        states.append(SymState(n_g=occ[:m], n_e=occ[m:], n_ph=0))
        if len(states) > size_cap:
            raise DimensionGuardError(f"matter basis exceeds cap {size_cap}")
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
    assert basis.states == (
        SymState(n_g=(3, 0), n_e=(0, 0), n_ph=1),
        SymState(n_g=(2, 0), n_e=(1, 0), n_ph=0),
        SymState(n_g=(2, 0), n_e=(0, 1), n_ph=0),
    )


def test_first_order_block_counts():
    # Brute-force enumeration is the oracle: q_max = 1 at m = 2 adds the three
    # states |g2 1>, |g2 e1>, |g2 e2>, so each block has m + 1 states per
    # phonon configuration.
    basis = enumerate_basis(3, 1, 2, 1)
    assert basis.dim == 6
    assert basis.states[3:] == (  # |g2 1>, |g2 e1>, |g2 e2>
        SymState(n_g=(2, 1), n_e=(0, 0), n_ph=1),
        SymState(n_g=(1, 1), n_e=(1, 0), n_ph=0),
        SymState(n_g=(1, 1), n_e=(0, 1), n_ph=0),
    )
    assert {tuple(s.n_g) + tuple(s.n_e) + (s.n_ph,) for s in basis.states} == {
        g + e + (p,) for g, e, p in brute_force_states(3, 1, 2, 1)
    }


def test_jaynes_cummings_limit():
    basis = enumerate_basis(1, 1, 1, 0)
    assert basis.states == (  # |1>, |e1>
        SymState(n_g=(1,), n_e=(0,), n_ph=1),
        SymState(n_g=(0,), n_e=(1,), n_ph=0),
    )


@pytest.mark.parametrize(
    "N,N_exc,m,q_max",
    [(1, 1, 2, 1), (2, 1, 2, 2), (3, 1, 2, 3), (2, 2, 2, 2), (3, 1, 3, 2), (2, 0, 2, 2)],
)
def test_enumeration_matches_brute_force(N, N_exc, m, q_max):
    basis = enumerate_basis(N, N_exc, m, q_max)
    got = {(s.n_g, s.n_e, s.n_ph) for s in basis.states}
    assert got == brute_force_states(N, N_exc, m, q_max)
    assert len(basis.states) == len(got)


def test_enumeration_order_and_index_bijection():
    basis = enumerate_basis(3, 1, 3, 3)
    # ascending quasi, photon sector first within each block
    assert list(basis.block_of) == sorted(basis.block_of)
    for q in range(4):
        sl = basis.block_slice(q)
        sector = [s.n_ph for s in basis.states[sl]]
        assert sector == sorted(sector, reverse=True)
    for p, state in enumerate(basis.states):
        assert basis.index[state] == p


@given(total=st.integers(0, 5), slots=st.integers(0, 8))
def test_compositions_match_recursive_walk(total, slots):
    assert list(_compositions_desc(total, slots)) == list(
        recursive_compositions_desc(total, slots)
    )


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
    def no_enumeration(total, slots):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(fockspace, "_compositions_desc", no_enumeration)
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
    st = SymState(n_g=(N - 1, 0), n_e=(1, 0), n_ph=0)
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
    src = basis.index[SymState(n_g=(N, 0), n_e=(0, 0), n_ph=0)]
    dst = basis.index[SymState(n_g=(N - 1, 0), n_e=(0, 1), n_ph=0)]
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
    src = basis.index[SymState(n_g=(2, 0), n_e=(0, 0), n_ph=1)]
    dst = basis.index[SymState(n_g=(1, 0), n_e=(1, 0), n_ph=0)]
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
    i0 = basis.block_slice(0).start
    i2 = basis.block_slice(2).start
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
