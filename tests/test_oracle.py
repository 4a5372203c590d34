"""Brute-force tensor-product solver and its symmetric-subspace projection."""

import itertools
import math

import numpy as np
import pytest

from polariton.cute import CavityParams, assemble_truncated
from polariton.dynamics import TimeGrid, propagate
from polariton.errors import DimensionGuardError
from polariton.fockspace import enumerate_basis
from polariton.oracle import (
    build_full_H,
    oracle_generator,
    symmetrizer,
    tensor_basis,
)
from polariton.vibronic import MolecularModel, VibrationalMode, build_vibronic
from reference_ops import permutation_operator


def vibronic_fixture(s=0.7, omega=0.012, n_max=1, gap=0.1):
    return build_vibronic(
        MolecularModel(electronic_gap=gap, modes=(VibrationalMode(omega, s, n_max),))
    )


def test_jaynes_cummings_splitting():
    vs = build_vibronic(MolecularModel(electronic_gap=0.1))
    cav = CavityParams(omega_c=0.1, g_sqrt_n=0.004, n_molecules=1)
    H, basis = build_full_H(vs, cav, 1)
    evals = np.linalg.eigvalsh(H.toarray())
    np.testing.assert_allclose(evals, [0.1 - cav.g, 0.1 + cav.g], atol=1e-15)


def test_hamiltonian_commutes_with_swaps():
    vs = vibronic_fixture(n_max=1)
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=3)
    H, basis = build_full_H(vs, cav, 1)
    for perm in itertools.permutations(range(3)):
        P = permutation_operator(basis, perm)
        assert abs(H @ P - P @ H).max() < 1e-12


def test_symmetrizer_isometry_and_projection():
    vs = vibronic_fixture(n_max=1)
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=2)
    basis = tensor_basis(2, vs.m, 1)
    sym = enumerate_basis(2, 1, vs.m, 2)
    T = symmetrizer(basis, sym)
    np.testing.assert_allclose((T.conj().T @ T).toarray(), np.eye(sym.dim), atol=1e-14)

    # identical single-particle states are already symmetric
    psi = np.zeros(basis.dim)
    psi[basis.index[((0, 0), 1)]] = 1.0
    proj = T.T @ psi
    np.testing.assert_allclose(T @ proj, psi, atol=1e-14)

    # antisymmetric combination projects to zero
    psi = np.zeros(basis.dim)
    psi[basis.index[((0, 1), 1)]] = 1 / math.sqrt(2)
    psi[basis.index[((1, 0), 1)]] = -1 / math.sqrt(2)
    proj = T.T @ psi
    assert np.linalg.norm(proj) < 1e-14


@pytest.mark.parametrize("N,m,n_exc", [(2, 2, 1), (3, 2, 1), (2, 3, 1), (2, 2, 2)])
def test_symmetric_subspace_dimension_formula(N, m, n_exc):
    # rank of the symmetrizer equals the stars-and-bars count enumerated by
    # the occupation basis
    basis = tensor_basis(N, m, n_exc)
    sym = enumerate_basis(N, n_exc, m, q_max=N)
    T = symmetrizer(basis, sym)
    gram = (T.conj().T @ T).toarray()
    assert np.linalg.matrix_rank(gram) == sym.dim


def test_projected_hamiltonian_equals_cute_assembly():
    vs = vibronic_fixture(n_max=1, s=1.2)
    for N in (1, 2, 3, 4):  # N = 4 is oracle.N_CAP: a slot held by four molecules
        cav = CavityParams(omega_c=0.108, g_sqrt_n=0.025, n_molecules=N)
        basis, H_cute = assemble_truncated(vs, cav, q_max=N)
        H, tb = build_full_H(vs, cav, 1)
        T = symmetrizer(tb, basis)
        H_sym = (T.conj().T @ (H @ T)).toarray()
        np.testing.assert_allclose(H_sym, H_cute.toarray(), atol=1e-12)


def test_symmetric_subspace_is_invariant_under_evolution():
    vs = vibronic_fixture(n_max=1)
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=3)
    H, tb = build_full_H(vs, cav, 1)
    sym = enumerate_basis(3, 1, vs.m, 3)
    T = symmetrizer(tb, sym)
    psi_sym = np.zeros(sym.dim, dtype=complex)
    psi_sym[0] = 1.0
    # psi(t) at the 65 times of a TimeGrid(800, 64) from the eigenbasis of the dim-64 H
    E, V = np.linalg.eigh(H.toarray())
    times = TimeGrid(t_max=800.0, n_steps=64).times
    states = (np.exp(-1j * np.multiply.outer(times, E)) * (V.T @ (T @ psi_sym))) @ V.T
    P = (T @ T.conj().T).toarray()
    leak = np.max(np.linalg.norm(states - states @ P.T, axis=1))
    assert leak < 1e-12


@pytest.mark.parametrize("N", [2, 3])
def test_oracle_survival_matches_truncated_propagation(N):
    vs = vibronic_fixture(n_max=1, s=0.9)
    cav = CavityParams(omega_c=0.107, g_sqrt_n=0.02, n_molecules=N)
    basis, H_cute = assemble_truncated(vs, cav, q_max=N)
    psi_sym = np.zeros(basis.dim, dtype=complex)
    psi_sym[0] = 1.0
    grid = TimeGrid(t_max=1000.0, n_steps=256)
    H, psi0, n_ph = oracle_generator(vs, cav)
    t_orc = propagate(H, psi0, grid, kappa=cav.kappa, n_ph=n_ph)
    t_cut = propagate(H_cute, psi_sym, grid)
    assert np.max(np.abs(t_orc.c_t - t_cut.c_t)) < 1e-10


@pytest.mark.parametrize("N,n_max", [(1, 0), (2, 1), (3, 1), (4, 1)])
def test_oracle_photon_state_is_the_symmetrized_photon(N, n_max):
    # psi0 is T[:, 0], the lift of the symmetric photon state, bit for bit
    vs = vibronic_fixture(n_max=n_max)
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=N)
    H, psi0, n_ph = oracle_generator(vs, cav)
    tb = tensor_basis(N, vs.m, 1)
    T = symmetrizer(tb, enumerate_basis(N, 1, vs.m, N))
    np.testing.assert_array_equal(psi0, T[:, [0]].toarray().ravel())
    np.testing.assert_array_equal(n_ph, tb.photon_numbers())
    assert H.shape == (tb.dim, tb.dim)


def test_oracle_jc_rabi():
    # N = 1, m = 1, resonant: |c(t)|^2 = cos^2(g t) for the photon start.
    vs = build_vibronic(MolecularModel(electronic_gap=0.1))
    cav = CavityParams(omega_c=0.1, g_sqrt_n=0.005, n_molecules=1)
    grid = TimeGrid(t_max=2 * math.pi / cav.g, n_steps=512)
    H, psi0, n_ph = oracle_generator(vs, cav)
    traj = propagate(H, psi0, grid, kappa=cav.kappa, n_ph=n_ph)
    np.testing.assert_allclose(
        np.abs(traj.c_t) ** 2, np.cos(cav.g * grid.times) ** 2, atol=1e-10
    )


def test_dimension_guards():
    with pytest.raises(DimensionGuardError):
        tensor_basis(5, 2, 1)
    vs = vibronic_fixture()
    with pytest.raises(ValueError):
        build_full_H(vs, CavityParams(0.11, 0.02, 3), 3)
    with pytest.raises(ValueError):
        build_full_H(vs, CavityParams(0.11, 0.02, float("inf")), 1)
