"""Vibronic structure: Franck-Condon factors against quadrature oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_hermite

from polariton.errors import DimensionGuardError
from polariton.vibronic import (
    MolecularModel,
    VibrationalMode,
    build_vibronic,
    displaced_overlap_matrix,
    ho_wavefunctions,
)


def ho_psi(n, x, omega, center=0.0):
    """Independent harmonic-oscillator eigenfunction via scipy Hermite polynomials."""
    xi = math.sqrt(omega) * (np.asarray(x) - center)
    norm = (omega / math.pi) ** 0.25 / math.sqrt(2.0**n * math.factorial(n))
    return norm * eval_hermite(n, xi) * np.exp(-0.5 * xi * xi)


def fc_quadrature(s, n_bra, n_ket, omega=1.0):
    """Grid-quadrature overlap matrix between displaced oscillator eigenstates."""
    d = math.sqrt(2.0 * s / omega)
    half = math.sqrt((2 * max(n_bra, n_ket) + 1) / omega)
    q = np.linspace(min(0.0, d) - 8 * half - 8, max(0.0, d) + 8 * half + 8, 20001)
    out = np.empty((n_bra + 1, n_ket + 1))
    for a in range(n_bra + 1):
        psi_a = ho_psi(a, q, omega, center=d)
        for b in range(n_ket + 1):
            out[a, b] = np.trapezoid(psi_a * ho_psi(b, q, omega), q)
    return out


def test_zero_displacement_is_identity():
    model = MolecularModel(electronic_gap=0.1, modes=(VibrationalMode(0.01, 0.0, 2),))
    vs = build_vibronic(model)
    assert vs.m == 3
    np.testing.assert_allclose(vs.fc, np.eye(3), atol=1e-15)


def test_ground_overlap_squared_is_exp_minus_s():
    # |<e_0|g_0>|^2 = e^{-s}, checked against direct quadrature of the two
    # displaced Gaussians.
    model = MolecularModel(electronic_gap=0.1, modes=(VibrationalMode(1.0, 16.0, 0),))
    vs = build_vibronic(model)
    assert vs.fc.shape == (1, 1)
    assert abs(vs.fc[0, 0] ** 2 - math.exp(-16.0)) < 1e-18
    quad = fc_quadrature(16.0, 0, 0)[0, 0]
    assert abs(vs.fc[0, 0] - quad) < 1e-12


@pytest.mark.parametrize("s", [0.01, 1.0, 16.0])
def test_overlaps_match_quadrature(s):
    S = displaced_overlap_matrix(s, 8, 8)
    quad = fc_quadrature(s, 8, 8)
    np.testing.assert_allclose(S, quad, atol=1e-10)


def exact_overlap(s, m, n):
    """<m; displaced | n> from the closed-form sum, summed in exact rationals.

    S = e^(-s/2) sqrt(m! n!) sum_j (-1)^(m-j) beta^(m+n-2j) / (j! (m-j)! (n-j)!),
    so S^2 e^s is a rational in s, rounded to a float once.
    """
    fs, parity = Fraction(s), (m + n) % 2
    total = sum(
        (-1) ** (m - j) * fs ** ((m + n - parity) // 2 - j)
        * math.comb(m, j) * math.comb(n, j) * math.factorial(j)
        for j in range(min(m, n) + 1)
    )
    square = total**2 * fs**parity / (math.factorial(m) * math.factorial(n))
    return math.copysign(math.sqrt(float(square)) * math.exp(-0.5 * s), total)


@pytest.mark.parametrize("s, n_max", [(16.0, 40), (50.0, 30)])
def test_overlaps_match_exact_rationals_at_large_displacement(s, n_max):
    # fig5's slow mode is (16, 40): a row recurrence loses 1.9e-3 at (40, 40)
    S = displaced_overlap_matrix(s, n_max, n_max)
    ref = [[exact_overlap(s, m, n) for n in range(n_max + 1)] for m in range(n_max + 1)]
    np.testing.assert_allclose(S, ref, rtol=0, atol=1e-14)


def test_overlaps_stay_bounded_where_the_first_overlap_underflows():
    # e^(-s/2) = 0 in double precision at s = 1500; column 0 is the Poisson
    # amplitude (-1)^m e^(-s/2) beta^m / sqrt(m!), a unit vector inside the basis
    s, n_max = 1500.0, 1900
    S = displaced_overlap_matrix(s, n_max, n_max)
    assert np.all(np.isfinite(S)) and np.abs(S).max() <= 1.0
    m = np.arange(n_max + 1)
    log_poisson = 0.5 * (m * math.log(s) - s - np.array([math.lgamma(k + 1.0) for k in m]))
    np.testing.assert_allclose(S[:, 0], (-1.0) ** m * np.exp(log_poisson), rtol=0, atol=1e-13)
    assert abs(S[:, 0] @ S[:, 0] - 1.0) < 1e-12


def test_two_mode_fc_is_tensor_product_of_modes():
    # m = 4 and fc equals the Kronecker product of the per-mode 2x2 overlap
    # blocks; oracle is a direct 2-D quadrature over both coordinates.
    m1 = VibrationalMode(1.0, 0.3, 1)
    m2 = VibrationalMode(2.0, 0.8, 1)
    model = MolecularModel(electronic_gap=0.1, modes=(m1, m2))
    vs = build_vibronic(model)
    assert vs.m == 4

    q1 = np.linspace(-8, 9, 801)
    q2 = np.linspace(-6, 7, 801)
    Q1, Q2 = np.meshgrid(q1, q2, indexing="ij")

    def psi2(n1, n2, displaced):
        d1 = m1.displacement if displaced else 0.0
        d2 = m2.displacement if displaced else 0.0
        return ho_psi(n1, Q1, m1.frequency, d1) * ho_psi(n2, Q2, m2.frequency, d2)

    quanta = vs.quanta
    for i, (a1, a2) in enumerate(quanta):
        for j, (b1, b2) in enumerate(quanta):
            integrand = psi2(a1, a2, True) * psi2(b1, b2, False)
            val = np.trapezoid(np.trapezoid(integrand, q2, axis=1), q1)
            assert abs(vs.fc[i, j] - val) < 1e-8, (i, j)


def test_orthonormality_defect_decreases():
    # Completeness: the defect of fc^T fc on any fixed leading sub-block decays
    # to zero as the basis grows.  (Columns at the truncation edge never
    # converge, since their progressions extend past the retained bra states.)
    defects = []
    for n_max in (2, 4, 8, 16):
        model = MolecularModel(electronic_gap=0.1, modes=(VibrationalMode(1.0, 1.0, n_max),))
        fc = build_vibronic(model).fc
        gram = fc.T @ fc
        defects.append(np.max(np.abs(gram[:3, :3] - np.eye(3))))
    assert all(b < a for a, b in zip(defects, defects[1:])), defects
    assert defects[-1] < 1e-6


def test_energy_ladders_match_between_surfaces():
    model = MolecularModel(
        electronic_gap=0.07,
        modes=(VibrationalMode(0.011, 0.5, 2), VibrationalMode(0.003, 2.0, 3)),
    )
    vs = build_vibronic(model)
    assert vs.omega_g[0] == 0.0
    assert np.all(np.diff(vs.omega_g) >= 0)
    np.testing.assert_allclose(vs.omega_e - vs.omega_e[0], vs.omega_g - vs.omega_g[0], atol=1e-15)
    assert vs.omega_e[0] == pytest.approx(model.electronic_gap)


def test_vertical_gap_reproduces_cavity_tuning():
    # omega_0 + omega_1 s_1 + omega_2 s_2 = 0.1161 for the two-mode benchmark
    # set with omega_0 = 0.1.
    model = MolecularModel(
        electronic_gap=0.1,
        modes=(VibrationalMode(0.01, 0.01, 2), VibrationalMode(0.001, 16.0, 4)),
    )
    assert model.vertical_gap == pytest.approx(0.1161, abs=1e-15)


def test_two_level_limit():
    vs = build_vibronic(MolecularModel(electronic_gap=0.25))
    assert vs.m == 1
    assert vs.fc[0, 0] == 1.0
    assert vs.omega_e[0] == 0.25
    assert vs.omega_g.dtype == np.float64
    np.testing.assert_array_equal(vs.omega_g, [0.0])
    assert vs.quanta == ((),)


def test_quanta_ordering_ties_are_lexicographic():
    # Equal frequencies make (0,1) and (1,0) degenerate; lexicographic order
    # must win the tie deterministically.
    model = MolecularModel(
        electronic_gap=0.1, modes=(VibrationalMode(0.01, 0.1, 1), VibrationalMode(0.01, 0.2, 1))
    )
    vs = build_vibronic(model)
    assert vs.quanta == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_basis_size_guard():
    mode = VibrationalMode(0.01, 1.0, 99)
    with pytest.raises(DimensionGuardError):
        build_vibronic(MolecularModel(electronic_gap=0.1, modes=(mode, mode)))  # m = 10,000


@pytest.mark.parametrize(
    "bad",
    [
        dict(frequency=-0.01, huang_rhys=1.0, n_max=2),
        dict(frequency=0.0, huang_rhys=1.0, n_max=2),
        dict(frequency=0.01, huang_rhys=-1.0, n_max=2),
        dict(frequency=0.01, huang_rhys=1.0, n_max=-1),
        dict(frequency=float("nan"), huang_rhys=1.0, n_max=2),
        dict(frequency=0.01, huang_rhys=float("inf"), n_max=2),
        # a non-integer n_max fails here, not as a TypeError inside build_vibronic
        dict(frequency=0.01, huang_rhys=1.0, n_max=2.5),
        dict(frequency=0.01, huang_rhys=1.0, n_max=float("nan")),
    ],
)
def test_invalid_mode_parameters_rejected(bad):
    with pytest.raises(ValueError):
        VibrationalMode(**bad)


def test_invalid_gap_rejected():
    for gap in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            MolecularModel(electronic_gap=gap)


def test_ho_wavefunctions_match_scipy():
    q = np.linspace(-30.0, 30.0, 501)
    chi = ho_wavefunctions(6, q, omega=0.37, center=1.3)
    for n in (0, 3, 6):
        np.testing.assert_allclose(chi[n], ho_psi(n, q, 0.37, 1.3), atol=1e-12)


def test_ho_wavefunctions_keep_their_norm_beyond_exp_underflow():
    # the top state of n_max = 800 reaches |x| = 40 > 38.6, where
    # e^(-x^2/2) alone underflows to 0; phi^2 is even, so the half line
    # to 1.5 turning radii holds half of each norm
    omega, n_max = 0.001, 800
    q = np.linspace(0.0, 1.5 * math.sqrt((2 * n_max + 1) / omega), 4001)
    chi = ho_wavefunctions(n_max, q, omega)
    assert np.all(np.isfinite(chi))
    np.testing.assert_allclose(2 * np.trapezoid(chi[-3:] ** 2, q, axis=1), 1.0, rtol=0, atol=1e-9)
