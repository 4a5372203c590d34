"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is pinned here; fixtures are fixed parameter sets
(no random state).
"""

import math

import numpy as np
import pytest

from polariton.cute import (
    CavityParams,
    assemble_truncated,
    build_H0,
)
from polariton.dynamics import (
    TimeGrid,
    autocorrelation,
    dark_state_density,
    photonic_weights,
    pole_decomposition,
    pole_spectrum,
    propagate,
    spectrum,
)
from polariton.oracle import build_full_H, symmetrizer
from polariton.perturbation import radiative_pumping_rate, survival_correction
from polariton.vibronic import MolecularModel, VibrationalMode, build_vibronic

from peaks import find_peaks
from reference_ops import block, conserved_check, photon_survival

INF = float("inf")


def report(num, ok, text):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


# --- 1. oracle equivalence ----------------------------------------------

FIXTURES = [
    dict(
        N=1,
        gap=0.0952,
        modes=((0.0137, 0.83, 2),),
        omega_c=0.1042,
        g_sqrt_n=0.0171,
    ),
    dict(
        N=2,
        gap=0.1037,
        modes=((0.0119, 0.41, 1), (0.0031, 1.7, 1)),
        omega_c=0.1122,
        g_sqrt_n=0.0243,
    ),
    dict(
        N=3,
        gap=0.0913,
        modes=((0.0079, 1.21, 1),),
        omega_c=0.0897,
        g_sqrt_n=0.0124,
    ),
]


def build_fixture(fx):
    model = MolecularModel(
        electronic_gap=fx["gap"],
        modes=tuple(VibrationalMode(*m) for m in fx["modes"]),
    )
    vs = build_vibronic(model)
    cav = CavityParams(omega_c=fx["omega_c"], g_sqrt_n=fx["g_sqrt_n"], n_molecules=fx["N"])
    return vs, cav


def test_criterion_1_oracle_equivalence():
    worst_H, worst_c = 0.0, 0.0
    for fx in FIXTURES:
        vs, cav = build_fixture(fx)
        N = fx["N"]
        basis, H = assemble_truncated(vs, cav, q_max=N)
        H_full, tb = build_full_H(vs, cav, 1)
        T = symmetrizer(tb, basis)
        H_sym = (T.conj().T @ (H_full @ T)).toarray()
        worst_H = max(worst_H, float(np.max(np.abs(H_sym - H.toarray()))))

        psi_sym = np.zeros(basis.dim, dtype=complex)
        psi_sym[0] = 1.0
        grid = TimeGrid(t_max=10.0 / cav.g_sqrt_n, n_steps=512)
        c_oracle = propagate(H_full, T @ psi_sym, grid).c_t
        c_cute = propagate(H, psi_sym, grid).c_t
        worst_c = max(worst_c, float(np.max(np.abs(c_oracle - c_cute))))
    report(
        1,
        worst_H < 1e-12 and worst_c < 1e-10,
        f"oracle equivalence: max|dH| = {worst_H:.2e} (tol 1e-12), "
        f"max|dc| = {worst_c:.2e} (tol 1e-10)",
    )


# --- 2. N -> infinity exactness -----------------------------------------

def test_criterion_2_large_N_exactness():
    model = MolecularModel(electronic_gap=0.1, modes=(VibrationalMode(0.01, 1.0, 1),))
    vs = build_vibronic(model)
    grid = TimeGrid(t_max=800.0, n_steps=1024)
    cav_inf = CavityParams(omega_c=0.11, g_sqrt_n=0.03, n_molecules=INF)
    c_inf = photon_survival(vs, cav_inf, grid).c_t

    err = {}
    for N in (8, 16, 32):
        cav = CavityParams(omega_c=0.11, g_sqrt_n=0.03, n_molecules=N)
        basis, H = assemble_truncated(vs, cav, q_max=N)  # untruncated symmetric space
        psi = np.zeros(basis.dim, dtype=complex)
        psi[0] = 1.0
        c_N = propagate(H, psi, grid).c_t
        err[N] = float(np.max(np.abs(c_N - c_inf)))
    ratio = err[16] / err[32]
    report(
        2,
        1.5 <= ratio <= 2.5,
        f"1/N convergence to the collective block: errors "
        f"{err[8]:.3e} / {err[16]:.3e} / {err[32]:.3e} at N = 8/16/32, "
        f"err(16)/err(32) = {ratio:.3f} (2 +- 25%)",
    )


# --- 3. 1/N expansion ----------------------------------------------------

def test_criterion_3_one_over_N_expansion():
    model = MolecularModel(electronic_gap=0.1, modes=(VibrationalMode(0.01, 1.0, 1),))
    vs = build_vibronic(model)
    grid = TimeGrid(t_max=400.0, n_steps=512)
    psi0 = np.zeros(vs.m + 1, dtype=complex)
    psi0[0] = 1.0

    scaled = {}
    for N in (1000, 10000):
        cav = CavityParams(omega_c=0.11, g_sqrt_n=0.01, n_molecules=N)
        scaled[N] = survival_correction(vs, cav, psi0, grid).scaled_corr_t
    coeff_dev = float(
        np.max(np.abs(scaled[1000] - scaled[10000])) / np.max(np.abs(scaled[10000]))
    )

    resid = {}
    for N in (8, 16):
        cav = CavityParams(omega_c=0.11, g_sqrt_n=0.01, n_molecules=N)
        res = survival_correction(vs, cav, psi0, grid)
        basis, H = assemble_truncated(vs, cav, q_max=N)
        psi = np.zeros(basis.dim, dtype=complex)
        psi[0] = 1.0
        c_exact = propagate(H, psi, grid).c_t
        resid[N] = float(np.max(np.abs(c_exact - res.c_t)))
    shrink = resid[8] / resid[16]
    report(
        3,
        coeff_dev < 0.01 and 2.8 <= shrink <= 5.2,
        f"1/N expansion: N*c_corr deviation(1e3 vs 1e4) = {coeff_dev:.2%} (tol 1%), "
        f"O(1/N^2) residual shrink 8->16 = {shrink:.2f} (4 +- 30%)",
    )


# --- 4. radiative pumping ------------------------------------------------

PUMP_MODEL = MolecularModel(electronic_gap=0.1, modes=(VibrationalMode(0.02, 1.0, 5),))
PUMP_KAPPA = 0.0015
PUMP_WC = 0.08 + 1.5 * PUMP_KAPPA
PUMP_DARK = 2  # the one-quantum dark vibronic state at 0.12


def test_criterion_4_radiative_pumping():
    vs = build_vibronic(PUMP_MODEL)
    rates = {}
    for N in (50, 100):
        cav = CavityParams(PUMP_WC, 2.5e-4, N, PUMP_KAPPA)
        rates[N] = radiative_pumping_rate(vs, cav, PUMP_DARK).gamma_total
    scaling = rates[100] / rates[50]

    cav = CavityParams(PUMP_WC, 2.5e-4, 8, PUMP_KAPPA)
    gamma = radiative_pumping_rate(vs, cav, PUMP_DARK).gamma_total
    basis, H = assemble_truncated(vs, cav, q_max=1)
    E0, U0 = np.linalg.eigh(block(basis, H, 0))
    psi0 = np.zeros(basis.dim, dtype=complex)
    psi0[: U0.shape[0]] = U0[:, PUMP_DARK]
    grid = TimeGrid(t_max=2.5 / gamma, n_steps=4096)
    traj = propagate(H, psi0, grid, kappa=cav.kappa, n_ph=basis.photon_numbers())
    pop = np.abs(traj.c_t) ** 2
    lo, hi = int(0.05 * pop.size), int(0.8 * pop.size)
    fit = -np.polyfit(grid.times[lo:hi], np.log(pop[lo:hi]), 1)[0]
    fit_dev = abs(fit - gamma) / gamma
    report(
        4,
        abs(scaling - 0.5) <= 0.025 and fit_dev <= 0.15,
        f"radiative pumping: Gamma(2N)/Gamma(N) = {scaling:.4f} (0.5 +- 5%), "
        f"trajectory-fit deviation = {fit_dev:.1%} (tol 15%)",
    )


# --- 5. two-mode vibronic spectrum (benchmark parameter set) -------------

FIG5_MODEL = MolecularModel(
    electronic_gap=0.1,
    modes=(VibrationalMode(0.01, 0.01, 2), VibrationalMode(0.001, 16.0, 40)),
)
FIG5_CAV = CavityParams(omega_c=0.1161, g_sqrt_n=0.03, n_molecules=INF, kappa=0.0015)


@pytest.mark.parametrize("step", [propagate, autocorrelation], ids=["propagate", "split"])
def test_criterion_5_vibronic_spectrum_vs_pole_oracle(step):
    vs = build_vibronic(FIG5_MODEL)
    grid = TimeGrid(t_max=2.0**16, n_steps=2**16)
    H0 = build_H0(vs, FIG5_CAV)
    n_ph = np.zeros(H0.shape[0])
    n_ph[0] = 1.0  # the photon state, also the photon-number diagonal
    traj = step(H0, n_ph, grid, kappa=FIG5_CAV.kappa, n_ph=n_ph)
    omega = np.arange(0.05, 0.2, grid.delta_omega)
    om, A = spectrum(traj.c_t, grid, omega=omega, window=None)

    lam, w = pole_decomposition(H0 - 0.5j * FIG5_CAV.kappa * np.diag(n_ph))
    A_oracle = pole_spectrum(lam, w, om, grid)

    pk_t, ht_t = find_peaks(om, A, min_height=0.01)
    pk_o, ht_o = find_peaks(om, A_oracle, min_height=0.01)
    same_count = len(pk_t) == len(pk_o) > 5
    pos_dev = float(np.max(np.abs(pk_t - pk_o) / np.abs(pk_o))) if same_count else np.inf
    ht_dev = float(np.max(np.abs(ht_t / ht_o - 1.0))) if same_count else np.inf

    order = np.argsort(ht_t)[-2:]
    lo_band, hi_band = np.sort(pk_t[order])
    straddle = lo_band < FIG5_CAV.omega_c < hi_band
    report(
        5,
        same_count and pos_dev < 1e-6 and ht_dev < 1e-6 and straddle,
        f"vibronic spectrum vs sum-over-poles oracle: {len(pk_t)} peaks, "
        f"position dev = {pos_dev:.2e}, height dev = {ht_dev:.2e} (tol 1e-6); "
        f"dominant bands {lo_band:.4f}/{hi_band:.4f} straddle omega_c = "
        f"{FIG5_CAV.omega_c}",
    )


# --- 6. dark-state geometry ----------------------------------------------

def test_criterion_6_dark_state_geometry():
    vs = build_vibronic(FIG5_MODEL)
    evals, weights = photonic_weights(vs, FIG5_CAV)
    lp = int(np.where(weights >= 0.05)[0][0])
    dark = int(np.where(weights < 1e-3)[0][0])

    d2 = FIG5_MODEL.modes[1].displacement
    q_dark = None
    q_lp = None
    for which, store in ((dark, "dark"), (lp, "lp")):
        dens = dark_state_density(vs, FIG5_CAV, which)[1]
        q_peak = float(dens.q[np.argmax(dens.rho)])
        if store == "dark":
            q_dark = q_peak
        else:
            q_lp = q_peak
    dark_ok = abs(q_dark - d2) < abs(q_dark - 0.0)
    lp_ok = abs(q_lp - 0.0) < abs(q_lp - d2)
    report(
        6,
        dark_ok and lp_ok,
        f"dark-state geometry: lowest dark mode-2 density peaks at q = "
        f"{q_dark:.1f} (excited minimum {d2:.1f}); lower polariton at q = "
        f"{q_lp:.1f} (ground minimum 0)",
    )


# --- 7. structural invariants ---------------------------------------------

def test_criterion_7_structural_invariants():
    vs = build_vibronic(
        MolecularModel(electronic_gap=0.1, modes=(VibrationalMode(0.012, 0.7, 1),))
    )
    herm_dev, tri_ok, cons_ok = 0.0, True, True
    for N in (2, 3):
        cav = CavityParams(omega_c=0.108, g_sqrt_n=0.02, n_molecules=N)
        basis, H = assemble_truncated(vs, cav, q_max=N)
        H, o = H.toarray(), basis.offsets
        herm_dev = max(herm_dev, float(np.max(np.abs(H - H.conj().T))))
        cons_ok = cons_ok and conserved_check(basis, H) == []
        # no elements beyond the first off-diagonal quasi blocks
        for qa in range(N + 1):
            for qb in range(N + 1):
                if abs(qa - qb) >= 2:
                    blk = H[o[qa] : o[qa + 1], o[qb] : o[qb + 1]]
                    tri_ok = tri_ok and (blk.size == 0 or np.max(np.abs(blk)) == 0.0)

    vs0 = build_vibronic(MolecularModel(electronic_gap=0.1))
    amp_dev = 0.0
    for N in (4, 9, 16):
        cav = CavityParams(omega_c=0.1, g_sqrt_n=0.02 * math.sqrt(N), n_molecules=N)
        basis, H = assemble_truncated(vs0, cav, q_max=0)
        amp_dev = max(amp_dev, abs(block(basis, H, 0)[0, 1] - math.sqrt(N) * cav.g))
    report(
        7,
        herm_dev < 1e-12 and tri_ok and cons_ok and amp_dev < 1e-12,
        f"structure: hermiticity dev = {herm_dev:.1e} (tol 1e-12), "
        f"block-tridiagonal = {tri_ok}, conservation checks = {cons_ok}, "
        f"sqrt(N) amplification dev = {amp_dev:.1e} (tol 1e-12)",
    )


# --- 8. high-excitation construction ---------------------------------------

def test_criterion_8_high_excitation():
    vs = build_vibronic(
        MolecularModel(electronic_gap=0.1, modes=(VibrationalMode(0.012, 0.7, 1),))
    )
    cav = CavityParams(omega_c=0.11, g_sqrt_n=0.02, n_molecules=INF)
    exact_H0 = np.array_equal(
        assemble_truncated(vs, cav, 0, n_exc=1)[1].toarray(), build_H0(vs, cav)
    )

    vs1 = build_vibronic(MolecularModel(electronic_gap=0.1))
    cav1 = CavityParams(omega_c=0.1, g_sqrt_n=0.02, n_molecules=INF)
    _, H = assemble_truncated(vs1, cav1, 0, n_exc=2)
    g2 = cav1.g_sqrt_n * math.sqrt(2.0)
    oracle = np.array([[0.2, g2, 0.0], [g2, 0.2, g2], [0.0, g2, 0.2]])
    eig_dev = float(
        np.max(np.abs(np.linalg.eigvalsh(H.toarray()) - np.linalg.eigvalsh(oracle)))
    )
    report(
        8,
        exact_H0 and eig_dev < 1e-12,
        f"high-excitation ladder: N_exc=1 block equals the collective block "
        f"exactly = {exact_H0}; N_exc=2 eigenvalue dev vs 3x3 oracle = "
        f"{eig_dev:.1e} (tol 1e-12)",
    )
