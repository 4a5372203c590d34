"""Independent, untimed correctness references for the benchmark workloads.

None of these goes through the code path being timed:

* fig5_spectrum: the pole oracle (`pole_decomposition` of H0_eff) summed on
  the time grid, windowed, and transformed with a chirp-z transform
  (`scipy.signal.czt`) instead of the explicit-frequency DFT.
* finite-N workloads: one uniform-grid `expm_multiply` call on a cute1
  matrix built here from `build_H0` / `build_H1k` / `build_v0k`, which does
  not touch `map_operator` or `assemble_truncated`.
* one_over_n: N * c_corr against N * (c_cute1 - c1) at kappa = 0, with both
  amplitudes from `expm_multiply`, and the 1/N scaling of the pumping rate.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.signal import czt
from scipy.sparse.linalg import expm_multiply

from polariton.cute import build_H0, build_H1k, build_v0k
from polariton.dynamics import pole_decomposition

RATE_RATIO = 0.5  # Gamma(2N) / Gamma(N) for a rate that scales as 1/N

TOLERANCES = {
    "omega_grid_err": 1e-12,   # frequency grid uniform in steps of 2 pi / t_max
    "spectrum_dev": 1e-8,      # max |A - A_ref| of unit-peak spectra
    "trajectory_dev": 1e-7,    # max |c(t) - c_ref(t)|, |c| <= 1
    "c1_dev": 1e-9,            # max |c1(t) - c1_ref(t)|
    "corr_rel_dev": 5e-3,      # next order in 1/N; about 1.2e-3 at N = 1000
    "rate_ratio_err": 0.05,    # relative error of Gamma(100) / Gamma(50)
}


def halfcos10(nt: int) -> np.ndarray:
    """Half-cosine taper over the final 10 % of nt samples."""
    w = np.ones(nt)
    start = int(math.floor(0.9 * (nt - 1)))
    w[start:] = np.cos(0.5 * math.pi * np.arange(nt - start) / max(1, nt - 1 - start))
    return w


def pole_czt_spectrum(vs, cav, grid, omega0: float, d_omega: float, n_omega: int) -> np.ndarray:
    """Unit-peak windowed spectrum of the N = inf photon survival, from its poles."""
    H_eff = build_H0(vs, cav).astype(complex)
    H_eff[0, 0] -= 0.5j * cav.kappa
    lam, w = pole_decomposition(H_eff)
    times = grid.times
    c_t = np.empty(times.size, dtype=complex)
    chunk = 4096
    for lo in range(0, times.size, chunk):
        c_t[lo : lo + chunk] = np.exp(-1j * np.outer(times[lo : lo + chunk], lam)) @ w
    data = c_t * halfcos10(times.size)
    dt = grid.dt
    # sum_n x_n e^{i (omega0 + k d_omega) n dt} = czt with a = e^{-i omega0 dt}, w = e^{i d_omega dt}
    X = czt(data, m=n_omega, w=np.exp(1j * d_omega * dt), a=np.exp(-1j * omega0 * dt))
    A = dt * X.real
    return A / np.max(np.abs(A))


def cute1_matrix(vs, cav):
    """Sparse cute1 Hamiltonian [H0, v0k; v0k^T, H1k] and its photon numbers.

    Block 0 is H0 over {|1>, |e_i>}; sub-block k (k = 2..m) is H1k over
    {|g_k 1>, |g_k e_i>}, coupled to block 0 through v0k only.
    """
    m = vs.m
    n = m + 1
    blocks = [[None] * m for _ in range(m)]
    blocks[0][0] = sp.csr_matrix(build_H0(vs, cav))
    for k in range(2, m + 1):
        v = sp.csr_matrix(build_v0k(vs, cav, k))
        blocks[k - 1][k - 1] = sp.csr_matrix(build_H1k(vs, cav, k))
        blocks[0][k - 1] = v
        blocks[k - 1][0] = v.T
    H = sp.bmat(blocks, format="csr")
    n_ph = np.zeros(m * n)
    n_ph[::n] = 1.0
    return H, n_ph


def photon_amplitude(H, n_ph, kappa: float, t_max: float, num: int) -> np.ndarray:
    """<0| exp(-i H_eff t) |0> on num uniform times 0..t_max, one expm_multiply call."""
    H_eff = (H - 0.5j * kappa * sp.diags(n_ph)).tocsc()
    psi0 = np.zeros(H.shape[0], dtype=complex)
    psi0[0] = 1.0
    states = expm_multiply(-1j * H_eff, psi0, start=0.0, stop=t_max, num=num, endpoint=True)
    return states[:, 0]


def trajectory_reference(vs, cav, grid, stride: int) -> np.ndarray:
    """c_ref(t) at every stride-th sample of the grid, kappa included."""
    H, n_ph = cute1_matrix(vs, cav)
    num = (grid.n_steps // stride) + 1
    return photon_amplitude(H, n_ph, cav.kappa, stride * (num - 1) * grid.dt, num)


def correction_reference(vs, cav, grid) -> tuple[np.ndarray, np.ndarray]:
    """(c1, N * (c_cute1 - c1)) on the grid from exact dynamics at kappa = 0."""
    nt = grid.n_steps + 1
    H, n_ph = cute1_matrix(vs, cav)
    c_cute1 = photon_amplitude(H, n_ph, 0.0, grid.t_max, nt)
    H0 = sp.csr_matrix(build_H0(vs, cav))
    c1 = photon_amplitude(H0, np.zeros(H0.shape[0]), 0.0, grid.t_max, nt)
    return c1, cav.n_molecules * (c_cute1 - c1)
