"""Reference operators the tests check the package against.

map_operator second-quantizes any one-body operator directly from the full
occupation vector of each state (occupations, the reservoir included): the
generic reference for the bosonized assembler cute.hamiltonian_matrix.
conserved_check lists the matrix elements that break a conservation law of
the symmetric basis, and permutation_operator swaps the molecule registers
of the oracle's tensor basis.  block reads one dense sub-block of an
assembled (basis, H), and photon_survival propagates the bare photon state under
the zeroth block.  van_loan_matrix assembles the 1/N correction's Van Loan
generator block by block, the reference for perturbation.van_loan_generator.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from polariton.cute import CavityParams, build_A1, build_H0
from polariton.dynamics import TimeGrid, Trajectory, propagate
from polariton.fockspace import SymBasis, SymState
from polariton.oracle import TensorBasis
from polariton.vibronic import VibronicStructure


def occupations(state: SymState, N: int, m: int) -> tuple[int, ...]:
    """Full occupation vector (n_g1..n_gm, n_e1..n_em) of N molecules, g_1 included."""
    occ = [0] * (2 * m)
    occ[0] = N - len(state.slots)
    for k in state.slots:
        occ[k] += 1
    return tuple(occ)


def map_operator(one_body, basis, photon_shift: int = 0) -> sp.csr_matrix:
    """Second-quantize a symmetric sum of single-molecule operators.

    Maps sum_k o^(k) to sum_{ij} <nu_i|o|nu_j> beta+_i beta_j, where o is the
    (2m x 2m) one-body matrix over the single-molecule vibronic states
    (g-manifold then e-manifold) and beta_i are the molecule bosons.  Matrix
    elements carry the usual ladder factors sqrt(n_j) sqrt(n_i + 1).

    photon_shift = -1 multiplies every term by the photon annihilator
    (factor sqrt(n_ph)), which is how the light-matter terms B+_i b_j a are
    assembled; their conjugates are its transpose.
    Target states outside the basis are dropped: that is exactly the
    quasi-block truncation.
    """
    one_body = np.asarray(one_body)
    two_m = 2 * basis.m
    if one_body.shape != (two_m, two_m):
        raise ValueError(
            f"one-body matrix must be ({two_m}, {two_m}) for m={basis.m}, "
            f"got {one_body.shape}"
        )
    if photon_shift not in (-1, 0):
        raise ValueError(f"photon_shift must be -1 or 0, got {photon_shift}")

    nz_i, nz_j = np.nonzero(one_body)
    rows, cols, vals = [], [], []
    for jb, st in enumerate(basis.states):
        occ = occupations(st, basis.N, basis.m)
        if photon_shift == -1:
            if st.n_ph == 0:
                continue
            ph_fac = np.sqrt(st.n_ph)
        else:
            ph_fac = 1.0
        n_ph_new = st.n_ph + photon_shift
        for vi, vj in zip(nz_i, nz_j):
            nj = occ[vj]
            if nj == 0:
                continue
            if vi == vj:
                amp = one_body[vi, vj] * nj * ph_fac
                new_occ = occ
            else:
                amp = one_body[vi, vj] * np.sqrt(nj) * np.sqrt(occ[vi] + 1) * ph_fac
                lst = list(occ)
                lst[vj] -= 1
                lst[vi] += 1
                new_occ = tuple(lst)
            slots = tuple(k for k in range(1, two_m) for _ in range(new_occ[k]))
            target = SymState(slots, n_ph_new)
            ib = basis.index.get(target)
            if ib is None:
                continue
            rows.append(ib)
            cols.append(jb)
            vals.append(amp)

    dim = basis.dim
    out = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex).tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


def conserved_check(basis: SymBasis, H, max_quasi_jump: int = 1, tol: float = 1e-14) -> list[dict]:
    """Verify conservation laws on an assembled matrix.

    Every nonzero element must connect states with equal N and N_exc, and
    with |delta quasi| <= max_quasi_jump (1 for the full Hamiltonian, 0 for
    its collective part, which is block-diagonal).  Returns a list of
    violations; empty means the structure is as claimed.
    """
    H = sp.coo_matrix(H)
    m = basis.m
    violations = []
    for r, c, v in zip(H.row, H.col, H.data):
        if abs(v) <= tol:
            continue
        sa, sb = basis.states[r], basis.states[c]
        a, b = occupations(sa, basis.N, m), occupations(sb, basis.N, m)
        if sum(a) != sum(b):
            violations.append({"row": int(r), "col": int(c), "value": v, "reason": "N"})
        if sum(a[m:]) + sa.n_ph != sum(b[m:]) + sb.n_ph:
            violations.append({"row": int(r), "col": int(c), "value": v, "reason": "N_exc"})
        if abs(sum(a[1:m]) - sum(b[1:m])) > max_quasi_jump:
            violations.append({"row": int(r), "col": int(c), "value": v, "reason": "quasi"})
    return violations


def permutation_operator(basis: TensorBasis, perm: tuple[int, ...]) -> sp.csr_matrix:
    """Molecule-swap operator P_sigma: reorders the single-molecule registers."""
    rows = []
    for col, (nus, n_ph) in enumerate(basis.states):
        rows.append(basis.index[(tuple(nus[p] for p in perm), n_ph)])
    dim = basis.dim
    return sp.coo_matrix((np.ones(dim), (rows, np.arange(dim))), shape=(dim, dim)).tocsr()


def block(basis: SymBasis, H: sp.csr_matrix, p: int, q: int | None = None) -> np.ndarray:
    """Dense quasi sub-block (p, q) of H on basis; the diagonal block p when q is omitted."""
    q = p if q is None else q
    o = basis.offsets
    return H[o[p] : o[p + 1], o[q] : o[q + 1]].toarray()


def photon_survival(vs: VibronicStructure, cav: CavityParams, grid: TimeGrid) -> Trajectory:
    """Survival amplitude and norm of the bare photon state under the zeroth block."""
    H0 = build_H0(vs, cav)
    e0 = np.zeros(H0.shape[0])
    e0[0] = 1.0  # the photon state, also the photon-number diagonal
    return propagate(H0, e0, grid, kappa=cav.kappa, n_ph=e0)


def van_loan_matrix(vs: VibronicStructure, cav: CavityParams, scale: float) -> sp.csr_matrix:
    """[[H0, V, 0], [0, H1, V^T], [0, 0, H0]] as one real CSR matrix.

    H1 = I (x) A1 + diag(omega_g[2..m]) (x) I holds the sub-blocks H1k, and
    V = scale sqrt(N) [v02 ... v0m]: the photon column of sub-block k holds
    scale g_sqrt_n fc[:, k - 1].
    """
    m = vs.m
    H0 = build_H0(vs, cav)
    V = np.zeros((m + 1, (m - 1) * (m + 1)))
    V[1:, :: m + 1] = scale * cav.g_sqrt_n * vs.fc[:, 1:]
    H1 = None  # m = 1 has no sub-blocks
    if m > 1:
        eye = sp.identity(m + 1)
        H1 = sp.kron(sp.identity(m - 1), build_A1(vs, cav)) + sp.kron(sp.diags(vs.omega_g[1:]), eye)
    return sp.bmat([[H0, V, None], [None, H1, V.T], [None, None, H0]], format="csr")
