"""Assembly of the collective/single-molecule partitioned Hamiltonians.

The cavity couples to the bright combination of all N molecules with the
collective strength g*sqrt(N), while processes that leave vibrational quanta
on ground-electronic molecules carry only the single-molecule g.  In the
symmetric basis ordered by the quasi index this gives a block-tridiagonal
matrix: dense diagonal blocks H_q holding all collective couplings, and thin
off-diagonal couplings v_q of strength g between neighbouring blocks.

This module builds

  * the (m+1) x (m+1) zeroth block H0 (photon + singly-excited states),
  * the arrowhead A1 shared by its quasi = 1 sub-blocks H1k = A1 + omega_g[k] I
    (coupling g*sqrt(N-1)) and the single-molecule coupling matrices v0k,
  * one bosonized assembler (reservoir eliminated, every element smooth in
    1/N) behind the truncated block Hamiltonian at any order q_max and the
    zero-temperature high-excitation ladder (quasi = 0, blocks indexed by
    photon number).  The hand-written forms above are regression fixtures,
    and fockspace.map_operator is the generic reference.

Both assemblers return a BlockHamiltonian with four fields: the whole
matrix as one real sparse CSR `matrix`, block `offsets` (block q spans
offsets[q]:offsets[q + 1]), the photon number of every state and, for
finite-N truncations, the SymBasis.  No dense copy is made.

N = infinity is a first-class sentinel (math.inf), simply 1/N = 0: the
single-molecule g and every inter-block coupling vanish, reservoir factors are 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, islice

import numpy as np

from .fockspace import SymBasis, SymState, enumerate_basis
from .vibronic import VibronicStructure

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class CavityParams:
    """Cavity frequency, collective coupling and molecule number.

    g_sqrt_n is the collective coupling g*sqrt(N), the quantity held fixed as
    N grows; the single-molecule g = g_sqrt_n / sqrt(N) is derived (zero at
    N = infinity).  kappa is the cavity amplitude leakage rate.
    """

    omega_c: float
    g_sqrt_n: float
    n_molecules: float
    kappa: float = 0.0

    def __post_init__(self):
        for name in ("omega_c", "g_sqrt_n", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.g_sqrt_n < 0:
            raise ValueError(f"g_sqrt_n must be >= 0, got {self.g_sqrt_n}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        N = self.n_molecules
        if N != math.inf:
            if not N >= 1 or N != int(N):  # also rejects nan and -inf
                raise ValueError(f"n_molecules must be a positive integer or inf, got {N}")
            object.__setattr__(self, "n_molecules", int(N))

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.n_molecules)

    @property
    def g(self) -> float:
        """Single-molecule coupling g_sqrt_n / sqrt(N); zero in the N->inf limit."""
        return self.g_sqrt_n / math.sqrt(self.n_molecules)


@dataclass(frozen=True)
class BlockHamiltonian:
    """Block-tridiagonal Hamiltonian held as one real sparse CSR matrix.

    Block q spans rows and columns offsets[q]:offsets[q + 1]; sub-block
    (p, q) is nonzero only for |p - q| <= 1.  photon_numbers holds the
    photon number of every state (the leakage diagonal); basis is the
    underlying SymBasis for finite-N truncations (None otherwise).
    """

    matrix: sp.csr_matrix
    offsets: np.ndarray
    photon_numbers: np.ndarray
    basis: SymBasis | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def block(self, p: int, q: int | None = None) -> np.ndarray:
        """Dense sub-block (p, q); the diagonal block p when q is omitted."""
        q = p if q is None else q
        o = self.offsets
        return self.matrix[o[p] : o[p + 1], o[q] : o[q + 1]].toarray()


def build_H0(vs: VibronicStructure, cav: CavityParams) -> np.ndarray:
    """Zeroth block over {|1>, |e_1>, ..., |e_m>}: the collective arrowhead.

    H[0, 0] = omega_c, H[0, i] = g*sqrt(N) <phi_g_1|phi_e_i>, H[i, i] =
    omega_e_i.  Exact at any N (the bright channel always carries the full
    sqrt(N)); this matrix alone is the entire problem in the N->inf limit.
    """
    m = vs.m
    H = np.zeros((m + 1, m + 1))
    H[0, 0] = cav.omega_c
    H[0, 1:] = cav.g_sqrt_n * vs.fc[:, 0]
    H[1:, 0] = H[0, 1:]
    H[np.arange(1, m + 1), np.arange(1, m + 1)] = vs.omega_e
    return H


def build_A1(vs: VibronicStructure, cav: CavityParams) -> np.ndarray:
    """The arrowhead shared by every quasi = 1 sub-block, H1k = A1 + omega_g[k] I.

    H0 with the collective coupling reduced to g*sqrt(N-1): one ground-state
    molecule holds the phonon and drops out of the bright combination.  At
    N = infinity A1 = H0.
    """
    A = build_H0(vs, cav)
    if not cav.is_infinite:
        N = cav.n_molecules
        scale = math.sqrt((N - 1) / N)
        A[0, 1:] *= scale
        A[1:, 0] *= scale
    return A


def build_H1k(vs: VibronicStructure, cav: CavityParams, k: int) -> np.ndarray:
    """Quasi = 1 sub-block over {|g_k 1>, |g_k e_1>, ..., |g_k e_m>}.

    build_A1 with every diagonal entry shifted by omega_g[k] (the phonon
    parked on one ground-state molecule).  k is the 1-based vibronic index,
    k >= 2; at N = infinity this is exactly H0 + omega_g[k] * I.
    """
    m = vs.m
    if not 2 <= k <= m:
        raise ValueError(f"k must be in 2..{m}, got {k}")
    H = build_A1(vs, cav)
    H[np.diag_indices_from(H)] += vs.omega_g[k - 1]
    return H


def build_v0k(vs: VibronicStructure, cav: CavityParams, k: int) -> np.ndarray:
    """Single-molecule coupling between the zeroth block and sub-block 1_k.

    Rows are zeroth-block states, columns sub-block-1_k states; the only
    nonzero column is the photon-type |g_k 1>, entry
    (i, 0) = g <phi_e_i|phi_g_k>: the molecule holding the phonon absorbs or
    re-emits the cavity photon.  Requires finite N (otherwise g = 0 and no
    single-molecule channel exists).
    """
    m = vs.m
    if not 2 <= k <= m:
        raise ValueError(f"k must be in 2..{m}, got {k}")
    if cav.is_infinite:
        raise ValueError("no single-molecule coupling at N = infinity")
    v = np.zeros((m + 1, m + 1))
    v[1:, 0] = cav.g * vs.fc[:, k - 1]
    return v


def hamiltonian_matrix(vs: VibronicStructure, cav: CavityParams, basis: SymBasis) -> sp.csr_matrix:
    """Bosonized Hamiltonian on a symmetric basis, smooth in 1/N.

    The vibrational-ground-state reservoir g_1 is eliminated (Holstein-
    Primakoff): no amplitude reads its occupation n_g[0].  Diagonal: omega_c
    n_ph + sum_{k>1} omega_g[k] n_g[k] + sum_i omega_e[i] n_e[i].  Absorbing
    the photon, g_1 -> e_i carries g_sqrt_n sqrt(1 - n_out/N) fc[i, 0]
    sqrt(n_e[i] + 1) sqrt(n_ph) (n_out: molecules outside the reservoir) and
    g_k -> e_i, k > 1, carries g sqrt(n_g[k]) in its place.  Conjugates are
    the transpose; out-of-basis targets (quasi > q_max) are dropped.
    """
    import scipy.sparse as sp
    m = vs.m
    w, fc = np.concatenate([vs.omega_g, vs.omega_e]).tolist(), vs.fc.T.tolist()
    inv_n = 1.0 / cav.n_molecules  # 0.0 at N = inf
    diag, rows, cols, vals = [], [], [], []
    for src, s in enumerate(basis.states):
        # occupied modes outside the reservoir: g_2..g_m, then e_1..e_m
        matter = s.matter
        occ = [(k, matter[k]) for k in compress(range(1, 2 * m), islice(matter, 1, None))]
        diag.append(cav.omega_c * s.n_ph + sum(w[k] * n for k, n in occ))
        if s.n_ph == 0:
            continue
        n_out = sum(n for _, n in occ)
        hops = [(0, cav.g_sqrt_n * math.sqrt(1.0 - n_out * inv_n))]
        hops += [(k, cav.g * math.sqrt(n)) for k, n in occ if k < m]
        ph = math.sqrt(s.n_ph)
        for k, amp in hops:
            n_g = s.n_g[:k] + (s.n_g[k] - 1,) + s.n_g[k + 1 :]
            for i in range(m):
                n_e = s.n_e[:i] + (s.n_e[i] + 1,) + s.n_e[i + 1 :]
                tgt = basis.index.get(SymState(n_g, n_e, s.n_ph - 1))
                if tgt is not None:
                    rows.append(tgt)
                    cols.append(src)
                    vals.append(amp * fc[k][i] * math.sqrt(n_e[i]) * ph)
    M = sp.coo_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim))
    return (sp.diags(diag) + M + M.T).tocsr()


def _assemble(vs: VibronicStructure, cav: CavityParams, n_exc: int, q_max: int):
    """Basis and Hamiltonian of the n_exc manifold at quasi <= q_max.

    Outside the reservoir the state list is the same for every
    N >= n_exc + q_max, so N = infinity enumerates at that N.
    """
    N = n_exc + q_max if cav.is_infinite else cav.n_molecules
    basis = enumerate_basis(N, n_exc, vs.m, q_max)
    H = hamiltonian_matrix(vs, cav, basis)
    defect = abs(H - H.T).max()
    if defect > HERMITICITY_TOL:
        raise RuntimeError(f"assembled Hamiltonian not Hermitian: defect {defect:.3e}")
    return basis, H


def assemble_truncated(vs: VibronicStructure, cav: CavityParams, q_max: int) -> BlockHamiltonian:
    """Truncated block Hamiltonian at CUT-E order q_max (first excitation manifold).

    Enumerate the quasi <= q_max basis and keep the assembled sparse
    Hamiltonian as is.  Order 0 keeps collective coupling only; order 1
    admits one action pair of the single-molecule coupling, and so on.

    N = infinity: only q_max = 0 is assembled (the single block H0) and no
    basis is returned.  The q >= 1 blocks are decoupled shifted copies of H0
    that no photon-initial state reaches, so higher orders raise ValueError.
    """
    if q_max < 0:
        raise ValueError(f"q_max must be >= 0, got {q_max}")
    if cav.is_infinite and q_max > 0:
        raise ValueError(f"at N = infinity only q_max = 0 couples to the photon, got {q_max}")
    q_eff = min(q_max, cav.n_molecules)
    basis, H = _assemble(vs, cav, 1, q_eff)
    return BlockHamiltonian(
        matrix=H,
        offsets=basis.offsets,
        photon_numbers=basis.photon_numbers(),
        basis=None if cav.is_infinite else basis,
    )


def assemble_high_excitation(vs: VibronicStructure, cav: CavityParams, n_exc: int) -> BlockHamiltonian:
    """Zero-temperature quasi = 0 Hamiltonian of the N_exc excitation manifold.

    All ground-electronic molecules stay in their vibrational ground state;
    basis states carry i photons plus N_exc - i excited molecules spread over
    the m excited vibronic states.  Blocks are indexed by descending photon
    number (i = N_exc first); the collective coupling between neighbouring
    blocks carries the photon factor sqrt(i), the matter factor
    sqrt(n_e + 1) and the reservoir factor sqrt(1 - (N_exc - i)/N), which is
    1 at N = infinity.
    """
    if n_exc < 1:
        raise ValueError(f"n_exc must be >= 1, got {n_exc}")
    if cav.n_molecules < n_exc:
        raise ValueError(f"need N >= N_exc, got N={cav.n_molecules}, N_exc={n_exc}")
    basis, H = _assemble(vs, cav, n_exc, 0)
    n_ph = basis.photon_numbers()
    offsets = np.r_[0, np.flatnonzero(np.diff(n_ph)) + 1, basis.dim]  # photon sectors
    return BlockHamiltonian(matrix=H, offsets=offsets, photon_numbers=n_ph)
