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
  * the truncated block Hamiltonian at any order q_max from the generic
    second-quantized mapping (the hand-written forms above are regression
    fixtures, not the source of truth),
  * the zero-temperature high-excitation ladder (blocks indexed by photon
    number at quasi = 0).

Both assemblers return a BlockHamiltonian with four fields: the whole
matrix as one real sparse CSR `matrix`, block `offsets` (block q spans
offsets[q]:offsets[q + 1]), the photon number of every state and, for
finite-N truncations, the SymBasis.  No dense copy is made.

N = infinity is a first-class sentinel (math.inf): inter-block couplings
vanish identically and collective factors sqrt(N - q)/sqrt(N) become 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionGuardError
from .fockspace import SymBasis, _compositions_desc, enumerate_basis, map_operator
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
        if self.is_infinite:
            return 0.0
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
    """Full second-quantized Hamiltonian on a symmetric basis.

    omega_c a+a + sum_i omega_g_i b+_i b_i + sum_i omega_e_i B+_i B_i
    + g sum_ij fc[i, j] (B+_i b_j a + h.c.), assembled from the generic
    one-body mapping with exact bosonic factors.  Truncation to the basis
    (quasi <= q_max) happens by dropping out-of-basis targets.
    """
    if cav.is_infinite:
        raise ValueError("occupation-number assembly needs finite N; use the N=inf builders")
    m = vs.m
    diag_matter = np.diag(np.concatenate([vs.omega_g, vs.omega_e]))
    H = map_operator(diag_matter, basis)
    H += sp.diags([cav.omega_c * s.n_ph for s in basis.states], format="csr", dtype=complex)
    raise_op = np.zeros((2 * m, 2 * m))
    raise_op[m:, :m] = vs.fc
    M = cav.g * map_operator(raise_op, basis, photon_shift=-1)
    H = H + M + M.conj().T.tocsr()
    H.sum_duplicates()
    H.sort_indices()
    return H


def assemble_truncated(vs: VibronicStructure, cav: CavityParams, q_max: int) -> BlockHamiltonian:
    """Truncated block Hamiltonian at CUT-E order q_max (first excitation manifold).

    Finite N: enumerate the quasi <= q_max basis and keep the mapped sparse
    Hamiltonian as is.  Order 0 keeps collective coupling only; order 1
    admits one action pair of the single-molecule coupling, and so on.

    N = infinity: only q_max = 0 is assembled (the single block H0).  The
    q >= 1 blocks are decoupled shifted copies of H0 that no photon-initial
    state reaches, so higher orders raise ValueError.
    """
    if q_max < 0:
        raise ValueError(f"q_max must be >= 0, got {q_max}")
    m = vs.m

    if cav.is_infinite:
        if q_max > 0:
            raise ValueError(
                f"at N = infinity only q_max = 0 couples to the photon, got q_max = {q_max}"
            )
        photon_numbers = np.zeros(m + 1, dtype=int)
        photon_numbers[0] = 1
        return BlockHamiltonian(
            matrix=sp.csr_matrix(build_H0(vs, cav)),
            offsets=np.array([0, m + 1]),
            photon_numbers=photon_numbers,
        )

    N = int(cav.n_molecules)
    q_eff = min(q_max, N)
    basis = enumerate_basis(N, 1, m, q_eff)
    H = hamiltonian_matrix(vs, cav, basis).real
    defect = abs(H - H.T).max()
    if defect > HERMITICITY_TOL:
        raise RuntimeError(f"assembled Hamiltonian not Hermitian: defect {defect:.3e}")

    return BlockHamiltonian(
        matrix=H,
        offsets=np.array([basis.block_slice(q).start for q in range(q_eff + 1)] + [basis.dim]),
        photon_numbers=basis.photon_numbers(),
        basis=basis,
    )


def assemble_high_excitation(
    vs: VibronicStructure, cav: CavityParams, n_exc: int, size_cap: int = 200_000
) -> BlockHamiltonian:
    """Zero-temperature quasi = 0 Hamiltonian of the N_exc excitation manifold.

    All ground-electronic molecules stay in their vibrational ground state;
    basis states carry i photons plus N_exc - i excited molecules spread over
    the m excited vibronic states.  Blocks are indexed by descending photon
    number (i = N_exc first); the collective coupling between neighbouring
    blocks carries the photon factor sqrt(i), the matter factor
    sqrt(n_e + 1) and, at finite N, the occupation factor
    sqrt((N - n_exc_matter)/N) which tends to 1 as N -> infinity.
    """
    if n_exc < 1:
        raise ValueError(f"n_exc must be >= 1, got {n_exc}")
    m = vs.m
    N = cav.n_molecules
    if not cav.is_infinite and N < n_exc:
        raise ValueError(f"need N >= N_exc, got N={N}, N_exc={n_exc}")

    sector_states = []
    for i in range(n_exc, -1, -1):
        confs = list(_compositions_desc(n_exc - i, m))
        sector_states.append([(i, conf) for conf in confs])
        if sum(len(s) for s in sector_states) > size_cap:
            raise DimensionGuardError(f"high-excitation basis exceeds cap {size_cap}")

    offsets = np.cumsum([0] + [len(sector) for sector in sector_states])
    diag = [
        cav.omega_c * i + float(np.dot(conf, vs.omega_e))
        for sector in sector_states
        for i, conf in sector
    ]
    rows, cols, vals = [], [], []
    for p in range(n_exc):
        upper = sector_states[p]      # i photons
        lower = sector_states[p + 1]  # i - 1 photons, one more excited molecule
        lower_index = {conf: offsets[p + 1] + a for a, (_, conf) in enumerate(lower)}
        for b, (i, conf) in enumerate(upper):
            n_matter = n_exc - i
            if cav.is_infinite:
                occ_fac = 1.0
            else:
                occ_fac = math.sqrt((N - n_matter) / N)
            for j in range(m):
                tgt = list(conf)
                tgt[j] += 1
                a = lower_index.get(tuple(tgt))
                if a is None:
                    continue
                rows.append(offsets[p] + b)
                cols.append(a)
                vals.append(
                    cav.g_sqrt_n * vs.fc[j, 0] * math.sqrt(i) * math.sqrt(conf[j] + 1) * occ_fac
                )
    dim = int(offsets[-1])
    V = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim))
    H = (sp.diags(diag) + V + V.T).tocsr()
    photon_numbers = np.concatenate(
        [np.full(len(sector), sector[0][0] if sector else 0) for sector in sector_states]
    )
    return BlockHamiltonian(matrix=H, offsets=offsets, photon_numbers=photon_numbers)

