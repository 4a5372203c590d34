"""Assembly of the collective/single-molecule partitioned Hamiltonians.

The cavity couples to the bright combination of all N molecules with the
collective strength g*sqrt(N), while processes that leave vibrational quanta
on ground-electronic molecules carry only the single-molecule g.  In the
symmetric basis ordered by the quasi index this gives a block-tridiagonal
matrix: dense diagonal blocks H_q holding all collective couplings, and thin
off-diagonal couplings v_q of strength g between neighbouring blocks.

This module builds

  * the (m+1) x (m+1) zeroth block H0 (photon + singly-excited states), the
    whole CUT-E order-0 model at any N and the entire N = infinity problem,
  * the arrowhead A1 shared by its quasi = 1 sub-blocks H1k = A1 + omega_g[k] I
    (coupling g*sqrt(N-1)) and the single-molecule coupling matrices v0k,
  * one bosonized assembler, assemble_truncated (reservoir eliminated, every
    element smooth in 1/N): the truncated block Hamiltonian of any
    excitation manifold n_exc at any order q_max, whose q_max = 0 case is
    the zero-temperature high-excitation ladder (sectors of descending
    photon number).  The hand-written forms above are regression fixtures,
  * the first-manifold truncation at any q_max as a TruncatedGenerator
    (truncated_generator): the same Hamiltonian in the same state order,
    applied from its coefficients with numpy alone.  This is what the CLI
    steps for every finite-N method of order q >= 1; the bosonized
    assembler is its reference, and the one route to n_exc >= 2.  The 1/N
    layer's Van Loan generator is a TruncatedGenerator too, whose
    couplings act one way.

Both assemblers return (basis, H): the SymBasis, whose offsets bound the
quasi blocks (block q spans offsets[q]:offsets[q + 1]) and whose
photon_numbers() is the leakage diagonal, and the whole matrix as one real
sparse CSR matrix.  No dense copy is made.

N = infinity is a first-class sentinel (math.inf), simply 1/N = 0 in every
builder: the single-molecule g and every inter-block coupling vanish,
reservoir factors are 1.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .fockspace import SymBasis, enumerate_basis, guarded_basis_size
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
    scale = math.sqrt(1.0 - 1.0 / cav.n_molecules)  # 1 at N = inf, where 1/N = 0
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
    re-emits the cavity photon.  At N = infinity g = 0 and v0k is zero.
    """
    m = vs.m
    if not 2 <= k <= m:
        raise ValueError(f"k must be in 2..{m}, got {k}")
    v = np.zeros((m + 1, m + 1))
    v[1:, 0] = cav.g * vs.fc[:, k - 1]
    return v


def hamiltonian_matrix(vs: VibronicStructure, cav: CavityParams, basis: SymBasis) -> sp.csr_matrix:
    """Bosonized Hamiltonian on a symmetric basis, smooth in 1/N.

    The vibrational-ground-state reservoir g_1 is eliminated (Holstein-
    Primakoff): a state lists only the slots of the molecules outside it,
    and n_k counts the molecules in slot k.  Diagonal: omega_c n_ph +
    sum_k w[k] n_k over the distinct slots in ascending order, with w the
    slot energies omega_g then omega_e.  Absorbing the photon, g_1 -> e_i
    carries g_sqrt_n sqrt(1 - len(slots)/N) fc[i, 0] sqrt(n_{m+i} + 1)
    sqrt(n_ph), and g_k -> e_i, 0 < k < m, carries g sqrt(n_k) in place of
    the reservoir factor; the target is slots with one k removed and m + i
    inserted.  Conjugates are the transpose; a target outside the basis
    (an empty reservoir) is dropped.
    """
    import scipy.sparse as sp
    m = vs.m
    w, fc = np.concatenate([vs.omega_g, vs.omega_e]).tolist(), vs.fc.T.tolist()
    g, inv_n = cav.g, 1.0 / cav.n_molecules  # both 0.0 at N = inf
    diag, rows, cols, vals = [], [], [], []
    for src, (slots, n_ph) in enumerate(basis.states):
        occ = {k: slots.count(k) for k in slots}  # ascending slots -> molecules
        diag.append(cav.omega_c * n_ph + sum(w[k] * n for k, n in occ.items()))
        if n_ph == 0:
            continue
        hops = [(0, slots, cav.g_sqrt_n * math.sqrt(1.0 - len(slots) * inv_n))]
        for k, n in occ.items():
            if k < m and g:  # g = 0 makes every single-molecule hop an exact zero
                j = slots.index(k)
                hops.append((k, slots[:j] + slots[j + 1 :], g * math.sqrt(n)))
        ph = math.sqrt(n_ph)
        for k, rest, amp in hops:
            for i in range(m):
                j = bisect.bisect(rest, m + i)
                # a plain tuple hashes and compares equal to its SymState
                tgt = basis.index.get((rest[:j] + (m + i,) + rest[j:], n_ph - 1))
                if tgt is not None:
                    rows.append(tgt)
                    cols.append(src)
                    vals.append(amp * fc[k][i] * math.sqrt(rest.count(m + i) + 1) * ph)
    M = sp.coo_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim))
    return (sp.diags(diag) + M + M.T).tocsr()


def assemble_truncated(
    vs: VibronicStructure, cav: CavityParams, q_max: int, n_exc: int = 1
) -> tuple[SymBasis, sp.csr_matrix]:
    """(basis, H) of the n_exc manifold at CUT-E order q_max.

    The quasi <= min(q_max, N) basis and its sparse Hamiltonian, block
    tridiagonal in quasi.  Order 0 keeps collective coupling only: build_H0
    at n_exc = 1, and above it the zero-temperature ladder of i photons
    plus n_exc - i excited molecules in sectors of descending photon number
    (basis.photon_numbers()).  Order 1 admits one action pair of the
    single-molecule coupling, and so on.  At N = infinity g = 0, so every
    inter-block coupling is exactly 0.
    """
    if n_exc < 1:
        raise ValueError(f"n_exc must be >= 1, got {n_exc}")
    if cav.n_molecules < n_exc:
        raise ValueError(f"need N >= N_exc, got N={cav.n_molecules}, N_exc={n_exc}")
    basis = enumerate_basis(cav.n_molecules, n_exc, vs.m, min(q_max, cav.n_molecules))
    H = hamiltonian_matrix(vs, cav, basis)
    defect = abs(H - H.T).max()
    if defect > HERMITICITY_TOL:
        raise RuntimeError(f"assembled Hamiltonian not Hermitian: defect {defect:.3e}")
    return basis, H


class TruncatedGenerator:
    """The n_exc = 1 CUT-E Hamiltonian, or c (H - diag(shift)), in k-major form.

    A quasi-q state is an excitation a in {photon, e_1..e_m} times a
    multiset S of q ground levels 2..m.  Block q is an n_S(q) x (m+1) array
    (row S in colex order, column a, the photon first), flattened row by
    row; at q = N it holds the photon column alone.  This is the state
    order of fockspace.enumerate_basis.  The Hamiltonian is applied from its
    coefficients, with no SymState and no hashing: the diagonal, the
    arrowhead column r_q fc[:, 0] of each block (r_q = g_sqrt_n sqrt(1 - q/N)), and the couplings
    g sqrt(n_k(S)) fc[i, k] of photon(S) to e_i(S - k), one gather, one
    scatter and two products with fc[:, 1:].  Each coupling is stored once
    and applied twice: e_i(S') reads photon(S' + k), and photon(S' + k)
    reads e_i of row S' + src.  With src = 0, as truncated_generator builds
    it, H = H^T and every scaled copy is complex symmetric; the 1/N layer's
    Van Loan generator reads another row.

    The steppers use shape, diagonal(), photon_numbers, offsets (block q
    spans offsets[q]:offsets[q + 1]), v -> A @ v, toarray() for the dense
    path, scaled(c, shift) for the Krylov path's pre-scaled operator, abs()
    for its row-sum bound, data, every stored coefficient, for the
    finite-entry check and symmetric (src == 0) for autocorrelation.
    """

    def __init__(self, diag, r, x, G, up, amp, src, top, offsets):
        self._diag, self._r, self._x, self._G = diag, r, x, G  # the coefficients
        self._rx = np.multiply.outer(r, x)  # each row's arrowhead column r_q x
        self._up, self._amp = up, amp  # photon row of S' + k and g sqrt(n_k), per (S', k)
        self._src = src  # photon(S' + k) reads e_i of row S' + src
        self.symmetric = src == 0
        self._top = top  # rows of a photon-only block q = N
        self.offsets = offsets
        self.shape = (int(offsets[-1]),) * 2

    def _rows(self, v):
        """The (rows, m + 1) array of a vector, zero on a photon-only block's excitations."""
        if not self._top:
            return v.reshape(len(self._diag), -1)
        X = np.zeros(self._diag.shape, dtype=v.dtype)
        cut = v.size - self._top
        X[: -self._top] = v[:cut].reshape(-1, X.shape[1])
        X[-self._top :, 0] = v[cut:]
        return X

    def _flat(self, Y):
        if not self._top:
            return Y.reshape(-1)
        return np.concatenate([Y[: -self._top].reshape(-1), Y[-self._top :, 0]])

    def __matmul__(self, v):
        # x and the rows of G are zero on the photon column, so every product
        # runs over whole contiguous rows
        X = self._rows(np.asarray(v))
        photon = X[:, 0]
        Y = self._diag * X
        Y[:, 0] += self._r * (X @ self._x)
        Y += self._rx * photon[:, None]
        if self._up.size:
            lo, src = len(self._up), self._src
            Y[:lo] += (self._amp * photon[self._up]) @ self._G.T
            hop = (X[src : src + lo] @ self._G) * self._amp  # e_i(S' + src) -> photon(S' + k)
            np.add.at(Y[:, 0], self._up, hop)
        return self._flat(Y)

    def _like(self, diag, x, G):
        up, amp, src = self._up, self._amp, self._src
        return TruncatedGenerator(diag, self._r, x, G, up, amp, src, self._top, self.offsets)

    def scaled(self, c, shift):
        """c (H - diag(shift)) in the same layout, one application per product."""
        shift = self._rows(np.broadcast_to(shift, self.shape[0]).astype(complex))
        return self._like(c * (self._diag - shift), c * self._x, c * self._G)

    def __abs__(self):
        return self._like(abs(self._diag), abs(self._x), abs(self._G))

    def diagonal(self):
        return self._flat(self._diag).copy()

    @property
    def photon_numbers(self):
        n_ph = np.zeros(self._diag.shape)
        n_ph[:, 0] = 1.0
        return self._flat(n_ph)

    @property
    def data(self):
        coefficients = (self._diag, self._r, self._x, self._G, self._amp)
        return np.concatenate([c.ravel() for c in coefficients])

    def toarray(self):
        return np.column_stack([self @ e for e in np.eye(self.shape[0])])


def truncated_generator(vs: VibronicStructure, cav: CavityParams, q_max: int) -> TruncatedGenerator:
    """assemble_truncated's n_exc = 1 Hamiltonian as a TruncatedGenerator, numpy only.

    The states of assemble_truncated's basis, in the same order.  Its size
    is basis_size(N, 1, m, min(q_max, N)), checked against BASIS_SIZE_CAP
    before anything is allocated.  Each block is built from the one before.
    In colex order block q lists, for each level k, T + k for the first
    P(k) multisets T of block q - 1, those whose largest level K(T) is
    <= k; so T + k sits at row start(k) + T.  For K(T) > k instead, T + k = U + K with
    U = (T - K) + k, whose row in block q - 1 the coupling table of block
    q - 1 already holds (T - K is in block q - 2): each table follows from
    the one before, with no search.
    """
    N, m = cav.n_molecules, vs.m
    q_top = min(q_max, N)
    guarded_basis_size(N, 1, m, q_top)
    levels = np.arange(m - 1)  # ground levels 2..m
    # Block q - 1 as the loop finds it: the largest level K of each multiset
    # (-1 for block 0's empty one, so every T + k is in order), the row
    # `drop` of T - K in block q - 2, the row `up` of T + k in block q - 1
    # for each row T of block q - 2, and the count of each level in T.
    K, drop, up = np.array([-1]), np.zeros(1, int), np.zeros((1, m - 1), int)
    count = np.zeros((1, m - 1))
    energy, sizes = [np.zeros(1)], [1]
    ups, amps = [np.zeros((0, m - 1), int)], [np.zeros((0, m - 1))]
    for q in range(1, q_top + 1):
        P = np.searchsorted(K, levels, side="right")
        start = np.concatenate([[0], np.cumsum(P)])
        rows = np.arange(len(K))[:, None]
        up = np.where(levels >= K[:, None], start[levels] + rows, start[K][:, None] + up[drop])
        ups.append(up + sum(sizes))
        amps.append(cav.g * np.sqrt(count + 1.0))
        K = np.repeat(levels, P)
        drop = np.arange(start[-1]) - start[K]
        energy.append(energy[-1][drop] + vs.omega_g[1 + K])
        sizes.append(start[-1])
        if q < q_top:
            count = count[drop]
            count[np.arange(len(K)), K] += 1.0
    inv_n = 1.0 / N
    r = np.repeat([cav.g_sqrt_n * math.sqrt(1.0 - q * inv_n) for q in range(q_top + 1)], sizes)
    diag = np.add.outer(np.concatenate(energy), np.r_[cav.omega_c, vs.omega_e])
    top = sizes[-1] if q_top == N else 0
    offsets = np.r_[0, np.cumsum(sizes)] * (m + 1)
    offsets[-1] -= top * m  # a photon-only block q = N
    fc = np.vstack([np.zeros(m), vs.fc])  # row 0, the photon, couples to nothing
    up, amp = np.concatenate(ups), np.concatenate(amps)
    return TruncatedGenerator(diag, r, fc[:, 0], fc[:, 1:], up, amp, 0, top, offsets)

