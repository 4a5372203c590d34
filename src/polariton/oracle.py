"""Brute-force reference solver on the distinguishable-molecule tensor basis.

Each of the N molecules keeps its own register over the 2m single-molecule
vibronic states (indices 0..m-1 ground manifold, m..2m-1 excited manifold),
plus a photon register restricted to the chosen excitation number.  The
Hamiltonian is assembled molecule by molecule in first quantization with
FC-dressed rotating-wave light-matter terms, propagated exactly, and
projected onto the permutation-symmetric subspace for comparison with the
bosonized construction.  Exponential cost: this exists to validate, not to
scale (hard cap N <= 4).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cute import CavityParams
from .dynamics import TimeGrid, Trajectory, propagate
from .errors import DimensionGuardError
from .fockspace import SymBasis, enumerate_basis
from .vibronic import VibronicStructure

N_CAP = 4
DIM_CAP = 1_000_000


@dataclass(frozen=True)
class TensorBasis:
    """Distinguishable-molecule product basis restricted to fixed N_exc."""

    n_molecules: int
    m: int
    n_exc: int
    states: tuple[tuple[tuple[int, ...], int], ...]  # (nu_1..nu_N, n_ph)
    index: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)

    def photon_numbers(self) -> np.ndarray:
        return np.array([n_ph for _, n_ph in self.states])


def tensor_basis(N: int, m: int, n_exc: int) -> TensorBasis:
    """Enumerate all product states with sum(excited) + n_ph = n_exc."""
    if not 1 <= N <= N_CAP:
        raise DimensionGuardError(f"tensor basis capped at N <= {N_CAP}, got N={N}")
    if (2 * m) ** N * (n_exc + 1) > DIM_CAP:
        raise DimensionGuardError(
            f"tensor space (2m)^N (n_ph+1) = {(2 * m) ** N * (n_exc + 1)} exceeds {DIM_CAP}"
        )
    states = []
    for nus in itertools.product(range(2 * m), repeat=N):
        n_up = sum(1 for nu in nus if nu >= m)
        n_ph = n_exc - n_up
        if n_ph >= 0:
            states.append((nus, n_ph))
    return TensorBasis(
        n_molecules=N,
        m=m,
        n_exc=n_exc,
        states=tuple(states),
        index={s: i for i, s in enumerate(states)},
    )


def build_full_H(
    vs: VibronicStructure, cav: CavityParams, n_exc: int
) -> tuple[sp.csr_matrix, TensorBasis]:
    """First-quantized Hamiltonian of cav.n_molecules molecules (rotating wave).

    H = omega_c a+a + sum_i (vibronic energies) + g sum_i (FC-dressed
    raising x photon annihilation + h.c.).  Returns the sparse matrix and
    its basis.
    """
    import scipy.sparse as sp
    if cav.is_infinite:
        raise ValueError("brute-force oracle requires finite N")
    if n_exc > 2:
        raise ValueError(f"oracle restricted to N_exc <= 2, got {n_exc}")
    m = vs.m
    basis = tensor_basis(cav.n_molecules, m, n_exc)
    eps = np.concatenate([vs.omega_g, vs.omega_e])

    diag = np.array(
        [cav.omega_c * n_ph + sum(eps[nu] for nu in nus) for nus, n_ph in basis.states]
    )
    rows, cols, vals = [], [], []
    g = cav.g
    for col, (nus, n_ph) in enumerate(basis.states):
        if n_ph == 0 or g == 0.0:
            continue
        root_ph = math.sqrt(n_ph)
        for site, nu in enumerate(nus):
            if nu >= m:
                continue  # already excited; the h.c. handles de-excitation
            for l in range(m):
                fc = vs.fc[l, nu]
                if fc == 0.0:
                    continue
                tgt = list(nus)
                tgt[site] = m + l
                row = basis.index[(tuple(tgt), n_ph - 1)]
                rows.append(row)
                cols.append(col)
                vals.append(g * fc * root_ph)

    M = sp.coo_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim)).tocsr()
    H = sp.diags(diag, format="csr") + M + M.T
    H.sum_duplicates()
    H.sort_indices()
    return H, basis


def permutation_operator(basis: TensorBasis, perm: tuple[int, ...]) -> sp.csr_matrix:
    """Molecule-swap operator P_sigma: reorders the single-molecule registers."""
    import scipy.sparse as sp
    rows = []
    for col, (nus, n_ph) in enumerate(basis.states):
        rows.append(basis.index[(tuple(nus[p] for p in perm), n_ph)])
    dim = basis.dim
    return sp.coo_matrix((np.ones(dim), (rows, np.arange(dim))), shape=(dim, dim)).tocsr()


def symmetrizer(basis: TensorBasis, sym_basis: SymBasis) -> sp.csr_matrix:
    """Isometry T from the symmetric basis into the tensor basis.

    Column s is the normalized bosonic symmetrization of the occupations of
    sym state s: every distinct arrangement of the molecule registers enters
    with coefficient sqrt(prod n_nu! / N!), so that T+ T = 1 on the
    symmetric subspace.
    """
    import scipy.sparse as sp
    if sym_basis.N != basis.n_molecules or sym_basis.m != basis.m:
        raise ValueError("tensor and symmetric bases describe different systems")
    rows, cols, vals = [], [], []
    for s_idx, st in enumerate(sym_basis.states):
        occ = st.matter
        norm = math.sqrt(
            np.prod([math.factorial(n) for n in occ]) / math.factorial(basis.n_molecules)
        )
        registers = [nu for nu, n in enumerate(occ) for _ in range(n)]
        for arrangement in set(itertools.permutations(registers)):
            t_idx = basis.index.get((arrangement, st.n_ph))
            if t_idx is None:
                continue
            rows.append(t_idx)
            cols.append(s_idx)
            vals.append(norm)
    return sp.coo_matrix(
        (vals, (rows, cols)), shape=(basis.dim, sym_basis.dim)
    ).tocsr()


def symmetrize(obj, basis: TensorBasis, sym_basis: SymBasis):
    """Project a tensor-basis state (1d) or operator (2d) onto the symmetric subspace.

    Returns (T, projected) where T is the isometry from symmetrizer(); the
    projection is T+ psi for states and T+ H T for operators.
    """
    import scipy.sparse as sp
    T = symmetrizer(basis, sym_basis)
    if not sp.issparse(obj):
        obj = np.asarray(obj)
    if obj.ndim == 1:
        return T, T.conj().T @ obj
    if obj.ndim == 2:
        return T, T.conj().T @ (sp.csr_matrix(obj) @ T)
    raise ValueError("symmetrize expects a vector or a matrix")


def oracle_survival(
    vs: VibronicStructure,
    cav: CavityParams,
    psi0_sym: np.ndarray,
    grid: TimeGrid,
) -> Trajectory:
    """Exact survival amplitude with psi0 given on the symmetric basis.

    psi0 lives in the first excitation manifold.  The symmetric state is
    lifted into the tensor basis through the symmetrizer isometry and
    propagated under the full distinguishable-molecule Hamiltonian, with
    photon leakage cav.kappa.
    """
    H, basis = build_full_H(vs, cav, 1)
    sym_basis = enumerate_basis(cav.n_molecules, 1, vs.m, q_max=cav.n_molecules)
    psi0_sym = np.asarray(psi0_sym, dtype=complex)
    if psi0_sym.shape != (sym_basis.dim,):
        raise ValueError(
            f"psi0_sym must have the symmetric-basis dimension {sym_basis.dim}, "
            f"got {psi0_sym.shape}"
        )
    T = symmetrizer(basis, sym_basis)
    psi0 = T @ psi0_sym
    traj = propagate(H, psi0, grid, kappa=cav.kappa, n_ph=basis.photon_numbers())
    traj.params["basis"] = "tensor"
    return traj
