"""Brute-force reference solver on the distinguishable-molecule tensor basis.

Each of the N molecules keeps its own register over the 2m single-molecule
vibronic states (indices 0..m-1 ground manifold, m..2m-1 excited manifold),
plus a photon register restricted to the chosen excitation number.  The
Hamiltonian is assembled molecule by molecule in first quantization with
FC-dressed rotating-wave light-matter terms and handed, from the tensor
photon state, to the same steppers as the bosonized construction it
checks; the symmetrizer maps that construction's basis into the tensor
basis.  Exponential cost: this exists to validate, not to scale (hard cap
N <= 4).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cute import CavityParams
from .errors import DimensionGuardError
from .fockspace import SymBasis
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


def symmetrizer(basis: TensorBasis, sym_basis: SymBasis) -> sp.csr_matrix:
    """Isometry T from the symmetric basis into the tensor basis.

    Column s is the normalized bosonic symmetrization of sym state s, whose
    registers are N - len(slots) reservoir molecules (register 0) followed
    by its slots: every distinct arrangement of the registers enters with
    coefficient sqrt(prod n_nu! / N!), so that T+ T = 1 on the symmetric
    subspace.
    """
    import scipy.sparse as sp
    if sym_basis.N != basis.n_molecules or sym_basis.m != basis.m:
        raise ValueError("tensor and symmetric bases describe different systems")
    rows, cols, vals = [], [], []
    for s_idx, (slots, n_ph) in enumerate(sym_basis.states):
        registers = (0,) * (basis.n_molecules - len(slots)) + slots
        norm = math.sqrt(
            np.prod([math.factorial(registers.count(nu)) for nu in set(registers)])
            / math.factorial(basis.n_molecules)
        )
        for arrangement in set(itertools.permutations(registers)):
            t_idx = basis.index.get((arrangement, n_ph))
            if t_idx is None:
                continue
            rows.append(t_idx)
            cols.append(s_idx)
            vals.append(norm)
    return sp.coo_matrix(
        (vals, (rows, cols)), shape=(basis.dim, sym_basis.dim)
    ).tocsr()


def oracle_generator(vs: VibronicStructure, cav: CavityParams):
    """(H, psi0, n_ph) of the first excitation manifold of cav.n_molecules molecules.

    H is build_full_H's tensor-basis Hamiltonian, n_ph its photon-number
    diagonal and psi0 the photon state |g_1 ... g_1; 1>, the symmetrizer's
    lift of the symmetric photon state.  A task steps H from psi0 like any
    other generator.
    """
    H, basis = build_full_H(vs, cav, 1)
    psi0 = np.eye(1, basis.dim, basis.index[((0,) * cav.n_molecules, 1)]).ravel()
    return H, psi0, basis.photon_numbers()
