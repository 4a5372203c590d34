"""Permutation-symmetric many-body basis, ordered by quasi block.

N identical molecules are treated as bosons occupying the 2m single-molecule
vibronic states (m ground-surface states g_1..g_m followed by m
excited-surface states e_1..e_m), with the cavity photon as one more bosonic
register.  The vibrational-ground-state reservoir g_1 is eliminated
(bosonization): a basis state lists only the molecules outside it,

    |slots; n_ph>,   slots = (k_1 <= k_2 <= ...),

one slot per molecule, 1..m-1 for g_2..g_m and m..2m-1 for e_1..e_m, plus
the photon number.  The remaining N - len(slots) molecules sit in g_1.  Two
quantities are conserved exactly (molecule number N and excitation number
N_exc = #(excited slots) + n_ph); the number of vibrationally excited
ground-electronic molecules

    quasi = #(slots < m)

is conserved by the collective part of the Hamiltonian and changed by +-1 by
the single-molecule coupling, which makes the Hamiltonian block-tridiagonal
in quasi and motivates truncating the basis at quasi <= q_max.

The Hamiltonian itself is assembled on this basis by cute.hamiltonian_matrix;
cute.truncated_generator applies the same first-manifold Hamiltonian, in the
same state order, without enumerating it, its size checked by
guarded_basis_size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionGuardError

BASIS_SIZE_CAP = 500_000


class SymState(NamedTuple):
    """One basis state |slots; n_ph>.

    slots ascends and holds one entry per molecule outside the reservoir:
    1..m-1 for g_2..g_m, m..2m-1 for e_1..e_m.  The reservoir g_1 holds the
    other N - len(slots) molecules; N lives on the SymBasis.
    """

    slots: tuple[int, ...]
    n_ph: int


@dataclass(frozen=True)
class SymBasis:
    """Ordered symmetric basis at fixed (N, N_exc) truncated at quasi <= q_max.

    index maps each state to its position; block q (quasi = q) spans
    offsets[q]:offsets[q + 1].  N may be math.inf, where the reservoir
    never empties.
    """

    states: tuple[SymState, ...]
    N: int | float
    m: int
    index: dict[SymState, int] = field(repr=False)
    offsets: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)

    def photon_numbers(self) -> np.ndarray:
        return np.array([s.n_ph for s in self.states])


def basis_size(N: int, N_exc: int, m: int, q_max: int) -> int:
    """Number of states enumerate_basis(N, N_exc, m, q_max) builds.

    A sum over the molecular excitation count n <= min(N_exc, N): n
    excitations go on the m excited slots in C(n + m - 1, n) ways, and at
    most Q = min(q_max, N - n) quanta on the m - 1 vibrationally excited
    ground slots in as many ways as exactly Q go on those plus one slack
    slot, C(Q + m - 1, m - 1) (stars and bars; 1 when m = 1).
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N_exc < 0:
        raise ValueError(f"N_exc must be >= 0, got {N_exc}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0 <= q_max <= N:
        raise ValueError(f"q_max must be in [0, N], got {q_max}")
    return sum(
        math.comb(n + m - 1, n) * math.comb(min(q_max, N - n) + m - 1, m - 1)
        for n in range(min(N_exc, N) + 1)
    )


def guarded_basis_size(N: int, N_exc: int, m: int, q_max: int) -> int:
    """basis_size(N, N_exc, m, q_max); DimensionGuardError above BASIS_SIZE_CAP."""
    size = basis_size(N, N_exc, m, q_max)
    if size > BASIS_SIZE_CAP:
        raise DimensionGuardError(
            f"symmetric basis of {size} states exceeds cap {BASIS_SIZE_CAP} at "
            f"(N={N}, N_exc={N_exc}, m={m}, q_max={q_max})"
        )
    return size


def enumerate_basis(N: int, N_exc: int, m: int, q_max: int) -> SymBasis:
    """Enumerate all states with quasi <= q_max at fixed (N, N_exc).

    Ordering is deterministic: ascending quasi block; within block q the
    multisets S of q ground slots in colex order (sorted by the reversed
    tuple); each S followed by its sectors, photon-rich first, and each
    sector in ascending lexicographic excited slots.  Block 0 reads |1>,
    |e1>, ..., |em>, and at N_exc = 1 every block q lists photon(S), e_1(S),
    ..., e_m(S) per S (the photon alone at q = N), the row order of
    cute.truncated_generator.  N enters only through the condition that the
    molecules outside the reservoir fit, so the state list is the same for
    every N >= N_exc + q_max, N = inf included.  The size is checked against BASIS_SIZE_CAP
    before any state is built.
    """
    guarded_basis_size(N, N_exc, m, q_max)
    cwr = itertools.combinations_with_replacement
    excited = [list(cwr(range(m, 2 * m), n_up)) for n_up in range(N_exc + 1)]
    states: list[SymState] = []
    offsets = []
    for q in range(q_max + 1):
        offsets.append(len(states))
        for ground in sorted(cwr(range(1, m), q), key=lambda S: S[::-1]):
            for n_ph in range(N_exc, -1, -1):
                n_up = N_exc - n_ph
                if n_up + q > N:  # more molecules outside the reservoir than exist
                    continue
                states.extend(SymState(ground + e, n_ph) for e in excited[n_up])

    return SymBasis(
        states=tuple(states),
        N=N,
        m=m,
        index={s: i for i, s in enumerate(states)},
        offsets=np.array(offsets + [len(states)]),
    )
