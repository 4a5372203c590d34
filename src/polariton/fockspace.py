"""Permutation-symmetric many-body basis, ordered by quasi block.

N identical molecules are treated as bosons occupying the 2m single-molecule
vibronic states (m ground-surface states followed by m excited-surface
states), with the cavity photon as one more bosonic register.  A basis state

    |n_1 ... n_m, n'_1 ... n'_m, n_ph>

records how many molecules sit in each vibronic state plus the photon number.
Two quantities are conserved exactly (molecule number N and excitation number
N_exc = sum n' + n_ph); the number of vibrationally excited ground-electronic
molecules

    quasi = sum_{k>1} n_k

is conserved by the collective part of the Hamiltonian and changed by +-1 by
the single-molecule coupling, which makes the Hamiltonian block-tridiagonal
in quasi and motivates truncating the basis at quasi <= q_max.

The Hamiltonian itself is assembled on this basis in bosonized form by
cute.hamiltonian_matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionGuardError

BASIS_SIZE_CAP = 500_000


@dataclass(frozen=True)
class SymState:
    """One occupation-number basis state |n_g, n_e, n_ph>."""

    n_g: tuple[int, ...]
    n_e: tuple[int, ...]
    n_ph: int

    @property
    def n_molecules(self) -> int:
        return sum(self.n_g) + sum(self.n_e)

    @property
    def n_excitations(self) -> int:
        return sum(self.n_e) + self.n_ph

    @property
    def quasi(self) -> int:
        """Number of ground-electronic molecules carrying vibrational quanta."""
        return sum(self.n_g[1:])

    @property
    def matter(self) -> tuple[int, ...]:
        return self.n_g + self.n_e


@dataclass(frozen=True)
class SymBasis:
    """Ordered symmetric basis at fixed (N, N_exc) truncated at quasi <= q_max."""

    states: tuple[SymState, ...]
    N: int
    N_exc: int
    m: int
    q_max: int
    index: dict[SymState, int] = field(repr=False)
    offsets: np.ndarray = field(repr=False)  # block q spans offsets[q]:offsets[q + 1]

    @property
    def dim(self) -> int:
        return len(self.states)

    def block_slice(self, q: int) -> slice:
        """Index range of the quasi = q block (states are ordered by quasi)."""
        return slice(int(self.offsets[q]), int(self.offsets[q + 1]))

    def photon_numbers(self) -> np.ndarray:
        return np.array([s.n_ph for s in self.states])


def _compositions_desc(total: int, slots: int):
    """All ways to place `total` quanta in `slots` registers, descending lex.

    Each quantum picks a slot; the slot multisets come in ascending lex
    order, which is descending lex order of the occupation tuples.
    """
    for picks in itertools.combinations_with_replacement(range(slots), total):
        occ = [0] * slots
        for k in picks:
            occ[k] += 1
        yield tuple(occ)


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


def enumerate_basis(N: int, N_exc: int, m: int, q_max: int) -> SymBasis:
    """Enumerate all states with quasi <= q_max at fixed (N, N_exc).

    Ordering is deterministic: ascending quasi block, photon-rich sectors
    before photon-poor ones within a block, then descending lexicographic
    occupations (molecules fill low-index vibronic states first), so the
    quasi = 0 block reads |1>, |e1>, ..., |em>.  The size is checked against
    BASIS_SIZE_CAP before any state is built.
    """
    size = basis_size(N, N_exc, m, q_max)
    if size > BASIS_SIZE_CAP:
        raise DimensionGuardError(
            f"symmetric basis of {size} states exceeds cap {BASIS_SIZE_CAP} at "
            f"(N={N}, N_exc={N_exc}, m={m}, q_max={q_max})"
        )

    states: list[SymState] = []
    offsets = []
    for q in range(q_max + 1):
        offsets.append(len(states))
        for n_ph in range(N_exc, -1, -1):
            n_exc_tot = N_exc - n_ph
            n_g0 = N - n_exc_tot - q
            if n_g0 < 0:
                continue
            excited = list(_compositions_desc(n_exc_tot, m))
            for tail in _compositions_desc(q, m - 1):
                n_g = (n_g0,) + tail
                states.extend(SymState(n_g=n_g, n_e=n_e, n_ph=n_ph) for n_e in excited)

    return SymBasis(
        states=tuple(states),
        N=N,
        N_exc=N_exc,
        m=m,
        q_max=q_max,
        index={s: i for i, s in enumerate(states)},
        offsets=np.array(offsets + [len(states)]),
    )
