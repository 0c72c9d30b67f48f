"""Truncated rigid-rotor Hilbert space and its dynamically invariant blocks.

States |j, m> are enumerated up to a cutoff j_max with a fixed ordering
(ascending m, then ascending j within m) so that any operator conserving m
is block diagonal with contiguous blocks.  Linearly polarized driving
conserves m; the alignment coupling additionally conserves the parity of j,
which splits every m block into an even-j and an odd-j sub-block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

ORIENTATION = "orientation"
ALIGNMENT = "alignment"
PROCESS_KINDS = (ORIENTATION, ALIGNMENT)


def check_process_kind(kind: str) -> None:
    if kind not in PROCESS_KINDS:
        raise ValueError(f"unknown process kind {kind!r}, expected one of {PROCESS_KINDS}")


@dataclass(frozen=True)
class BasisIndex:
    """Rotational state |j, m> with |m| <= j."""

    j: int
    m: int

    def __post_init__(self) -> None:
        if self.j < 0:
            raise ValueError(f"j must be non-negative, got {self.j}")
        if abs(self.m) > self.j:
            raise ValueError(f"|m| <= j required, got (j={self.j}, m={self.m})")


@dataclass(frozen=True)
class Basis:
    """Ordered collection of |j, m> states spanning the truncated rotor space."""

    j_max: int
    states: tuple[BasisIndex, ...]

    @property
    def dim(self) -> int:
        return len(self.states)

    @cached_property
    def _lookup(self) -> dict[tuple[int, int], int]:
        return {(s.j, s.m): k for k, s in enumerate(self.states)}

    def index_of(self, j: int, m: int) -> int:
        """Flattened index of |j, m>; raises KeyError if absent."""
        return self._lookup[(j, m)]

    def contains(self, j: int, m: int) -> bool:
        return (j, m) in self._lookup

    @cached_property
    def j_values(self) -> np.ndarray:
        """j of every state, read-only: a basis is shared by everything built on it."""
        return _read_only(np.array([s.j for s in self.states], dtype=int))

    @cached_property
    def _decompositions(self) -> dict[str, BlockDecomposition]:
        """The block decompositions of this basis, keyed by process kind; filled by block_decomposition."""
        return {}


_BASES: dict[tuple[int, int], Basis] = {}


def build_basis(j_max: int, m_max: int | None = None) -> Basis:
    """Enumerate all |j, m> with |m| <= j <= j_max and |m| <= m_max, in ascending m, then ascending j.

    Without m_max the dimension is (j_max + 1)**2.  A cut m_max keeps the
    shells |m| <= m_max, a contiguous run of the states of build_basis(j_max),
    such as the m blocks that a control space with j <= m_max reaches.  One
    basis is built per cutoff pair and returned to every later call, so
    build_basis(j, j) is build_basis(j), and everything built on it shares
    its cached lookup and decompositions.  A basis within one built before
    takes its states from that one, which holds them in the same order, so
    a sweep over cutoffs that builds its top cutoff first makes each state
    once.
    """
    if j_max < 0 or (m_max is not None and m_max < 0):
        raise ValueError(f"j_max and m_max must be non-negative, got {j_max} and {m_max}")
    m_cut = int(j_max if m_max is None else min(m_max, j_max))  # a numpy integer would leak to later callers
    if (j_max, m_cut) not in _BASES:
        larger = next((b for (j, m), b in _BASES.items() if j >= j_max and m >= m_cut), None)
        if larger is None:
            states = tuple(BasisIndex(j, m) for m in range(-m_cut, m_cut + 1) for j in range(abs(m), j_max + 1))
        else:
            states = tuple(s for s in larger.states if s.j <= j_max and abs(s.m) <= m_cut)
        _BASES[j_max, m_cut] = Basis(j_max=int(j_max), states=states)
    return _BASES[j_max, m_cut]


@dataclass(frozen=True)
class Block:
    """One dynamically invariant subspace: fixed m, optionally fixed parity of j."""

    m: int | None  # None for the one block of a decomposition that resolves no symmetry
    parity: int | None  # j mod 2 shared by all members; None when parity is not resolved
    members: tuple[int, ...]  # flattened basis indices, ascending j
    offset: int = 0  # slot of the first member in a block stack

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def span(self) -> slice:
        """The slots of the members, which are consecutive."""
        return slice(self.offset, self.offset + self.size)


@dataclass(frozen=True)
class BlockDecomposition:
    """Partition of a basis into the invariant blocks of one process kind."""

    kind: str
    blocks: tuple[Block, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def dim(self) -> int:
        return sum(block.size for block in self.blocks)

    @cached_property
    def slots(self) -> np.ndarray:
        """(n_blocks, width) basis indices of the block members, read-only.

        This is the layout of a block stack: block b of a block-diagonal
        matrix sits zero-padded in stack[b], its members on the slots
        block.span.  Padding slots hold the basis dimension, one past the
        last state.
        """
        width = max((block.offset + block.size for block in self.blocks), default=0)
        slots = np.full((self.n_blocks, width), self.dim, dtype=np.intp)
        for b, block in enumerate(self.blocks):
            slots[b, block.span] = block.members
        return _read_only(slots)

    @cached_property
    def filled(self) -> np.ndarray:
        """(n_blocks, width) mask of the slots holding a basis state, False at padding."""
        return _read_only(self.slots < self.dim)

    @cached_property
    def classes(self) -> np.ndarray:
        """The class of every block, read-only: the parity of its j, 0 where parity is not resolved."""
        return _read_only(np.array([block.parity or 0 for block in self.blocks], dtype=np.intp))

    @cached_property
    def _row_index(self) -> np.ndarray:
        """The basis index each (class, slot) reads: a member of the class on the slot, else the row's first."""
        b, s = np.nonzero(self.filled)
        index = np.full((int(self.classes.max(initial=0)) + 1, self.slots.shape[1]), -1, dtype=np.intp)
        index[self.classes[b], s] = self.slots[b, s]
        return np.where(index >= 0, index, index[np.arange(len(index)), (index >= 0).argmax(axis=1)][:, None])

    def rows(self, vector: np.ndarray) -> np.ndarray:
        """(classes, width) entries of a basis vector, such as the energies: block b holds row classes[b] on its slots.

        ValueError if two blocks of one class differ on a slot.  A slot no
        block of a class fills repeats the row's first entry, so it adds no
        difference between the entries of a row.
        """
        vector = np.asarray(vector)
        out = vector[self._row_index]
        if not np.array_equal(out[self.classes][self.filled], vector[self.slots[self.filled]]):
            raise ValueError("entries differ between blocks of one class")
        return out

    def copies(self, stacks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Fold blocks on the same slots whose entries are bit-identical in every stack onto one copy: (keep, source).

        Each stack holds per-block entries laid out like slots, as a block
        stack does.  Blocks that are copies evolve alike under operators
        built from the stacks, so one of each suffices.  keep marks the last
        block of each group, the one with m >= 0 of a +-m pair; source[b]
        is the position among the kept blocks of the copy that block b
        stands for.
        """
        keys = [
            (block.offset, block.size, b"".join(s[b].tobytes() for s in stacks)) for b, block in enumerate(self.blocks)
        ]
        last_of = {key: b for b, key in enumerate(keys)}
        last = np.array([last_of[key] for key in keys], dtype=np.intp)
        keep = last == np.arange(self.n_blocks)
        return keep, (np.cumsum(keep) - 1)[last]

    def restack(self, stack: np.ndarray, source: BlockDecomposition, what="matrix", tol=0.0) -> np.ndarray:
        """This decomposition's stack of the operator held as stack on source blocks of one basis, via a dense matrix.

        Entries that land in no block here are dropped when none exceeds
        tol in magnitude (NaN does); otherwise ValueError.  Padding is never
        read.
        """
        dense = np.pad(source.scatter(stack), (0, 1))  # padding slots read the zero last row and column
        here = (self.slots[:, :, None], self.slots[:, None, :])
        out = dense[here]
        dense[here] = 0.0
        dev = float(np.max(np.abs(dense), initial=0.0))
        if not dev <= tol:  # NaN included
            raise ValueError(f"{what} couples states in different invariant blocks ({dev:.3e})")
        return out

    def scatter(self, stack: np.ndarray) -> np.ndarray:
        """The (dim, dim) block-diagonal matrix of a block stack; padding is never read."""
        dense = np.zeros((self.dim + 1, self.dim + 1), dtype=stack.dtype)
        dense[self.slots[:, :, None], self.slots[:, None, :]] = stack  # padding lands on the last row and column
        return np.ascontiguousarray(dense[:-1, :-1])

    def scatter_diagonal(self, values: np.ndarray) -> np.ndarray:
        """The basis vector of per-block entries laid out like slots."""
        out = np.zeros(self.dim + 1, dtype=values.dtype)
        out[self.slots] = values
        return out[: self.dim]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=16)
def single_block(dim: int) -> BlockDecomposition:
    """The trivial decomposition: one block holding all dim states, shared between calls."""
    return BlockDecomposition(kind="none", blocks=(Block(m=None, parity=None, members=tuple(range(dim))),))


def block_decomposition(basis: Basis, kind: str) -> BlockDecomposition:
    """Group basis states into invariant blocks: by m, and by parity of j for alignment.

    Blocks are ordered by ascending m, with the even-j sub-block before the
    odd-j one.  Empty sub-blocks are omitted.  The member |j, m> sits on
    slot j of an m block and on slot j // 2 of an (m, parity) block.  The
    decomposition is built once per basis and kind and kept with the basis.
    """
    check_process_kind(kind)
    if kind in basis._decompositions:
        return basis._decompositions[kind]
    groups: dict[tuple[int, int | None], list[int]] = {}
    for k, s in enumerate(basis.states):
        key = (s.m, s.j % 2 if kind == ALIGNMENT else None)
        groups.setdefault(key, []).append(k)
    # enumeration order already ascends in j within each group
    ordered = sorted(groups, key=lambda key: (key[0], key[1] if key[1] is not None else 0))
    step = 1 if kind == ORIENTATION else 2
    blocks = tuple(
        Block(m=m, parity=p, members=tuple(groups[(m, p)]), offset=basis.states[groups[(m, p)][0]].j // step)
        for m, p in ordered
    )
    basis._decompositions[kind] = BlockDecomposition(kind=kind, blocks=blocks)
    return basis._decompositions[kind]
