"""Truncated rigid-rotor Hilbert space and its dynamically invariant blocks.

A basis is an ordered set of states |j, m>, held as two read-only integer
arrays, the j and the m of every state.  build_basis enumerates the states
up to a cutoff j_max in closed form, in ascending m and then ascending j
within m, so that any operator conserving m is block diagonal with
contiguous blocks.  Linearly polarized driving conserves m; the alignment
coupling additionally conserves the parity of j, which splits every m block
into an even-j and an odd-j sub-block.  block_decomposition groups the
states of any basis into these blocks by one stable sort on the key
2 m + parity.  A decomposition is the layout of a block stack, three
integer arrays: the m and class of every block and the basis index on
every slot.  The m and -m blocks of one class and on the same slots are
mirrors, the symmetry behind D'; folded marks the -m blocks on which
given stacks hold their mirror's bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

ORIENTATION = "orientation"
ALIGNMENT = "alignment"
PROCESS_KINDS = (ORIENTATION, ALIGNMENT)


def check_process_kind(kind: str) -> None:
    if kind not in PROCESS_KINDS:
        raise ValueError(f"unknown process kind {kind!r}, expected one of {PROCESS_KINDS}")


@dataclass(frozen=True, eq=False)
class Basis:
    """Ordered states |j, m> spanning a truncated rotor space: state k is (j_values[k], m_values[k]).

    The arrays are read-only copies of the ones given: a basis is shared by
    everything built on it.  ValueError unless they are one-dimensional of
    equal length, with 0 <= |m| <= j, and no state listed twice.  Two bases
    are equal when they have the same cutoff and the same states in the
    same order.
    """

    j_max: int
    j_values: np.ndarray
    m_values: np.ndarray
    _decompositions: dict = field(default_factory=dict, init=False, repr=False)  # filled by block_decomposition

    def __post_init__(self) -> None:
        j, m = (_read_only(np.array(values, dtype=int)) for values in (self.j_values, self.m_values))
        if j.ndim != 1 or j.shape != m.shape:
            raise ValueError(f"j and m arrays of one equal length required, got shapes {j.shape} and {m.shape}")
        bad = np.flatnonzero(np.abs(m) > j)  # j < 0 included
        keys = j * (j + 1) + m  # one to one on the states with |m| <= j
        order = np.argsort(keys, kind="stable")
        twice = order[1:][np.diff(keys[order]) == 0]
        for at, problem in ((bad, "0 <= |m| <= j required"), (twice, "listed twice")):
            if at.size:
                raise ValueError(f"state (j={j[at[0]]}, m={m[at[0]]}): {problem}")
        object.__setattr__(self, "j_values", j)
        object.__setattr__(self, "m_values", m)

    def __eq__(self, other) -> bool:
        same = isinstance(other, Basis) and self.j_max == other.j_max
        return same and np.array_equal(self.j_values, other.j_values) and np.array_equal(self.m_values, other.m_values)

    @property
    def dim(self) -> int:
        return len(self.j_values)

    def index_of(self, j, m):
        """Flattened index of |j, m>, or of each state of equal-shape arrays j and m; KeyError if one is absent."""
        hit = (self.j_values == np.expand_dims(j, -1)) & (self.m_values == np.expand_dims(m, -1))
        if not hit.any(axis=-1).all():
            raise KeyError((j, m))
        index = hit.argmax(axis=-1)
        return int(index) if index.ndim == 0 else index


_BASES: dict[tuple[int, int], Basis] = {}


def build_basis(j_max: int, m_max: int | None = None) -> Basis:
    """Enumerate all |j, m> with |m| <= j <= j_max and |m| <= m_max, in ascending m, then ascending j.

    Without m_max the dimension is (j_max + 1)**2.  A cut m_max keeps the
    shells |m| <= m_max, a contiguous run of the states of build_basis(j_max),
    such as the m blocks that a control space with j <= m_max reaches.  One
    basis is built per cutoff pair and returned to every later call, so
    build_basis(j, j) is build_basis(j), and everything built on it shares
    its cached decompositions.
    """
    if j_max < 0 or (m_max is not None and m_max < 0):
        raise ValueError(f"j_max and m_max must be non-negative, got {j_max} and {m_max}")
    m_cut = int(j_max if m_max is None else min(m_max, j_max))  # a numpy integer would leak to later callers
    if (j_max, m_cut) not in _BASES:
        m = np.arange(-m_cut, m_cut + 1)
        runs = j_max + 1 - np.abs(m)  # the m run holds j = |m|..j_max
        starts = np.cumsum(runs) - runs
        j = np.arange(runs.sum()) + np.repeat(np.abs(m) - starts, runs)
        _BASES[j_max, m_cut] = Basis(j_max, j, np.repeat(m, runs))
    return _BASES[j_max, m_cut]


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Partition of a basis into the invariant blocks of one process kind, held as the layout of a block stack.

    Block b has the magnetic number m[b] and the class classes[b], the
    parity of its j for alignment and 0 otherwise.  Its states are the
    basis indices slots[b, s] on the consecutive slots where filled[b, s]:
    block b of a block-diagonal matrix sits zero-padded in stack[b], on
    those slots.  Padding slots hold dim, one past the last state.  The
    blocks ascend in the key 2 m + class, no two with the same key.  The
    arrays are read-only copies of the ones given.  Two decompositions are
    equal when they have the same kind, dim and slots.
    """

    kind: str
    dim: int
    m: np.ndarray
    classes: np.ndarray
    slots: np.ndarray

    def __post_init__(self) -> None:
        for name in ("m", "classes", "slots"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=np.intp)))

    def __eq__(self, other) -> bool:
        same = isinstance(other, BlockDecomposition) and (self.kind, self.dim) == (other.kind, other.dim)
        return same and (self.slots is other.slots or np.array_equal(self.slots, other.slots))

    @property
    def n_blocks(self) -> int:
        return len(self.m)

    @cached_property
    def filled(self) -> np.ndarray:
        """(n_blocks, width) mask of the slots holding a basis state, False at padding."""
        return _read_only(self.slots < self.dim)

    def find(self, m, classes) -> np.ndarray:
        """The block of each (m, class), -1 where there is none; m and classes may be integer arrays."""
        keys, want = 2 * self.m + self.classes, 2 * np.asarray(m) + classes
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return np.where(keys[at] == want, at, -1)

    @cached_property
    def mirrors(self) -> np.ndarray:
        """For each block, the block with -m, the same class and the same filled slots, -1 where there is none."""
        mirror = self.find(-self.m, self.classes)
        same = (mirror >= 0) & (self.filled == self.filled[mirror]).all(axis=-1)
        return _read_only(np.where(same, mirror, -1))

    def folded(self, stacks: list[np.ndarray]) -> np.ndarray:
        """Mark the blocks with m < 0 whose entries equal their mirror's bit for bit in every stack.

        Each stack holds per-block entries laid out like slots, as a block
        stack does.  Bits, not values, are compared, so -0.0 and 0.0
        differ.  A marked block evolves as its mirror under operators built
        from the stacks, so the mirror may stand for both.
        """
        fold = (self.m < 0) & (self.mirrors >= 0)
        for stack in stacks:
            mine, mirror = (stack[at].view(np.uint8) for at in (fold, self.mirrors[fold]))  # fresh contiguous copies
            fold[fold] = np.all(mine == mirror, axis=tuple(range(1, mine.ndim)))
        return fold

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
    """The trivial decomposition: one block, with m = 0 and class 0, holding all dim states; shared between calls."""
    return BlockDecomposition(kind="none", dim=dim, m=[0], classes=[0], slots=np.arange(dim)[None])


def block_decomposition(basis: Basis, kind: str) -> BlockDecomposition:
    """Group basis states into invariant blocks: by m, and by parity of j for alignment.

    Blocks are ordered by ascending m, with the even-j sub-block before the
    odd-j one; each holds its members in basis order, which ascends in j
    for build_basis.  Empty sub-blocks are omitted.  A block's first member
    |j, m> sits on slot j of an m block and on slot j // 2 of an (m, parity)
    block, the others on the slots after it.  The decomposition is built
    once per basis and kind, by one stable sort on the key 2 m + class, and
    kept with the basis.
    """
    check_process_kind(kind)
    if kind in basis._decompositions:
        return basis._decompositions[kind]
    j, m = basis.j_values, basis.m_values
    step = 2 if kind == ALIGNMENT else 1
    classes = j % step
    key = 2 * m + classes
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=key[order[:1]] - 1))  # where each block begins
    firsts = order[starts]
    block = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(order)))  # the block of each sorted state
    slot = np.arange(len(order)) + (j[firsts] // step - starts)[block]
    slots = np.full((len(starts), int(slot.max(initial=-1)) + 1), basis.dim, dtype=np.intp)
    slots[block, slot] = order
    basis._decompositions[kind] = BlockDecomposition(kind, basis.dim, m[firsts], classes[firsts], slots)
    return basis._decompositions[kind]
