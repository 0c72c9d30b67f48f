"""Truncated rigid-rotor Hilbert space and its dynamically invariant blocks.

States |j, m> are enumerated up to a cutoff j_max with a fixed ordering
(ascending m, then ascending j within m) so that any operator conserving m
is block diagonal with contiguous blocks.  Linearly polarized driving
conserves m; the alignment coupling additionally conserves the parity of j,
which splits every m block into an even-j and an odd-j sub-block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

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
        return np.array([s.j for s in self.states], dtype=int)

    def to_json(self) -> str:
        """Serialize as {"j_max": ..., "states": [[j, m], ...]} with stable ordering."""
        payload = {"j_max": self.j_max, "states": [[s.j, s.m] for s in self.states]}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Basis":
        payload = json.loads(text)
        states = tuple(BasisIndex(j, m) for j, m in payload["states"])
        return cls(j_max=payload["j_max"], states=states)


def build_basis(j_max: int) -> Basis:
    """Enumerate all |j, m> with |m| <= j <= j_max; dimension is (j_max + 1)**2."""
    if j_max < 0:
        raise ValueError(f"j_max must be non-negative, got {j_max}")
    states = tuple(
        BasisIndex(j, m)
        for m in range(-j_max, j_max + 1)
        for j in range(abs(m), j_max + 1)
    )
    return Basis(j_max=j_max, states=states)


@dataclass(frozen=True)
class Block:
    """One dynamically invariant subspace: fixed m, optionally fixed parity of j."""

    m: int
    parity: int | None  # j mod 2 shared by all members; None when parity is not resolved
    members: tuple[int, ...]  # flattened basis indices, ascending j

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class BlockDecomposition:
    """Partition of a basis into the invariant blocks of one process kind."""

    kind: str
    blocks: tuple[Block, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def coupling_mask(self, dim: int) -> np.ndarray:
        """Boolean (dim, dim) mask, True where an entry couples two different blocks."""
        label = np.full(dim, -1, dtype=int)
        for b, block in enumerate(self.blocks):
            label[list(block.members)] = b
        if np.any(label < 0):
            raise ValueError("decomposition does not cover the requested dimension")
        return label[:, None] != label[None, :]


def block_decomposition(basis: Basis, kind: str) -> BlockDecomposition:
    """Group basis states into invariant blocks: by m, and by parity of j for alignment.

    Blocks are ordered by ascending m, with the even-j sub-block before the
    odd-j one.  Empty sub-blocks are omitted.
    """
    check_process_kind(kind)
    groups: dict[tuple[int, int | None], list[int]] = {}
    for k, s in enumerate(basis.states):
        key = (s.m, s.j % 2 if kind == ALIGNMENT else None)
        groups.setdefault(key, []).append(k)
    # enumeration order already ascends in j within each group
    ordered = sorted(groups, key=lambda key: (key[0], key[1] if key[1] is not None else 0))
    blocks = tuple(Block(m=m, parity=p, members=tuple(groups[(m, p)])) for m, p in ordered)
    return BlockDecomposition(kind=kind, blocks=blocks)
