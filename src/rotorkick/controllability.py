"""Lie-algebra controllability tests and fixed-point diagnostics.

The dynamical Lie algebra L generated by i*H0 and i*O decides whether every
invariant block can be steered independently by the one shared control
field.  Simultaneous controllability of all blocks requires one dimension
count; exploiting the identical dynamics of the m and -m blocks relaxes it
to a smaller count, D'.  A separate count characterizes the fixed points of
the greedy kick iteration: states commuting with the driving functional are
the only fixed points exactly when the span of the kick-rotated slope
operators saturates its commutant-complement bound.  That span is read off
in closed form from the frequency components of the slope operator in the
functional's eigenbasis, block by block on the operators' invariant-block
stacks.

dim_L and r are read off in closed form.  On a block with m >= 0 of n
states, H0 = diag(E_k) with E_k = j(j+1), and a diagonal similarity T
makes T O T^-1 tridiagonal with rational entries.  Edge e joins slots k
and k+1; its frequency is w_e = E_k+1 - E_k (2(j+1) for cos(theta),
4j+6 for cos^2(theta)) and its coupling c_e^2 is the product of its two
off-diagonal entries.

- Block check.  Let every c_e^2 be nonzero and the |w_e| nonzero and
  pairwise distinct.  Z_q = ad_H0^2q O = sum_e w_e^2q P_e, with
  P_e = c_e^2 E_k,k+1 + E_k+1,k, so Z_1 .. Z_n-1 give every P_e (a
  Vandermonde system in w_e^2).  [H0, P_e] = w_e (c_e^2 E_k,k+1 - E_k+1,k)
  then gives both elementary matrices of the edge, and those of a
  connected chain generate sl(n).  So L maps onto sl(n) on the block.
- Pair check.  L lies in u(N), so [L, L] is semisimple; it lies in the
  sum of the blocks' sl(n_b) and, by the block check, maps onto each.
  By Goursat's lemma it is the whole sum unless an isomorphism links two
  factors, and sl(n) is not isomorphic to sl(n') for n != n', so only
  blocks of equal size can be linked (alignment has such pairs,
  orientation none).  Every automorphism of sl(n) keeps Tr X^2, and Z_q
  lies in [L, L], so blocks b and b' are unlinked when
  Tr (pi_b Z_q)^2 = 2 sum_e w_e^4q c_e^2 differs from that of b' for some
  q >= 1.
- Result.  Brackets are traceless, so once [L, L] is the whole sum, the
  rest of L has the dimension r of the span of the blocks' traces of H0
  and O (block_trace_rank), and dim_L = sum_b (n_b^2 - 1) + r = D'.

Both checks hold at every cutoff, so dim_L = D' always:

- Block check.  c^2 = ((j+1)^2 - m^2) / ((2j+1)(2j+3)) on the edge from j
  of a cos(theta) block is positive, since j >= m, and on a cos^2(theta)
  block c_e^2 is the product of two such factors.  The edge frequencies
  2(j+1) and 4j+6 strictly increase with j along a block, so they are
  nonzero and pairwise distinct.
- Pair check.  Orientation blocks have j_max + 1 - m states, no two the
  same.  Two alignment blocks of equal size n >= 2 with the same j values
  have m != m', and every c_e^2 strictly decreases in m^2, so their sums
  differ at q = 1.  With different j values, the lowest frequency
  4 j_0 + 6 of the two occurs in one block only, with a positive
  coefficient.  A sum of x^q over at most 2(n - 1) distinct nonzero x,
  one of them with a nonzero coefficient, is nonzero at some q in
  1 .. 2(n - 1) (Vandermonde), the range the check runs over.

r is 1 for orientation and 2 for alignment at every cutoff:

- cos(theta) is traceless on every block, so only Tr H0 counts for
  orientation, and it is nonzero on the block m = j_max: r = 1.
- For alignment, the one-state blocks (j, m) = (J, J) and (J, J - 1) at
  cutoff J share Tr H0 = J(J+1) but have Tr cos^2(theta) = 1/(2J+3) and
  3/(2J+3), and the matrix has two columns: r = 2.

So the controllability report builds no basis and no operator: D and D'
come from the block sizes, and dim_L = D'.  The checks themselves, run in
Python integers on the rational blocks, are the test suite's oracle
(certified_closure in tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ORIENTATION, build_basis, check_process_kind
from .errors import ConfigError, NumericalError
from .operators import (
    DensityMatrix,
    HermitianOperator,
    cluster_labels,
    eigenvalue_multiplicities,
    h0_matrix,
    observable_matrix,
)

RANK_TOL = 1e-10  # relative norm above which a frequency component adds to the fixed-point span
STATIONARY_TOL = 1e-10


def check_cutoff(j_max: int) -> None:
    """Reject a cutoff below 1 with ConfigError, before anything is built; every cutoff from 1 up is served."""
    if j_max < 1:
        raise ConfigError(f"controllability needs j_max >= 1, got {j_max}")


def _runs(j_max: int, kind: str, m: int) -> list[range]:
    """The j values of the process's blocks at m >= 0, in the order block_decomposition gives them.

    An orientation block holds j = m..j_max; alignment splits it into the
    run of even j before the run of odd j, each in steps of 2, and omits
    an empty run.
    """
    if kind == ORIENTATION:
        return [range(m, j_max + 1)]
    return [range(first, j_max + 1, 2) for first in ((m, m + 1) if m % 2 == 0 else (m + 1, m)) if first <= j_max]


def lie_closure(j_max: int, kind: str) -> tuple[int, int]:
    """Dimension of the real Lie algebra L generated by i H0 and i O, in closed form: (dim_L, r).

    The block and pair checks of the module docstring hold at every
    cutoff, so dim_L = D' = sum_b (n_b^2 - 1) + r over the process's blocks
    with m >= 0, with r from block_trace_rank.
    """
    r = block_trace_rank(j_max, kind)
    return dims_required(j_max, r, kind)[1], r


def block_trace_rank(j_max: int, kind: str) -> int:
    """Rank r of the per-block trace matrix [Tr H0 | Tr O] over the invariant blocks, in closed form.

    1 for orientation and 2 for alignment, at every cutoff: the module
    docstring gives the proof.
    """
    check_process_kind(kind)
    check_cutoff(j_max)
    return 1 if kind == ORIENTATION else 2


def dims_required(j_max: int, r: int, kind: str = ORIENTATION) -> tuple[int, int]:
    """Lie-algebra dimensions demanded for simultaneous controllability.

    Both counts are r plus size^2 - 1 summed over invariant blocks, read
    off their sizes with no basis built.  The first takes every m block,
    of j_max + 1 - |m| states, independently; the second exploits the
    m <-> -m symmetry and only counts the process's blocks with m >= 0 (for
    alignment, the parity-resolved sub-blocks of _runs).  ConfigError for
    j_max < 1 (check_cutoff), ValueError for r < 1.
    """
    check_process_kind(kind)
    check_cutoff(j_max)
    if r < 1:
        raise ValueError(f"r must be at least 1, got {r}")
    d_general = r + sum((j_max + 1 - abs(m)) ** 2 - 1 for m in range(-j_max, j_max + 1))
    d_restricted = r + sum(len(run) ** 2 - 1 for m in range(j_max + 1) for run in _runs(j_max, kind, m))
    return d_general, d_restricted


@dataclass(frozen=True)
class LieAlgebraReport:
    """Computed algebra dimension versus the simultaneous-controllability counts."""

    j_max: int
    kind: str
    dim_l: int
    rank: int
    dim_required: int
    dim_required_restricted: int

    @property
    def simultaneous(self) -> bool:
        return self.dim_l == self.dim_required

    @property
    def restricted_simultaneous(self) -> bool:
        return self.dim_l == self.dim_required_restricted

    def to_jsonable(self) -> dict:
        return {
            "j_max": self.j_max,
            "process": self.kind,
            "dim_L": self.dim_l,
            "r": self.rank,
            "D": self.dim_required,
            "D_prime": self.dim_required_restricted,
            "simultaneous": self.simultaneous,
            "restricted_simultaneous": self.restricted_simultaneous,
        }


def controllability_report(j_max: int, kind: str) -> LieAlgebraReport:
    """Take the dimension of the rotor generators' algebra exactly and compare it with the required counts.

    One call of lie_closure gives dim_L and the trace rank r in closed
    form; dim_L is D' itself.  D' bounds dim_L from above, so a
    dimension above D' breaks that invariant and raises NumericalError.
    """
    dim_l, r = lie_closure(j_max, kind)
    d, d_prime = dims_required(j_max, r, kind)
    if dim_l > d_prime:
        raise NumericalError(
            f"Lie closure at j_max={j_max} ({kind}) found dimension {dim_l}, above the bound D'={d_prime}"
        )
    return LieAlgebraReport(
        j_max=j_max,
        kind=kind,
        dim_l=dim_l,
        rank=r,
        dim_required=d,
        dim_required_restricted=d_prime,
    )


@dataclass(frozen=True)
class TwoLevelReport:
    """The pair of two-level blocks at m = +-(j_max - 1) that blocks simultaneous control."""

    j_max: int
    coupling: float  # off-diagonal cos(theta) element, same in both blocks
    e0: float
    e1: float
    gap_plus: float
    gap_minus: float

    @property
    def gaps_equal(self) -> bool:
        return self.gap_plus == self.gap_minus


def two_level_obstruction(j_max: int) -> TwoLevelReport:
    """Extract the m = +-(j_max - 1) two-level blocks and verify their equal gaps.

    Two uncoupled two-level systems with identical transition frequencies and
    identical couplings cannot be steered independently by one shared field.
    """
    if j_max <= 1:
        raise ValueError("two-level obstruction needs j_max > 1")
    basis = build_basis(j_max)
    obs, h0 = observable_matrix(basis, ORIENTATION), h0_matrix(basis)
    m = j_max - 1
    at = obs.blocks.find([m, -m], 0)  # H0 sits on the same m blocks, where slot j holds |j, m>
    couplings = obs.stack[at, m, j_max].tolist()
    e0, e1 = h0.stack[at, m, m], h0.stack[at, j_max, j_max]
    gaps = (e1 - e0).tolist()
    if not abs(couplings[0] - couplings[1]) <= 1e-15:
        raise NumericalError(f"m = +-{m} couplings differ: {couplings[0]!r} and {couplings[1]!r}")
    if not abs(couplings[0] - 1.0 / np.sqrt(2 * j_max + 1)) <= 1e-12:
        raise NumericalError(f"m = {m} coupling {couplings[0]!r} is not 1/sqrt(2 j_max + 1)")
    return TwoLevelReport(
        j_max=j_max,
        coupling=couplings[0],
        e0=float(e0[0]),
        e1=float(e1[0]),
        gap_plus=gaps[0],
        gap_minus=gaps[1],
    )


def _slope_frequencies(
    h0: HermitianOperator, functional: HermitianOperator
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """The slope operator C = i[H0, B] in B's eigenbasis, entry by entry, with frequency clusters.

    In block b of B, with eigenvectors v_b, entry (k, l) is
    C_kl = -i w_kl (v_b+ H0_b v_b)_kl with w_kl = lambda_k - lambda_l, and
    the kick U(a) = exp(i a B) turns it into exp(-i a w_kl) C_kl.  So
    U(a)+ C U(a) = sum_w exp(-i a w) C_w, where C_w keeps the entries at
    frequency w.  H0 must be diagonal or sit on B's blocks (ValueError
    otherwise), so C couples no two blocks of B.  Returns the entries of
    the filled within-block pairs (k, l), flattened block by block, their
    cluster labels (ascending in w), the label of w = 0 (labels above it
    are the positive frequencies) and the mask of those pairs in a block
    stack.
    """
    values, vectors = functional.eigensystem
    filled = functional.blocks.filled
    pairs = filled[:, :, None] & filled[:, None, :]
    w = (values[:, :, None] - values[:, None, :])[pairs]
    h = h0.regroup(functional.blocks, "h0").stack
    c = -1j * w * (vectors.conj().transpose(0, 2, 1) @ h @ vectors)[pairs]
    labels = cluster_labels(w, np.max(np.abs(values), initial=0.0))
    return c, labels, int(labels[0]), pairs  # entry (0, 0) of block 0 sits at w = 0 exactly


@dataclass(frozen=True)
class FixedPointReport:
    """Span of the rotated slope operators versus its commutant-complement bound."""

    dim: int
    dim_span: int
    multiplicities: tuple[int, ...]
    commutant_dim: int
    bound: int  # N^2 - sum(n_i^2)

    @property
    def saturated(self) -> bool:
        """True when only states commuting with the functional are fixed points."""
        return self.dim_span == self.bound

    def to_jsonable(self) -> dict:
        return {
            "N": self.dim,
            "dim_span": self.dim_span,
            "multiplicities": list(self.multiplicities),
            "commutant_dim": self.commutant_dim,
            "bound": self.bound,
            "saturated": self.saturated,
        }


def fixed_point_analysis(h0: HermitianOperator, functional: HermitianOperator) -> FixedPointReport:
    """Dimension of span{ U(a)+ i[H0, B] U(a) : a real } against N^2 - sum of squared multiplicities.

    B is the driving functional and U(a) = exp(i a B) the kick it generates.
    The span is the real span of the frequency components C_w of the slope
    operator: each w > 0 with C_w != 0 contributes C_w + C_w+ and
    i(C_w - C_w+), and C_0 vanishes.  A component counts when its norm
    exceeds RANK_TOL times the norm of C.  B-commuting states annihilate
    every spanning operator, so the span can never exceed the complement
    of B's commutant; saturation means those states are the only
    stationary ones.
    """
    c, labels, zero, _ = _slope_frequencies(h0, functional)
    norms = np.sqrt(np.bincount(labels, weights=np.abs(c) ** 2))
    total = float(np.linalg.norm(c))
    dim_span = 2 * int(np.sum(norms[zero + 1 :] > RANK_TOL * total)) if total > 0 else 0
    n = functional.dim
    mult = tuple(eigenvalue_multiplicities(functional))
    commutant = int(sum(k**2 for k in mult))
    return FixedPointReport(
        dim=n,
        dim_span=dim_span,
        multiplicities=mult,
        commutant_dim=commutant,
        bound=n * n - commutant,
    )


def is_kick_stationary(rho: DensityMatrix, h0: HermitianOperator, functional: HermitianOperator) -> bool:
    """True when the functional slope of rho vanishes after every kick of the family exp(i a B).

    The slope after a kick of amplitude a is Tr[rho U(a)+ C U(a)] =
    sum_w exp(-i a w) Tr[rho C_w], which vanishes for every a exactly when
    |Tr[rho C_w]| <= STATIONARY_TOL at every frequency w.  Fixed points of
    the greedy iteration all pass this test.
    """
    c, labels, _, pairs = _slope_frequencies(h0, functional)
    v = functional.eigensystem[1]
    seen = rho.regroup(functional.blocks, "state").stack
    terms = (v.conj().transpose(0, 2, 1) @ seen @ v).transpose(0, 2, 1)[pairs] * c  # rho_lk C_kl
    traces = np.bincount(labels, weights=terms.real) + 1j * np.bincount(labels, weights=terms.imag)
    return bool(np.all(np.abs(traces) <= STATIONARY_TOL))
