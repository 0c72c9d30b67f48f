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

dim_L is certified in closed form, in Python integers, from rational forms
of the generators on the blocks with m >= 0.  On such a block of n states,
H0 = diag(E_k), and T O T^-1, similar to the observable O, is tridiagonal
(_Band).  Edge e joins slots k and k+1; its frequency is w_e = E_k+1 - E_k
(2(j+1) for cos(theta), 4j+6 for cos^2(theta)) and its coupling c_e^2 is
the product of its two off-diagonal entries.

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

A failed check would mean that the rational form is wrong, so it raises
NumericalError naming the block or the pair.  The rank of the blocks'
traces is counted in integers from the same rational forms, and D and D'
from the block sizes: the controllability report builds no basis and no
float operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import ALIGNMENT, ORIENTATION, build_basis, check_process_kind
from .errors import ConfigError, NumericalError
from .operators import (
    DensityMatrix,
    HermitianOperator,
    cluster_labels,
    eigenvalue_multiplicities,
    h0_matrix,
    observable_matrix,
    squared_cos_theta_element,
)

RANK_TOL = 1e-10  # relative norm above which a frequency component adds to the fixed-point span
STATIONARY_TOL = 1e-10


def check_cutoff(j_max: int) -> None:
    """Reject a cutoff below 1 with ConfigError, before anything is built; every cutoff from 1 up is served."""
    if j_max < 1:
        raise ConfigError(f"controllability needs j_max >= 1, got {j_max}")


@dataclass(frozen=True)
class _Band:
    """T O T^-1 on one block with m >= 0, tridiagonal, in Python integers.

    diagonal holds (numerator, denominator) per state, edges (w_e, a_e, b_e)
    per neighbouring slots k and k+1: w_e = E_k+1 - E_k, and the entries
    c_e^2 = a_e / b_e above the diagonal and 1 below it.
    """

    m: int
    js: list[int]
    diagonal: list[tuple[int, int]]
    edges: list[tuple[int, int, int]]


def _runs(j_max: int, kind: str, m: int) -> list[range]:
    """The j values of the process's blocks at m >= 0, in the order block_decomposition gives them.

    An orientation block holds j = m..j_max; alignment splits it into the
    run of even j before the run of odd j, each in steps of 2, and omits
    an empty run.
    """
    if kind == ORIENTATION:
        return [range(m, j_max + 1)]
    return [range(first, j_max + 1, 2) for first in ((m, m + 1) if m % 2 == 0 else (m + 1, m)) if first <= j_max]


def _rational_observable(j_max: int, kind: str) -> list[_Band]:
    """T O T^-1 on the blocks with m >= 0, one _Band each, in the order of block_decomposition; builds no basis.

    O couples each state only to its neighbours in the block, symmetrically:
    with c the coupling of slots k and k+1 (cos theta: c(j, m); cos^2
    theta: the product c(j, m) c(j+1, m)), the diagonal T with
    T[k+1] = T[k] / c turns the pair (c, c) into (c^2 above, 1 below).
    The diagonal, c(j-1, m)^2 + c(j, m)^2 for cos^2 theta, and H0 stay
    as they are, so every entry is rational.  Each c(j, m)^2 is taken once
    from squared_cos_theta_element.
    """
    out = []
    for m in range(j_max + 1):
        squares = [squared_cos_theta_element(j, m) for j in range(m, j_max + 1)]  # c(j, m)^2 at j - m
        for run in _runs(j_max, kind, m):
            js, edges = list(run), []
            diagonal = [(0, 1)] * len(js)  # cos(theta) has no diagonal entry: one shared zero for every state
            for k, j in enumerate(js):
                if kind == ALIGNMENT:
                    a, b = squares[j - m]
                    if j > m:
                        a0, b0 = squares[j - 1 - m]
                        a, b = a * b0 + a0 * b, b * b0
                    diagonal[k] = (a, b)
                if k + 1 < len(js):
                    a, b = squares[j - m]
                    if kind == ALIGNMENT:
                        a1, b1 = squares[j + 1 - m]
                        a, b = a * a1, b * b1
                    edges.append((js[k + 1] * (js[k + 1] + 1) - j * (j + 1), a, b))
            out.append(_Band(m, js, diagonal, edges))
    return out


def _reduced_sum(terms) -> tuple[int, int]:
    """sum a / b over the (a, b) of terms, every b positive, as a reduced fraction (numerator, denominator).

    The denominator is positive and coprime to the numerator, so two sums
    are equal exactly when their pairs are.  Reducing after every term
    keeps the integers small: the terms of one block share most factors of
    their denominators.
    """
    p, d = 0, 1
    for a, b in terms:
        p, d = p * b + a * d, d * b
        g = math.gcd(p, d)
        p, d = p // g, d // g
    return p, d


def _square_trace(edges: list[tuple[int, int, int]], q: int) -> tuple[int, int]:
    """sum_e w_e^4q c_e^2, half of Tr (pi_b ad_H0^2q O)^2 on the block, as a _reduced_sum."""
    return _reduced_sum((w ** (4 * q) * a, b) for w, a, b in edges)


def _square_trace_at(entry: tuple[_Band, list[tuple[int, int]]], q: int) -> tuple[int, int]:
    """_square_trace of a (band, traces so far) entry at q, computed once and kept in the entry's list."""
    band, traces = entry
    while len(traces) < q:
        traces.append(_square_trace(band.edges, len(traces) + 1))
    return traces[q - 1]


def lie_closure(j_max: int, kind: str) -> tuple[int, int]:
    """Dimension of the real Lie algebra L generated by i H0 and i O, exact: (dim_L, r).

    dim_R L is the complex dimension of the algebra generated by H0 and O,
    since L and i L meet only in 0 inside u(N), and a similarity T leaves
    that dimension alone.  The m and -m blocks of H0 and O are equal, so
    L is taken on the blocks with m >= 0 of the process's decomposition,
    where the diagonal T of _rational_observable makes every entry
    rational.  On them the block and pair checks of the module docstring
    give dim_L = sum_b (n_b^2 - 1) + r, with r the rank of block_trace_rank.
    The checks hold at every cutoff; a failed one raises NumericalError
    naming the block or the pair.
    """
    check_process_kind(kind)
    check_cutoff(j_max)
    bands = _rational_observable(j_max, kind)
    r = _trace_rank(bands)
    dim = r
    by_size: dict[int, list[tuple[_Band, list[tuple[int, int]]]]] = {}
    for band in bands:
        n = len(band.js)
        if n < 2:
            continue
        if any(a == 0 for _, a, _ in band.edges) or len({abs(w) for w, _, _ in band.edges} - {0}) < n - 1:
            raise NumericalError(
                f"block check failed at j_max={j_max} ({kind}): the block m={band.m} from j={band.js[0]} "
                "has a zero coupling, a zero edge frequency or two edge frequencies of equal |w|"
            )
        entry = (band, [])
        for other in by_size.get(n, []):
            if all(_square_trace_at(entry, q) == _square_trace_at(other, q) for q in range(1, 2 * n - 1)):
                raise NumericalError(
                    f"pair check failed at j_max={j_max} ({kind}): the blocks m={other[0].m} from "
                    f"j={other[0].js[0]} and m={band.m} from j={band.js[0]} may be linked, "
                    f"Tr Z_q^2 agree at q = 1..{2 * n - 2}"
                )
        by_size.setdefault(n, []).append(entry)
        dim += n * n - 1
    return dim, r


def block_trace_rank(j_max: int, kind: str) -> int:
    """Rank of the per-block trace matrix [Tr H0 | Tr O] over the invariant blocks, counted exactly.

    Orientation blocks are the m subspaces; alignment additionally resolves
    the parity of j.  The similarity T of _rational_observable leaves the
    traces alone and the m and -m blocks are equal, so the rows of the
    m >= 0 blocks span the matrix's row space.  Each row, scaled to the
    integers (Tr H0 * q, p) with Tr O = p / q, is tested against the first
    nonzero one by a 2 x 2 minor in Python integers.  cos(theta) is
    traceless in every block, so the orientation rank is 1; the alignment
    matrix carries two independent columns.
    """
    check_process_kind(kind)
    check_cutoff(j_max)
    return _trace_rank(_rational_observable(j_max, kind))


def _trace_rank(bands: list[_Band]) -> int:
    """block_trace_rank on the bands of _rational_observable."""
    rows = []
    for band in bands:
        p, q = _reduced_sum(band.diagonal)
        rows.append((sum(j * (j + 1) for j in band.js) * q, p))
    nonzero = [row for row in rows if row != (0, 0)]
    if not nonzero:
        return 0
    x0, y0 = nonzero[0]
    return 2 if any(x * y0 != y * x0 for x, y in nonzero) else 1


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

    One call of lie_closure gives dim_L and the trace rank r from one
    rational build; dim_L is D' itself.  D' bounds dim_L from above, so a
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
    obs = observable_matrix(basis, ORIENTATION)
    energies = h0_matrix(basis).diagonal
    m = j_max - 1
    couplings = []
    gaps = []
    for sign in (1, -1):
        a = basis.index_of(j_max - 1, sign * m)
        b = basis.index_of(j_max, sign * m)
        couplings.append(float(obs.stack[obs.blocks.find(sign * m, 0), j_max - 1, j_max].real))  # slot j holds |j, m>
        gaps.append(float(energies[b] - energies[a]))
    e0 = float(energies[basis.index_of(j_max - 1, m)])
    e1 = float(energies[basis.index_of(j_max, m)])
    if not abs(couplings[0] - couplings[1]) <= 1e-15:
        raise NumericalError(f"m = +-{m} couplings differ: {couplings[0]!r} and {couplings[1]!r}")
    if not abs(couplings[0] - 1.0 / np.sqrt(2 * j_max + 1)) <= 1e-12:
        raise NumericalError(f"m = {m} coupling {couplings[0]!r} is not 1/sqrt(2 j_max + 1)")
    return TwoLevelReport(
        j_max=j_max,
        coupling=couplings[0],
        e0=e0,
        e1=e1,
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
    frequency w.  H0 must couple no two blocks of B (ValueError), so
    neither does C.  Returns the entries of the filled within-block pairs
    (k, l), flattened block by block, their cluster labels (ascending in
    w), the label of w = 0 (labels above it are the positive frequencies)
    and the mask of those pairs in a block stack.
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
    seen = rho.regroup(functional.blocks, "state", np.inf).stack  # C couples no two blocks of B
    terms = (v.conj().transpose(0, 2, 1) @ seen @ v).transpose(0, 2, 1)[pairs] * c  # rho_lk C_kl
    traces = np.bincount(labels, weights=terms.real) + 1j * np.bincount(labels, weights=terms.imag)
    return bool(np.all(np.abs(traces) <= STATIONARY_TOL))
