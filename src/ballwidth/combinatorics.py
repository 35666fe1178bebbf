"""Exact counting for two-sided subset families.

The ground set [n] = {1..p} u {p+1..p+q} is viewed relative to the fixed
center set {1..p}.  A member of the family is described by how many center
elements it drops (i) and how many far-side elements it gains (j); all sets
with the same (i, j) form one sublayer of size C(p,i) * C(q,j).

Everything here is pure integer / rational arithmetic.  No floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable

from .errors import InternalConsistencyError

Coord = tuple[int, int]


@dataclass(frozen=True, slots=True)
class GroundParams:
    """Problem parameters: center size p, far side size q, radius r."""

    p: int
    q: int
    r: int

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.q < 0:
            raise ValueError(f"q must be >= 0, got {self.q}")
        if self.r < 0:
            raise ValueError(f"r must be >= 0, got {self.r}")

    @property
    def n(self) -> int:
        return self.p + self.q


@dataclass(frozen=True, slots=True)
class Ball:
    """All coordinates with i + j <= r (radius taken from the params)."""


@dataclass(frozen=True, slots=True)
class Sphere:
    """All coordinates with i + j = m."""

    m: int


Family = Ball | Sphere


def binomial(n: int, k: int) -> int:
    """C(n, k), exactly; 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial arguments must be non-negative, got ({n}, {k})")
    return math.comb(n, k)


def _check_coord(params: GroundParams, i: int, j: int) -> None:
    if not (0 <= i <= params.p and 0 <= j <= params.q):
        raise ValueError(
            f"coordinate ({i}, {j}) out of bounds for p={params.p}, q={params.q}"
        )


def sublayer_size(params: GroundParams, c: Coord) -> int:
    """Number of sets dropping exactly i center and gaining j far elements."""
    i, j = c
    _check_coord(params, i, j)
    return math.comb(params.p, i) * math.comb(params.q, j)


def _level_coords(params: GroundParams, s: int) -> Iterable[Coord]:
    # coordinates with i + j = s, listed with descending i
    hi = min(params.p, s)
    lo = max(0, s - params.q)
    for i in range(hi, lo - 1, -1):
        yield (i, s - i)


def family_coords(params: GroundParams, family: Family) -> list[Coord]:
    """Coordinates of a family, ordered by (i+j ascending, i descending)."""
    if isinstance(family, Sphere):
        if not 0 <= family.m <= params.n:
            raise ValueError(f"sphere index {family.m} out of range for n={params.n}")
        levels = range(family.m, family.m + 1)
    else:
        levels = range(0, min(params.r, params.n) + 1)
    return [c for s in levels for c in _level_coords(params, s)]


@dataclass(frozen=True, slots=True)
class SublayerTable:
    """Exact sublayer sizes for one family."""

    params: GroundParams
    family: Family
    sizes: dict[Coord, int]

    @property
    def total(self) -> int:
        return sum(self.sizes.values())


def build_table(params: GroundParams, family: Family = Ball()) -> SublayerTable:
    # family_coords yields only in-bounds coordinates: one binomial row a side
    center, far = ([math.comb(n, k) for k in range(n + 1)] for n in (params.p, params.q))
    sizes = {(i, j): center[i] * far[j] for i, j in family_coords(params, family)}
    return SublayerTable(params, family, sizes)


def heaviest_sublayer_chain(table: SublayerTable) -> tuple[int, int]:
    """The heaviest antichain of a ball's sublayers: (weight, how many).

    Sublayer (i, j) lies below (i', j') exactly when i' <= i and j' >= j,
    so the antichains of sublayers are the sequences increasing strictly in
    both i and j, weighted by the sizes C(p, i) * C(q, j).  Comparability
    graphs are perfect, so the ball's width is the optimum of its fractional
    antichain LP; S_p x S_q is transitive on each sublayer, so averaging an
    optimum over the group makes it constant on sublayers: the weight is the
    width.  The least and the greatest maximum antichains are invariant
    under the group, so they are sublayer sequences: the maximum antichain
    is unique iff the count is 1.  A prefix-maximum DP in O(sublayers).
    """
    if isinstance(table.family, Sphere):
        raise ValueError("the sublayer-chain width needs a ball table")
    params = table.params
    cols = range(min(params.q, params.r) + 1)
    # done[j]: the heaviest sequences ending in the rows so far at a column
    # <= j, as (weight, count); before the first row only the empty one
    done = [(0, 1)] * len(cols)
    for i in range(min(params.p, params.r) + 1):
        # run: the heaviest ending in row i; left: the old done[j - 1]
        run, left = (0, 0), (0, 1)
        for j in cols:
            if (i, j) in table.sizes:
                run = _heavier(run, (left[0] + table.sizes[(i, j)], left[1]))
            left, done[j] = done[j], _heavier(done[j], run)
    return done[-1]


def sublayer_chain_cover(dag, demand: dict[Coord, int]) -> tuple[dict[Coord, int], list[int]]:
    """Route B: a minimum chain cover of a family's sublayers, as a flow.

    The primal of `heaviest_sublayer_chain`, on a `poset.QuotientDag`:
    (through, flows), the chains through each sublayer and along each edge
    of `dag.edges`, at least `demand` through each sublayer, entering at
    the source and leaving at the sink.  A sphere's sublayers form a path,
    so every one carries the largest demand.  A ball's sublayer (i', j')
    lies above (i, j) when i' <= i and j' >= j, a 2-dimensional order, whose
    heaviest antichain a greedy chain cover meets (patience sorting; Greene,
    "Some partitions associated with a partially ordered set", 1976):
    rows i descending, each row's columns ascending, each sublayer takes the
    open chains whose column is at most j, largest column first, and opens
    the rest at the source; chains still open at the end go to the
    sink.  A chain steps from a to b by restores down a's column, then
    gains along b's row, inside the ball at every radius; the steps add up
    in one difference array per column and one per row.  The order and
    each edge's tail are the plans of the diagram's shape.
    """
    if isinstance(dag.table.family, Sphere):
        top = max(demand.values())
        return dict.fromkeys(dag.coords, top), [top] * len(dag.edges)
    (bottom, _), (_, right) = dag.source, dag.sink
    down = [[0] * (bottom + 1) for _ in range(right + 1)]  # restores, by column and row
    gain = [[0] * (right + 1) for _ in range(bottom + 1)]  # gains, by row and column
    # [row, chains] open at each column, nearest row last; the source sits
    # below them all in column 0, with more chains than the demand takes
    tails: list[list[list[int]]] = [[] for _ in range(right + 1)]
    spare = sum(demand.values()) + 1
    tails[0].append([bottom, spare])
    for i, j in dag.shape.route_order:
        need = left = demand[i, j]
        if not left:
            continue
        # a chain from (row, col) adds m at down[col][row] and gain[i][col],
        # and takes it off at down[col][i] and, all at once, at gain[i][j]
        gain[i][j] -= need
        for col in range(j, -1, -1):
            stack, column = tails[col], down[col]
            while left and stack:
                tail = stack[-1]
                m = tail[1]
                if m > left:
                    m = left
                    tail[1] -= m
                else:
                    stack.pop()
                column[tail[0]] += m
                column[i] -= m
                gain[i][col] += m
                left -= m
            if not left:
                break
        tails[j].append([i, need])
    value = spare - tails[0].pop(0)[1]
    for col, stack in enumerate(tails):  # into the sink (0, right)
        for row, m in stack:
            down[col][row] += m
            down[col][0] -= m
            gain[0][col] += m
    gain[0][right] -= value

    # a restore out of (i, j) carries the chains from rows >= i; a gain the
    # chains from columns <= j
    down = [list(accumulate(reversed(column)))[::-1] for column in down]
    gain = [list(accumulate(row)) for row in gain]
    through = [0] * len(dag.coords)
    through[-1] = value  # the sink comes last
    flows = []
    for k, i, j, restore in dag.shape.route_edges:
        flows.append(down[j][i] if restore else gain[i][j])
        through[k] += flows[-1]
    return dict(zip(dag.coords, through)), flows


def _heavier(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    # a and b count disjoint sets of sequences, so on a tie the counts add
    return max(a, b) if a[0] != b[0] else (a[0], a[1] + b[1])


@dataclass(frozen=True, slots=True)
class LayerProfile:
    """Total size per height, with the maximising heights."""

    heights: dict[int, int]
    argmax: list[int]
    tie: bool

    @property
    def max_size(self) -> int:
        return self.heights[self.argmax[0]]


def profile_from_sizes(sizes_by_height: dict[int, int]) -> LayerProfile:
    if not sizes_by_height:
        raise ValueError("empty height map")
    heights = dict(sorted(sizes_by_height.items()))
    best = max(heights.values())
    argmax = [h for h, v in heights.items() if v == best]
    return LayerProfile(heights, argmax, len(argmax) > 1)


def layer_profile(dag) -> LayerProfile:
    """Total sublayer size per height of a family's `poset.QuotientDag`.

    The heights are the diagram's closed form, so this holds in every
    regime, truncated radii included.  Every height from 0 to the top holds
    a sublayer, and `height_of` lists them in the table's order.
    """
    agg = [0] * (dag.top_height + 1)
    for h, size in zip(dag.height_of.values(), dag.table.sizes.values()):
        agg[h] += size
    return profile_from_sizes(dict(enumerate(agg)))


def ratio(params: GroundParams, i: int, j: int) -> Fraction:
    """Size quotient of the two sublayers one step apart on a sphere.

    Equals sublayer_size(i-1, j) / sublayer_size(i, j-1) as an exact
    rational, computed from the closed form (q-j+1)i / ((p-i+1)j).
    """
    if i < 1 or j < 1:
        raise ValueError(f"ratio needs i >= 1 and j >= 1, got ({i}, {j})")
    if i > params.p or j > params.q:
        raise ValueError(
            f"ratio needs i <= p and j <= q, got ({i}, {j}) with "
            f"p={params.p}, q={params.q}"
        )
    return Fraction((params.q - j + 1) * i, (params.p - i + 1) * j)


@dataclass(frozen=True, slots=True)
class MonotonicityVerdict:
    holds: bool
    # first offending position: (index, ratio there, larger ratio after it)
    violation: tuple[int, Fraction, Fraction] | None = None


def check_ratio_monotone(params: GroundParams, radius: int) -> MonotonicityVerdict:
    """Check the step ratios along one sphere are non-increasing in j.

    The step from (i, j-1) to (i-1, j) on sphere radius has size ratio
    ratio(i, j) with i + j = radius + 1; the whole sequence over valid j
    must never increase.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    lo = max(1, radius + 1 - params.p)
    hi = min(radius, params.q)
    terms = [(j, ratio(params, radius + 1 - j, j)) for j in range(lo, hi + 1)]
    for (j, a), (_, b) in zip(terms, terms[1:]):
        if a < b:  # ratio increased
            return MonotonicityVerdict(False, (j, a, b))
    return MonotonicityVerdict(True)


def largest_sphere_sublayer(
    params: GroundParams, m: int
) -> tuple[list[Coord], Coord]:
    """Argmax sublayers of sphere m, plus the closed-form rounded choice.

    The rounded coordinate solves (i+1)/j = (p+1)/(q+1) with i + j = m,
    taking j down and i up (clamped into the sphere's valid range); it
    must land inside the argmax set.
    """
    if not 0 <= m <= params.n:
        raise ValueError(
            f"sphere index must satisfy 0 <= m <= p + q, got {m} "
            f"with p={params.p}, q={params.q}"
        )
    sizes = {c: sublayer_size(params, c) for c in _level_coords(params, m)}
    best = max(sizes.values())
    coords = [c for c, v in sizes.items() if v == best]  # descending i
    exact = Fraction(m * (params.p + 1) - (params.q + 1), params.p + params.q + 2)
    i0 = min(min(params.p, m), max(0, m - params.q, math.ceil(exact)))
    rounding = (i0, m - i0)
    if rounding not in coords:
        raise InternalConsistencyError(
            f"rounded coordinate {rounding} missed the argmax set {coords} "
            f"on sphere {m} of p={params.p}, q={params.q}"
        )
    return coords, rounding


@dataclass(frozen=True, slots=True)
class MarginVerdict:
    holds: bool
    slack: int


def zigzag_margin(params: GroundParams, c: Coord) -> MarginVerdict:
    """Exact slack of size(i,j) - size(i+1,j-1) - size(i,j-2).

    Non-negative slack means a descending stream through (i, j) can pay
    for the sideways sublayer and still cover the one two steps below.
    """
    i, j = c
    if j < 2:
        raise ValueError(f"margin needs j >= 2, got j={j}")
    if i + 1 > params.p:
        raise ValueError(f"margin needs i + 1 <= p, got i={i}, p={params.p}")
    slack = (
        sublayer_size(params, (i, j))
        - sublayer_size(params, (i + 1, j - 1))
        - sublayer_size(params, (i, j - 2))
    )
    return MarginVerdict(slack >= 0, slack)


def multiset_layer_sizes(multiplicities: Iterable[int]) -> list[int]:
    """Coefficients of prod_i (1 + x + ... + x^mu_i).

    Entry h counts the sub-multisets of total size h; no multiplicities at
    all gives the single-element family [1].
    """
    coeffs = [1]
    for mu in multiplicities:
        if mu < 1:
            raise ValueError(f"multiplicities must be >= 1, got {mu}")
        out = [0] * (len(coeffs) + mu)
        for h, v in enumerate(coeffs):
            for t in range(mu + 1):
                out[h + t] += v
        coeffs = out
    return coeffs


def check_multiset_ratio_monotone(
    multiplicities: Iterable[int],
) -> MonotonicityVerdict:
    """Check the consecutive layer-size ratios never increase.

    Equivalent to log-concavity of the size sequence; verified by integer
    cross-multiplication, no division.
    """
    a = multiset_layer_sizes(multiplicities)
    for h in range(1, len(a) - 1):
        if a[h] * a[h] < a[h - 1] * a[h + 1]:
            return MonotonicityVerdict(
                False, (h, Fraction(a[h], a[h - 1]), Fraction(a[h + 1], a[h]))
            )
    return MonotonicityVerdict(True)
