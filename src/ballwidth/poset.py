"""Concrete posets induced by the two-sided subset order.

An element stands for two bit sets: which center elements were dropped
and which far-side elements were gained.  x <= y exactly when y drops a
subset of what x drops and gains a superset of what x gains; this is the
plain subset order on the represented sets, restricted to the family.

Cover steps move one bit at a time: restore one dropped center element,
gain one new far-side element, or, on a sphere, which holds no single
step, both at once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from itertools import accumulate, chain, combinations, repeat
from math import comb
from operator import add, itemgetter

from .combinatorics import (
    Ball,
    Coord,
    Family,
    GroundParams,
    Sphere,
    SublayerTable,
    build_table,
)
from .errors import BudgetExceededError, CustomPosetError, GradedQuotientError

DEFAULT_ELEMENT_BUDGET = 200000


@dataclass(eq=False)
class DiagramShape:
    """What a diagram's coordinate set alone decides, shared by its tuples.

    The coordinates in (height, i, j) order, the edges, the endpoints and
    the closed-form heights (see `_diagram_shape`) are read-only: every
    diagram with this coordinate set holds the same lists and dict, and
    `height_of` lists the coordinates in their tables' order.  The plans
    that route B and the certificate machinery read, in positions of
    `coords`, are built on first use, so a shape that neither reaches
    carries none; `search_layouts` holds the certificate search's network
    layouts, one per target height.
    """

    coords: list[Coord]
    edges: list[tuple[Coord, Coord]]
    source: Coord
    sink: Coord
    height_of: dict[Coord, int]
    search_layouts: dict[int, tuple] = field(default_factory=dict, repr=False)

    @cached_property
    def index(self) -> dict[Coord, int]:
        """Each coordinate's position in `coords`."""
        return {c: k for k, c in enumerate(self.coords)}

    @cached_property
    def layer_bounds(self) -> list[int]:
        """Where each height's run of `coords` starts, then len(coords)."""
        heights = list(map(self.height_of.__getitem__, self.coords))  # ascending
        return [bisect_left(heights, h) for h in range(heights[-1] + 2)]

    @cached_property
    def route_order(self) -> list[Coord]:
        """Route B's greedy order: rows i descending, each row's columns ascending."""
        return sorted(self.coords, key=lambda c: (-c[0], c[1]))

    @cached_property
    def route_edges(self) -> list[tuple[int, int, int, bool]]:
        """Each edge's tail as (position, i, j), and whether it is a restore."""
        return [(self.index[u], *u, v[0] < u[0]) for u, v in self.edges]

    @cached_property
    def heads(self) -> list[int]:
        """The head index of each edge, by edge number."""
        return [self.index[v] for _, v in self.edges]

    @cached_property
    def leaving(self) -> list[list[int]]:
        """The edge numbers leaving each coordinate index, smallest head first."""
        leaving: list[list[int]] = [[] for _ in self.coords]
        for e, (u, _) in enumerate(self.edges):
            leaving[self.index[u]].append(e)
        return leaving

    @cached_property
    def steps(self) -> frozenset[tuple[int, int]]:
        """The edges as (tail index, head index) pairs."""
        index = self.index
        return frozenset((index[u], index[v]) for u, v in self.edges)


@dataclass(frozen=True, slots=True)
class QuotientDag:
    """The coordinate-level cover diagram of one family, with its sizes.

    Everything but the sublayer table is its `shape`'s, shared (and
    read-only) with every family of the same coordinate set.
    """

    coords: list[Coord]
    edges: list[tuple[Coord, Coord]]
    source: Coord
    sink: Coord
    height_of: dict[Coord, int]
    table: SublayerTable
    shape: DiagramShape

    @property
    def top_height(self) -> int:
        return self.height_of[self.sink]

    def cover_count(self, u: Coord, v: Coord) -> int:
        """Upper covers in v of each element of u, for an edge u -> v.

        A restore has i choices, a gain q - j, and the diagonal both at once.
        """
        i, j = u
        free = self.table.params.q - j
        if v == (i - 1, j):
            return i
        if v == (i, j + 1):
            return free
        return i * free


@dataclass(eq=False)
class PosetInstance:
    """A poset on the ids 0..n-1, held as its covers and heights.

    A built ball or sphere also keeps its family's `QuotientDag`: its
    sublayers hold the elements in contiguous blocks, in `dag.coords`
    order, which the flow route reads as its cell grid and
    `family_subsets` decodes into the represented sets.  Custom posets
    have no diagram.  The order closure is the matching engine's input
    alone, so `up_masks()` builds it on each call and nothing keeps it.
    The one engine result kept here is the unit-weight extreme cuts, which
    the flow width and uniqueness share.
    """

    covers: list[list[int]]  # upper-cover adjacency, by element index
    height_of: list[int]
    dag: QuotientDag | None = None
    _unit_cuts: tuple[int, list[int], list[int]] | None = field(
        default=None, repr=False
    )

    def __len__(self) -> int:
        return len(self.covers)

    def up_masks(self) -> list[int]:
        """Strict up-set of every element, top-first: y at bit n - 1 - y.

        Built families list elements by height, so up[x] fits below the bit
        of the first element higher than x: about half of n bits on average.
        Built on every call and kept nowhere, as only the matching reads it.
        """
        up = [0] * len(self.covers)
        top = len(up) - 1
        for x in sorted(range(len(up)), key=self.height_of.__getitem__, reverse=True):
            acc = 1 << top - x  # closed up-sets while accumulating
            for y in self.covers[x]:
                acc |= up[y]
            up[x] = acc
        for x, closed in enumerate(up):
            up[x] = closed ^ (1 << top - x)
        return up

    def lower_covers(self) -> list[list[int]]:
        """The covers transposed, built on each call and kept nowhere."""
        lower: list[list[int]] = [[] for _ in self.covers]
        for x, ys in enumerate(self.covers):
            for y in ys:
                lower[y].append(x)
        return lower

    def is_antichain(self, members: list[int]) -> bool:
        """No member lies above another, searched breadth-first up the covers."""
        height_of, covers, wanted = self.height_of, self.covers, set(members)
        # every cover raises the height: no search above the highest member
        top = max((height_of[x] for x in wanted), default=-1)
        frontier, seen = wanted, set()
        while frontier:
            frontier = {y for x in frontier for y in covers[x] if height_of[y] <= top}
            if frontier & wanted:
                return False
            frontier -= seen
            seen |= frontier
        return True


def masks_with_popcount(width: int, k: int) -> list[int]:
    """All width-bit masks with exactly k bits set, ascending."""
    return sorted(sum(1 << b for b in bits) for bits in combinations(range(width), k))


# untruncated shapes kept by `_diagram_shape`: enough for one radius cycle
# of a sweep, which at p = q = 60 caches 61 balls and 60 more top spheres
SHAPE_CACHE_SIZE = 128


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _diagram_shape(coord_list: tuple[Coord, ...]) -> DiagramShape:
    """The diagram of a coordinate set, with its heights in closed form.

    A sphere is the one family whose coordinates all lie on one i + j: it
    steps diagonally, (i, j) -> (i - 1, j + 1); any other set is a ball,
    stepping by a restore (i - 1, j) and a gain (i, j + 1).  Edges come by
    tail in (i, j) order, restore before gain, so each tail's heads ascend.
    Every step raises the height by one, so with `top` the largest i a
    ball's heights are top - i + j and a sphere's top - i.  These are the
    longest-path heights once the endpoints are unique and the source sits
    at height 0, which is what is checked here; a raise is not cached.
    """
    coords = set(coord_list)
    ball = len({i + j for i, j in coords}) > 1
    moves = ((-1, 0), (0, 1)) if ball else ((-1, 1),)
    edges = [
        ((i, j), (i + di, j + dj))
        for i, j in sorted(coords)
        for di, dj in moves
        if (i + di, j + dj) in coords
    ]
    heads, tails = {v for _, v in edges}, {u for u, _ in edges}
    sources = [c for c in coord_list if c not in heads]
    sinks = [c for c in coord_list if c not in tails]
    if len(sources) != 1 or len(sinks) != 1:
        raise GradedQuotientError(
            f"need unique endpoints, found sources={sources}, sinks={sinks}"
        )
    source, sink = sources[0], sinks[0]

    top = max(i for i, _ in coords)
    height_of = {(i, j): top - i + (j if ball else 0) for i, j in coord_list}
    if height_of[source]:
        raise GradedQuotientError(
            f"source {source} sits at height {height_of[source]}, not 0"
        )
    ordered = sorted(coord_list, key=lambda c: (height_of[c], c))
    return DiagramShape(ordered, edges, source, sink, height_of)


def quotient_dag(params: GroundParams, family: Family) -> QuotientDag:
    """Coordinate diagram with closed-form heights and unique endpoints.

    Edges, endpoints and heights depend on the coordinate set alone, so
    they come from a shape shared by every family with that set: a ball's
    height is min(p, r) - i + j, a sphere's min(p, m) - i.  Only an
    untruncated family (radius or sphere index <= min(p, q)), whose set
    depends on that index alone, keeps its shape in a least-recently-used
    cache of SHAPE_CACHE_SIZE shapes; truncated sets rarely repeat.  Each
    shape is validated when built; an invalid set raises on every call.
    """
    table = build_table(params, family)
    index = family.m if isinstance(family, Sphere) else params.r
    cached = index <= min(params.p, params.q)
    s = (_diagram_shape if cached else _diagram_shape.__wrapped__)(tuple(table.sizes))
    return QuotientDag(s.coords, s.edges, s.source, s.sink, s.height_of, table, s)


def _chunks(flat: Iterable[int], size: int) -> Iterator[tuple[int, ...]]:
    """`flat` as consecutive tuples of `size` items; zip reuses each one."""
    return zip(*[iter(flat)] * size)


def _edge_picks(
    rows: Iterator[tuple[int, ...]],
    drop: tuple[int, ...] | None,
    gain: itemgetter | None,
    i: int,
    s: int,
) -> Iterator[tuple[int, ...]]:
    """Each tail element's covers along one edge, element by element.

    `rows` are the head block's rows of ids, `drop` the tail's drop steps,
    i per drop mask, None on a gain, and `gain` the pick of s gain steps
    per gain mask, None on a restore.
    """
    if drop is None:  # gain: one pick of row d gives the steps of every g
        return chain.from_iterable(map(_chunks, map(gain, rows), repeat(s)))
    steps = _chunks(drop, i)  # per d, the rows it steps to
    if gain is None:  # restore: those rows zipped give the steps of d, g by g
        rows = list(rows)
        return chain.from_iterable(zip(*[rows[x] for x in d]) for d in steps)
    # diagonal: the gain picks of those rows, side by side, joined
    picked = list(map(gain, rows))
    sides = chain.from_iterable(zip(*[_chunks(picked[x], s) for x in d]) for d in steps)
    return _chunks(chain.from_iterable(chain.from_iterable(sides)), i * s)


@lru_cache(maxsize=1)
def _step_tables(p: int, q: int):
    """(drops, gains): the step tables of one (p, q), filled on first use.

    A k-bit mask steps to the masks one bit flip away with t = k - 1 or
    k + 1 bits, whose ranks ascend as the flipped bit falls for t < k and
    as it rises for t > k.  `drops(i)` holds the ranks of every i-bit drop
    mask's (i - 1)-bit steps, i per mask, mask after mask, in one tuple;
    `gains(j)` picks those of every j-bit gain mask's (j + 1)-bit steps the
    same way, as one itemgetter.  A sweep varies r innermost and builds a
    ball and a sphere of each tuple, so one (p, q)'s tables serve many
    builds; the next (p, q) drops them.
    """
    masks = cache(masks_with_popcount)

    def steps(width: int, k: int, t: int) -> list[int]:
        rank = {m: r for r, m in enumerate(masks(width, t))}
        flips = [1 << b for b in range(width)]
        if t < k:
            flips.reverse()
        return [rank[m ^ f] for m in masks(width, k) for f in flips if m ^ f in rank]

    @cache
    def drops(i: int) -> tuple[int, ...]:
        return tuple(steps(p, i, i - 1))

    @cache
    def gains(j: int) -> itemgetter:
        ranks = steps(q, j, j + 1)
        if len(ranks) == 1:  # itemgetter returns one item bare, a slice as a tuple
            return itemgetter(slice(0, 1))
        return itemgetter(*ranks)

    return drops, gains


def _build_family(
    params: GroundParams, family: Family, element_budget: int
) -> PosetInstance:
    """The elements of a family, in blocks, with their covers and heights.

    Block c = (i, j) is its drop masks times its gain masks, each ascending:
    element (d, g) sits at start[c] + d * C(q, j) + g, so the block is a
    table of ids with a row per drop mask.  An edge c -> c' steps each side
    by one flip or none, so (d, g) covers (d', g') of c' for every side
    step d -> d' and g -> g', row by row.  Each edge's covers are picked
    from whole rows of the target block: a restore keeps g, so zipping the
    rows that d steps to gives them column by column; a gain keeps d, so
    one pick of row d gives the steps of every g; a sphere's diagonal takes
    that pick of each row d steps to, side by side.  Edges come by tail,
    then head, so each cover list is ascending.  It is made at its final
    length from tuples that zip reuses, or one concatenation, so few
    short-lived tuples are left behind, and it holds the shared ints of
    `ids`.
    """
    dag = quotient_dag(params, family)
    total = dag.table.total
    if total > element_budget:
        raise BudgetExceededError(total, element_budget)

    drops, gains = _step_tables(params.p, params.q)
    p, q = params.p, params.q
    sizes = [dag.table.sizes[c] for c in dag.coords]  # already (height, i, j) ordered
    start = dict(zip(dag.coords, accumulate(sizes, initial=0)))
    # per tail, each edge's head and step tables, looked up before the
    # elements are made so that new tables are not scattered among them
    edges: dict[Coord, list[tuple]] = {}
    for (i, j), (ti, tj) in dag.edges:  # by tail, restore before gain, as built
        steps = (drops(i) if ti < i else None, gains(j) if tj > j else None)
        edges.setdefault((i, j), []).append((ti, tj, *steps))

    ids = tuple(range(total))
    height_of: list[int] = []
    covers: list[list[int]] = []
    for c, size in zip(dag.coords, sizes):
        height_of += [dag.height_of[c]] * size
        i, j = c
        parts = []  # per edge, each element's covers into its head, element by element
        for ti, tj, drop, gain in edges.get(c, ()):
            base, width = start[ti, tj], comb(q, tj)
            end = base + comb(p, ti) * width
            bounds = map(slice, range(base, end, width), range(base + width, end + width, width))
            parts.append(_edge_picks(map(ids.__getitem__, bounds), drop, gain, i, q - j))
        if not parts:
            parts.append(repeat((), size))
        covers += map(list, map(add, *parts) if len(parts) == 2 else parts[0])
    return PosetInstance(covers, height_of, dag)


def family_subsets(instance: PosetInstance, ids: Iterable[int]) -> list[frozenset[int]]:
    """The subset of {1..p+q} that each of `ids` in a built family represents.

    Decodes `_build_family`'s layout: block (i, j) lists its drop masks
    times its gain masks, each ascending; dropped center bit k removes
    k + 1 and gained far bit k adds p + k + 1.  Only the masks of blocks
    that hold one of `ids` are listed.
    """
    dag = instance.dag
    p, q = dag.table.params.p, dag.table.params.q
    starts = list(accumulate((dag.table.sizes[c] for c in dag.coords), initial=0))
    masks = cache(masks_with_popcount)
    subsets: list[frozenset[int]] = []
    for x in ids:
        if not 0 <= x < starts[-1]:
            raise ValueError(f"element id {x} is not in 0..{starts[-1] - 1}")
        block = bisect_right(starts, x) - 1
        i, j = dag.coords[block]
        d, g = divmod(x - starts[block], len(masks(q, j)))
        drop, gain = masks(p, i)[d], masks(q, j)[g]
        kept = [k + 1 for k in range(p) if not drop >> k & 1]
        subsets.append(frozenset(kept + [p + k + 1 for k in range(q) if gain >> k & 1]))
    return subsets


def build_ball(
    params: GroundParams, element_budget: int = DEFAULT_ELEMENT_BUDGET
) -> PosetInstance:
    """Every element within radius r of the center set."""
    return _build_family(params, Ball(), element_budget)


def build_sphere(
    params: GroundParams, m: int, element_budget: int = DEFAULT_ELEMENT_BUDGET
) -> PosetInstance:
    """Every element at distance exactly m from the center set."""
    return _build_family(params, Sphere(m), element_budget)


def load_custom_poset(
    document: object, element_budget: int = DEFAULT_ELEMENT_BUDGET
) -> PosetInstance:
    """Build a poset from {"elements": n, "relations": [[u, v], ...]}.

    Each pair asserts u strictly below v; the order is the transitive
    closure of the pairs and must be acyclic.  The element count is held
    to the budget before the relations are read.  Heights and covers come
    from the pairs in topological order; only `up_masks()` builds the closure.
    """
    if not isinstance(document, dict):
        raise CustomPosetError("document must be an object with elements/relations")
    try:
        n = document["elements"]
    except KeyError:
        raise CustomPosetError("missing element count") from None
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise CustomPosetError(f"element count must be a natural number, got {n!r}")
    if n > element_budget:
        raise BudgetExceededError(n, element_budget)
    relations = document.get("relations", [])
    if not isinstance(relations, list):
        raise CustomPosetError("relations must be a list of [below, above] pairs")

    succ: list[list[int]] = [[] for _ in range(n)]
    below = [0] * n  # pairs naming each element as the upper end
    for pos, pair in enumerate(relations):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
        ):
            raise CustomPosetError(f"relation #{pos} is not an id pair: {pair!r}")
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise CustomPosetError(
                f"relation #{pos} refers to unknown ids: {pair!r} with {n} elements"
            )
        if u == v:
            raise CustomPosetError(f"relation #{pos} makes {u} below itself")
        succ[u].append(v)
        below[v] += 1

    # Kahn; heights are longest chains of pairs, as every cover is a pair
    waiting = below[:]
    order = [u for u in range(n) if not waiting[u]]
    height_of = [0] * n
    for u in order:
        for v in succ[u]:
            height_of[v] = max(height_of[v], height_of[u] + 1)
            waiting[v] -= 1
            if not waiting[v]:
                order.append(v)
    if len(order) < n:
        raise CustomPosetError("the order contains a cycle")

    # covers: successors in no other successor's up-set, which is dropped
    # once the last element below it has read it
    up: list = [None] * n
    covers: list[list[int]] = [[]] * n  # every entry is replaced
    for u in reversed(order):
        above = bits = 0
        for v in succ[u]:
            above |= up[v]
            bits |= 1 << v
            below[v] -= 1
            if not below[v]:
                up[v] = None
        covers[u] = sorted({v for v in succ[u] if not above >> v & 1})
        if below[u]:
            up[u] = above | bits

    return PosetInstance(covers, height_of)
