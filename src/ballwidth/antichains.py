"""Width, uniqueness and heaviest antichains of a finite poset.

Two engines that must agree:

* a bipartite matching over the comparability relation (Dilworth through
  Koenig's theorem) gives the width and a maximum antichain;
* a minimum flow with per-element lower bounds gives the heaviest
  antichain under nonnegative integer weights.  One routine, `_heaviest`,
  starts it from the cell grid's min-flow lifted onto the elements, else
  from first-cover chains.  On a ball or sphere the grid's flow is route B,
  the greedy chain cover `combinatorics.sublayer_chain_cover` reads off
  the diagram; a custom poset's height layers form one path that carries
  its largest demand, as a sphere's does, so no min-flow runs on cells.
  Either lift is an optimum, so no network is built.  The element flow
  cancels on a network only when its start is not minimum, and both
  extreme cuts `_residual_sides` reads off the final flow are checked.

The sweep cross-checks the two values on every ball it verifies, and a
disagreement raises InternalConsistencyError, never a wrong answer.
Uniqueness needs the flow alone: its two extreme cuts bound every maximum
antichain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import lcm
from operator import gt

from .combinatorics import Coord, sublayer_chain_cover
from .errors import BudgetExceededError, InternalConsistencyError
from .flows import FlowNetwork
from .matching import hopcroft_karp
from .poset import PosetInstance

DEFAULT_MATCHING_BUDGET = 20000


@dataclass(frozen=True)
class AntichainWitness:
    """Pairwise incomparable element indices, ascending."""

    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class KlymVerdict:
    holds: bool
    max_lym_sum: Fraction
    witness: AntichainWitness


def width(
    instance: PosetInstance, matching_budget: int = DEFAULT_MATCHING_BUDGET
) -> tuple[int, AntichainWitness]:
    """Longest antichain size plus one witness antichain of that size.

    Each call matches over a fresh order closure and reads the König
    antichain off the last layering; nothing is memoised.
    """
    n = len(instance)
    if n > matching_budget:
        raise BudgetExceededError(n, matching_budget, "elements for matching")
    _, _, msize, members = hopcroft_karp(instance.up_masks())
    w = n - msize
    if len(members) != w or not instance.is_antichain(members):
        raise InternalConsistencyError(
            f"matching says width {w} but the extracted witness has "
            f"{len(members)} members"
        )
    return w, AntichainWitness(tuple(members))


def _chain_start(
    instance: PosetInstance, weights: list[int], lowers: list[list[int]]
) -> tuple[list[int], list[list[int]]]:
    """A feasible flow along first-cover chains, in `_min_flow`'s start form.

    Height by height, each element passes what reaches it along its first
    upper cover (`passed`); any shortfall below its weight climbs to it from
    a minimal element along first lower covers (`climb`).  On a chain the
    value is the largest weight, so the start is minimum.
    """
    covers = instance.covers
    order = sorted(range(len(instance)), key=instance.height_of.__getitem__)
    inflow = [0] * len(instance)
    passed = [0] * len(instance)
    for x in order:
        passed[x] = max(inflow[x], weights[x])
        if covers[x]:
            inflow[covers[x][0]] += passed[x]
    climb = [p - f for p, f in zip(passed, inflow)]  # each element's shortfall
    for x in reversed(order):
        if lowers[x]:
            climb[lowers[x][0]] += climb[x]
    through = [f + c for f, c in zip(inflow, climb)]
    cover_flow = [
        [
            (passed[x] if k == 0 else 0) + (climb[y] if lowers[y][0] == x else 0)
            for k, y in enumerate(ys)
        ]
        for x, ys in enumerate(covers)
    ]
    return through, cover_flow


def _residual_sides(
    instance: PosetInstance,
    weights: list[int],
    through: list[int],
    cover_flow: list[list[int]],
    lowers: list[list[int]],
) -> tuple[list[int], list[int]] | None:
    """(from_t, from_s): the two cuts of a minimum flow; None if t reaches s.

    One pass over the covers checks the flow first: one that breaks
    conservation or a lower bound raises InternalConsistencyError.  The
    arcs are those of `_min_flow`'s network holding the flow, each element
    split into in(x) -> out(x): in -> out, out(x) -> in(y) on a cover, s ->
    in and out -> t are always open; out -> in iff the throughput exceeds
    the weight, other reverse arcs iff they carry flow.  Each side is a
    stack walk over the covers; the t-side walk gives up as soon as it
    reaches s.  A cut holds the elements of positive weight whose out node
    (from_t) or in node (from_s) alone is on its side.  `lowers` is
    `instance.lower_covers()`, which `_min_flow` builds once per min-flow.
    """
    n = len(instance)
    covers = instance.covers
    if len(through) != n or len(cover_flow) != n:
        raise InternalConsistencyError(f"starting flow is not over {n} elements")
    row = None
    for x, ys, flows, f in zip(range(n), covers, cover_flow, through):
        if flows is not row:  # a lift shares one row of flows per cell
            row, out, negative = flows, sum(flows), min(flows, default=0) < 0
        if negative or len(ys) != len(flows):
            raise InternalConsistencyError(f"starting flow is malformed at element {x}")
        if ys and out != f:
            raise InternalConsistencyError(
                f"starting flow leaves element {x} with {out} units, "
                f"not its throughput {f}"
            )
    inflow = [0] * n
    # every row of flows is as long as its covers, so the flat lists align
    for y, g in zip(chain.from_iterable(covers), chain.from_iterable(cover_flow)):
        inflow[y] += g
    for x, (zs, f_in, f, w) in enumerate(zip(lowers, inflow, through, weights)):
        if zs and f_in != f:
            raise InternalConsistencyError(
                f"starting flow brings {f_in} units into element {x}, "
                f"not its throughput {f}"
            )
        if f < w:
            raise InternalConsistencyError(
                f"starting flow carries {f} units through element {x}, "
                f"below its weight {w}"
            )
    del inflow
    slack = [f > w for f, w in zip(through, weights)]  # out(x) -> in(x) open

    # t side: t -> out(x) on a maximal element with flow; out(x) reaches in(y)
    # on every cover and in(x) over slack; in(y) reaches out(y), out(x) on
    # each carried lower cover, and s on a minimal element with flow
    t_in, t_out = bytearray(n), bytearray(n)
    stack = [x for x, ys in enumerate(covers) if not ys and through[x]]
    for x in stack:
        t_out[x] = 1
    while stack:
        x = stack.pop()
        for y in [*covers[x], x] if slack[x] else covers[x]:
            if t_in[y]:
                continue
            t_in[y] = 1
            if through[y] and not lowers[y]:
                return None
            if not t_out[y]:
                t_out[y] = 1
                stack.append(y)
            for z in lowers[y]:
                if not t_out[z] and cover_flow[z][covers[z].index(y)]:
                    t_out[z] = 1
                    stack.append(z)

    # s side, walked backwards: in(y) -> s on a minimal element with flow;
    # in(y) is reached from out(z) on every lower cover and from out(y) over
    # slack; out(z) from in(z), and from in(y) on each carried upper cover
    s_in, s_out = bytearray(n), bytearray(n)
    stack = [y for y, zs in enumerate(lowers) if not zs and through[y]]
    for y in stack:
        s_in[y] = 1
    while stack:
        y = stack.pop()
        for z in [*lowers[y], y] if slack[y] else lowers[y]:
            if s_out[z]:
                continue
            s_out[z] = 1
            if not s_in[z]:
                s_in[z] = 1
                stack.append(z)
            for v, f in zip(covers[z], cover_flow[z]):
                if f and not s_in[v]:
                    s_in[v] = 1
                    stack.append(v)
    from_t = [x for x in compress(range(n), map(gt, t_out, t_in)) if weights[x] > 0]
    return from_t, [x for x in compress(range(n), map(gt, s_in, s_out)) if weights[x] > 0]


def _min_flow(
    instance: PosetInstance,
    weights: list[int],
    start: tuple[list[int], list[list[int]]] | None = None,
):
    """Minimum flow meeting per-element lower bounds `weights`.

    `start` is a feasible flow to cancel from: the units through each
    element, and the units along each of its upper covers, parallel to
    `instance.covers`.  Minimal elements draw their throughput from the
    source, maximal ones send it to the sink.  Without one the first-cover
    chain start is used; `_residual_sides` checks it and reads its cuts.

    If t reaches s there, a network holding the start cancels flow from t
    back to s, and the same read checks the cancelled flow and takes its
    cuts, raising InternalConsistencyError if t still reaches s.  The cuts
    are the same for every minimum flow, so the start never changes a cut.

    Returns (value, (from_t, from_s), (through, cover_flow)): the two cuts
    of the final flow, and that flow in the start's form.
    """
    n = len(instance)
    covers, lowers = instance.covers, instance.lower_covers()
    s, t = 2 * n, 2 * n + 1
    through, cover_flow = start if start is not None else _chain_start(instance, weights, lowers)
    del start
    cuts = _residual_sides(instance, weights, through, cover_flow, lowers)
    total = sum(f for x, f in enumerate(through) if not lowers[x])
    if cuts is not None:
        return total, cuts, (through, cover_flow)

    inf = 4 * max(total, sum(weights)) + 8
    net = FlowNetwork(2 * n + 2)
    for x in range(n):
        f = through[x]
        net.add_pair(2 * x, 2 * x + 1, inf - f, f - weights[x])
    slots = [
        [net.add_pair(2 * x + 1, 2 * y, inf - f, f) for y, f in zip(ys, cover_flow[x])]
        for x, ys in enumerate(covers)
    ]
    del cover_flow
    for x in range(n):
        f = through[x]
        if not lowers[x]:
            net.add_pair(s, 2 * x, inf - f, f)
        if not covers[x]:
            net.add_pair(2 * x + 1, t, inf - f, f)

    # cancelling flow from t back to s minimises the total
    value = total - net.max_flow(t, s)
    # slot 2x is element x's pair, which carries its throughput above its weight
    through = [w + net.flow_on(2 * x) for x, w in enumerate(weights)]
    cover_flow = [[net.flow_on(e) for e in row] for row in slots]
    cuts = _residual_sides(instance, weights, through, cover_flow, lowers)
    if cuts is None:
        raise InternalConsistencyError("the cancelled flow is not minimum")
    return value, cuts, (through, cover_flow)


def _grid_start(instance: PosetInstance, weights: list[int]) -> tuple[int, tuple] | None:
    """(L, start): a minimum flow of the cell grid, lifted onto the elements.

    None unless each cell X_c has one weight w_c and every element of X_c
    sends d(c -> c') covers into each X_c' in the same order, and None when
    every cell holds one element.  A built ball or sphere reads its grid
    off its diagram: the cells are the sublayers, whose elements sit in
    blocks in `dag.coords` order, and d is `cover_count`.  Route B
    (`sublayer_chain_cover`) gives the grid's min-flow (T, F) with demand
    w_c |X_c|.  Any other poset's cells are its heights (`_height_start`):
    each element above height 0 has a lower cover one height down, so the
    grid is the path h -> h + 1, and a cover that skips a height only adds
    a side edge.  As on a sphere, every cell carries the largest demand T
    and a skipping edge carries 0, so no min-flow runs on the cells.  With
    L = lcm(|X_c|, |X_c| d(c -> c')) each element of X_c carries
    T_c L / |X_c|, sends F(c -> c') L / (|X_c| d(c -> c')) along each cover
    into X_c' and weighs w_c L, all integral.  On a ball or sphere S_p x S_q
    is transitive on each sublayer, so the lift's value is L times the
    heaviest antichain (orbit averaging: comparability graphs are perfect,
    Lovasz 1972); on a height path it is T L, the weight of the heaviest
    height layer.  Either way the lift is minimum.  `_residual_sides` checks
    the lift on the elements, so a wrong grid flow costs a cancel or raises,
    and never moves a cut.
    """
    dag = instance.dag
    if dag is None:
        return _height_start(instance, weights)
    sizes = dag.table.sizes
    if len(sizes) == len(instance):  # every cell one element: the grid is the poset itself
        return None
    demand = {}
    first = 0
    for c in dag.coords:
        block = weights[first : first + sizes[c]]
        if block.count(block[0]) != sizes[c]:
            return None
        demand[c] = block[0] * sizes[c]
        first += sizes[c]
    through, flows = sublayer_chain_cover(dag, demand)
    # a zero count, which no sound diagram has, leaves a short row for the
    # element check to refuse
    degree = [dag.cover_count(u, v) for u, v in dag.edges]
    scale = lcm(*sizes.values(), *(sizes[u] * max(d, 1) for (u, _), d in zip(dag.edges, degree)))
    rows: dict[Coord, list[int]] = {c: [] for c in dag.coords}
    for (u, _), f, d in zip(dag.edges, flows, degree):  # by tail, smallest head first, as built
        rows[u] += [f * scale // (sizes[u] * max(d, 1))] * d
    lifted: list[int] = []
    row_flows: list[list[int]] = []
    for c in dag.coords:
        lifted += [through[c] * scale // sizes[c]] * sizes[c]
        row_flows += [rows[c]] * sizes[c]
    return scale, (lifted, row_flows)


def _height_start(instance: PosetInstance, weights: list[int]) -> tuple[int, tuple] | None:
    """`_grid_start` for a poset with no diagram: its heights are the cells.

    Every element of a height must weigh the same, send its covers into
    the same ordered row of heights and take its lower covers from the
    same row, else None; None too when every height holds one element.
    """
    height_of = instance.height_of
    sizes = [0] * (max(height_of, default=-1) + 1)
    if len(sizes) == len(height_of):  # every height one element: the grid is the poset itself
        return None
    rows: dict[int, tuple] = {}  # height -> (weight, upper-cover heights, lower-cover heights)
    for x, (ys, zs) in enumerate(zip(instance.covers, instance.lower_covers())):
        h = height_of[x]
        row = (weights[x], [height_of[y] for y in ys], [height_of[z] for z in zs])
        if rows.setdefault(h, row) != row:
            return None
        sizes[h] += 1
    # each element above height 0 has a lower cover one height down, so the
    # path h -> h + 1 carries the largest demand; a skipping cover carries 0
    top = max(rows[h][0] * size for h, size in enumerate(sizes))
    degree = [rows[h][1].count(h + 1) for h in range(len(sizes))]
    scale = lcm(*sizes, *(size * max(d, 1) for size, d in zip(sizes, degree)))
    through = [top * scale // size for size in sizes]
    row_flows = [
        [through[h] // d if v == h + 1 else 0 for v in rows[h][1]]
        for h, d in enumerate(degree)
    ]
    return scale, ([through[h] for h in height_of], [row_flows[h] for h in height_of])


def _heaviest(
    instance: PosetInstance, weights: list[int]
) -> tuple[int, list[int], list[int]]:
    """(value, from_t, from_s): the heaviest weight and both extreme cuts.

    The min-flow starts from `_grid_start`'s lift at scale L, else from
    first-cover chains.  Its value must be L times an integer, and each cut
    it returns an antichain of that weight, else InternalConsistencyError.
    """
    scale, start = _grid_start(instance, weights) or (1, None)
    # one int object per distinct weight, not per element
    scaled = {w: w * scale for w in set(weights)}
    value, cuts, _ = _min_flow(instance, list(map(scaled.__getitem__, weights)), start)
    if value % scale:
        raise InternalConsistencyError(f"flow value {value} not a multiple of {scale}")
    value //= scale
    for members in cuts:
        weight = sum(weights[x] for x in members)
        if weight != value or not instance.is_antichain(members):
            raise InternalConsistencyError(
                f"flow value {value} does not match its own cut witness"
            )
    return (value, *cuts)


def _unit_extremes(instance: PosetInstance) -> tuple[int, list[int], list[int]]:
    if instance._unit_cuts is None:
        instance._unit_cuts = _heaviest(instance, [1] * len(instance))
    return instance._unit_cuts


def max_weight_antichain(
    instance: PosetInstance, weights: list[int]
) -> tuple[int, AntichainWitness]:
    """Heaviest antichain under nonnegative integer element weights."""
    n = len(instance)
    if len(weights) != n:
        raise ValueError(f"need {n} weights, got {len(weights)}")
    if not all(isinstance(w, int) and not isinstance(w, bool) for w in weights):
        raise ValueError("weights must be integers")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    if n == 0:
        return 0, AntichainWitness(())
    value, members, _ = _heaviest(instance, weights)
    return value, AntichainWitness(tuple(members))


def flow_width(instance: PosetInstance) -> tuple[int, AntichainWitness]:
    """Width via the flow engine; independent of the matching route."""
    value, from_t, _ = _unit_extremes(instance)
    return value, AntichainWitness(tuple(from_t))


def check_klym(instance: PosetInstance) -> KlymVerdict:
    """Does every antichain satisfy sum of 1/|level| <= 1?

    Levels are the height layers.  Scaling each element by scale/|its
    level|, with scale = lcm(|L_h|), turns the question into an integer
    antichain weight bound: the heaviest antichain must weigh at most the
    scale.  The weights are constant on sublayers; on a sphere each level is
    one sublayer and the grid is a path, so the lift is minimum and no
    network is built (regular-covering lemma: Kleitman, 1974; Engel, Sperner
    Theory, 1997).  The witness is the t-side extreme cut, the same for
    every minimum flow and unchanged by scaling all lower bounds, so neither
    the start nor the scale changes the verdict or the witness.
    """
    n = len(instance)
    if n == 0:
        raise ValueError("the empty poset has no levels")
    sizes = [0] * (max(instance.height_of) + 1)
    for h in instance.height_of:
        sizes[h] += 1
    scale = lcm(*sizes)
    weights = list(map([scale // size for size in sizes].__getitem__, instance.height_of))
    value, members, _ = _heaviest(instance, weights)
    witness = AntichainWitness(tuple(members))
    return KlymVerdict(value <= scale, Fraction(value, scale), witness)


def is_unique_max_antichain(instance: PosetInstance, candidate) -> bool:
    """Is `candidate` the only antichain of maximum size?

    The two extreme maximum cuts of the unit-weight flow bound the whole
    lattice of maximum antichains; the answer is exact, and needs neither
    the matching nor the order closure.  `_heaviest` has proved the flow
    minimum and checked each cut as an antichain of its value.
    """
    members = set(
        candidate.members if isinstance(candidate, AntichainWitness) else candidate
    )
    n = len(instance)
    if not all(type(x) is int and 0 <= x < n for x in members):
        raise ValueError(f"candidate element ids must be integers in 0..{n - 1}")
    if not instance.is_antichain(sorted(members)):
        raise ValueError("candidate is not an antichain")
    value, from_t, from_s = _unit_extremes(instance)
    if len(members) != value:
        raise ValueError(f"candidate has {len(members)} members, width is {value}")
    if set(from_t) != set(from_s):
        return False
    if set(from_t) != members:
        raise InternalConsistencyError(
            "a sole maximum antichain differs from a maximum candidate"
        )
    return True

