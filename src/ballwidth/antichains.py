"""Width, uniqueness and heaviest antichains of a finite poset.

Two engines that must agree:

* a bipartite matching over the comparability relation (Dilworth through
  Koenig's theorem) gives the width and a maximum antichain;
* a minimum flow with per-element lower bounds gives the heaviest
  antichain under arbitrary nonnegative weights.  On a ball or sphere it
  starts at an optimum, so both extreme cuts are read from the start and
  no element-level network is built; they are those of every minimum flow.

Whenever both run on the same instance the values are cross-checked and a
disagreement raises InternalConsistencyError, never a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import BudgetExceededError, InternalConsistencyError
from .flows import FlowNetwork, reach
from .matching import hopcroft_karp, konig_independent
from .poset import PosetInstance

DEFAULT_MATCHING_BUDGET = 20000
Sides = tuple[set[int], set[int]]  # residual t side and s side of a flow network


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


def _matching(instance: PosetInstance, matching_budget: int):
    n = len(instance)
    if n > matching_budget:
        raise BudgetExceededError(n, matching_budget, "elements for matching")
    if instance._matching is None:
        instance._matching = hopcroft_karp(instance.up_masks())
    return instance._matching


def width(
    instance: PosetInstance, matching_budget: int = DEFAULT_MATCHING_BUDGET
) -> tuple[int, AntichainWitness]:
    """Longest antichain size plus one witness antichain of that size."""
    n = len(instance)
    pair_l, pair_r, msize = _matching(instance, matching_budget)
    members = konig_independent(instance.up_masks(), pair_l, pair_r)
    w = n - msize
    if len(members) != w or not instance.is_antichain(members):
        raise InternalConsistencyError(
            f"matching says width {w} but the extracted witness has "
            f"{len(members)} members"
        )
    return w, AntichainWitness(tuple(members))


def _chain_start(
    instance: PosetInstance, weights: list[int]
) -> tuple[list[int], list[list[int]]]:
    """A feasible flow along first-cover chains, in `_min_flow`'s start form.

    Each element's demand runs down to a minimal element and up to a
    maximal one.  The routes are summed height by height, so no arc is
    ever keyed: `down[x]` is what reaches x along its first lower cover,
    `up[x]` what leaves x along its first upper cover.
    """
    covers = instance.covers
    lowers = instance.lower_covers()
    order = sorted(range(len(instance)), key=instance.height_of.__getitem__)
    down = list(weights)
    for x in reversed(order):
        if lowers[x]:
            down[lowers[x][0]] += down[x]
    up = list(weights)
    for x in order:
        if covers[x]:
            up[covers[x][0]] += up[x]
    through = [d + u - w for d, u, w in zip(down, up, weights)]
    cover_flow = [
        [
            (up[x] if k == 0 else 0) + (down[y] if lowers[y][0] == x else 0)
            for k, y in enumerate(ys)
        ]
        for x, ys in enumerate(covers)
    ]
    return through, cover_flow


def _check_start(
    instance: PosetInstance,
    weights: list[int],
    through: list[int],
    cover_flow: list[list[int]],
) -> None:
    """Raise unless the start conserves flow and meets every lower bound."""
    covers = instance.covers
    lowers = instance.lower_covers()
    inflow = [0] * len(instance)
    for x, ys in enumerate(covers):
        flows = cover_flow[x]
        if len(flows) != len(ys) or min(flows, default=0) < 0:
            raise InternalConsistencyError(f"starting flow is malformed at element {x}")
        if ys and sum(flows) != through[x]:
            raise InternalConsistencyError(
                f"starting flow leaves element {x} with {sum(flows)} units, "
                f"not its throughput {through[x]}"
            )
        for y, f in zip(ys, flows):
            inflow[y] += f
    for x, w in enumerate(weights):
        if lowers[x] and inflow[x] != through[x]:
            raise InternalConsistencyError(
                f"starting flow brings {inflow[x]} units into element {x}, "
                f"not its throughput {through[x]}"
            )
        if through[x] < w:
            raise InternalConsistencyError(
                f"starting flow carries {through[x]} units through element {x}, "
                f"below its weight {w}"
            )


def _residual_sides(
    instance: PosetInstance,
    weights: list[int],
    through: list[int],
    cover_flow: list[list[int]],
) -> Sides | None:
    """The t side and s side of a start's residual graph; None if t reaches s.

    Its arcs are those of `_min_flow`'s network before the cancel, with
    in(x) = 2x, out(x) = 2x + 1, s = 2n, t = 2n + 1: in -> out, out(x) ->
    in(y) on a cover, s -> in and out -> t are always open; out -> in iff
    the throughput exceeds the weight, other reverse arcs iff they carry flow.
    """
    n = len(instance)
    covers, lowers = instance.covers, instance.lower_covers()
    s, t = 2 * n, 2 * n + 1
    up = [[2 * y for y, f in zip(ys, fs) if f] for ys, fs in zip(covers, cover_flow)]
    down: list[list[int]] = [[] for _ in range(n)]
    for x, ins in enumerate(up):
        for v in ins:
            down[v >> 1].append(2 * x + 1)
    slack = [f > w for f, w in zip(through, weights)]

    def heads(u: int) -> list[int]:
        if u == s:
            return [2 * x for x in range(n) if not lowers[x]]
        if u == t:
            return [2 * x + 1 for x in range(n) if not covers[x] and through[x]]
        x = u >> 1
        if u & 1:
            return [2 * y for y in covers[x]] + [u - 1] * slack[x] + [t] * (not covers[x])
        return [u + 1, *down[x]] + [s] * (not lowers[x] and through[x] > 0)

    def tails(v: int) -> list[int]:
        if v == s:
            return [2 * x for x in range(n) if not lowers[x] and through[x]]
        if v == t:
            return [2 * x + 1 for x in range(n) if not covers[x]]
        x = v >> 1
        if v & 1:
            return [v - 1, *up[x]] + [t] * (not covers[x] and through[x] > 0)
        return [2 * y + 1 for y in lowers[x]] + [v + 1] * slack[x] + [s] * (not lowers[x])

    t_side = reach(t, heads)
    return None if s in t_side else (t_side, reach(s, tails))


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
    chain start is used.  Any start is checked before use; one that breaks
    conservation or a lower bound raises InternalConsistencyError.

    If t does not reach s in the start's residual graph, the start is
    minimum and no network is built: its sides are what the network's
    `residual_reachable(t)` and `residual_coreachable(s)` would return.
    Otherwise the network cancels flow from t back to s.  The sides are
    the same for every minimum flow, so the start never changes a cut.

    Returns (value, (t_side, s_side), (through, cover_flow)): the residual
    sides of the final flow, and that flow in the start's form.
    """
    n = len(instance)
    covers = instance.covers
    lowers = instance.lower_covers()
    s, t = 2 * n, 2 * n + 1
    through, cover_flow = start if start is not None else _chain_start(instance, weights)
    del start
    _check_start(instance, weights, through, cover_flow)
    total = sum(f for x, f in enumerate(through) if not lowers[x])
    sides = _residual_sides(instance, weights, through, cover_flow)
    if sides is not None:
        return total, sides, (through, cover_flow)

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
    sides = net.residual_reachable(t), net.residual_coreachable(s)
    return value, sides, (through, cover_flow)


def _cut_antichains(sides: Sides, weights: list[int]) -> tuple[list[int], list[int]]:
    """The two extreme maximum cuts of a minimum flow, read as antichains."""
    t_side, s_side = sides
    heavy = [x for x, w in enumerate(weights) if w > 0]
    from_t = [x for x in heavy if 2 * x + 1 in t_side and 2 * x not in t_side]
    from_s = [x for x in heavy if 2 * x in s_side and 2 * x + 1 not in s_side]
    return from_t, from_s


def _heaviest_from(
    instance: PosetInstance, weights: list[int], value: int, sides: Sides
) -> AntichainWitness:
    """The cut witness of a finished min-flow, checked against its value."""
    members, _ = _cut_antichains(sides, weights)
    if sum(weights[x] for x in members) != value or not instance.is_antichain(members):
        raise InternalConsistencyError(
            f"flow value {value} does not match its own cut witness"
        )
    return AntichainWitness(tuple(members))


def max_weight_antichain(
    instance: PosetInstance, weights: list[int]
) -> tuple[int, AntichainWitness]:
    """Heaviest antichain under nonnegative integer element weights."""
    n = len(instance)
    if len(weights) != n:
        raise ValueError(f"need {n} weights, got {len(weights)}")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    if n == 0:
        return 0, AntichainWitness(())

    value, sides, _ = _min_flow(instance, weights)
    return value, _heaviest_from(instance, weights, value, sides)


def _grid_start(instance: PosetInstance) -> tuple[int, tuple] | None:
    """(L, start): a minimum flow of the sublayer grid, lifted onto the elements.

    The grid's cells are the sublayers X_c.  Every element of X_c must send
    d(c -> c') covers into each X_c', in the same order, else (and on
    custom posets) this returns None.  The grid's min-flow (T, F) with
    demand |X_c| on c comes from `_min_flow` on the cell poset.  With
    L = lcm(|X_c|, |X_c| d(c -> c')) each element of X_c carries
    T_c L / |X_c| and sends F(c -> c') L / (|X_c| d(c -> c')) along each
    cover into X_c', all integral, and weighs L.  On a ball or sphere
    S_p x S_q is transitive on each sublayer, so covers between sublayers
    are biregular and the lift conserves flow.  Its value, L times the
    grid's, is L times the width (orbit averaging: comparability graphs
    are perfect, Lovasz 1972), so the lift is minimum.
    """
    if instance.sublayer_of is None:
        return None
    index: dict = {}
    cell = [index.setdefault(c, len(index)) for c in instance.sublayer_of]
    rows: dict[int, list[int]] = {}  # the cells each cover of X_c enters, in order
    for x, ys in enumerate(instance.covers):
        row = [cell[y] for y in ys]
        if rows.setdefault(cell[x], row) != row:
            return None
    k = len(index)
    sizes = [cell.count(c) for c in range(k)]
    heights = [instance.height_of[cell.index(c)] for c in range(k)]
    ups = [sorted(set(rows[c])) for c in range(k)]
    grid = PosetInstance(list(range(k)), ups, heights, None)
    _, _, (through, flow) = _min_flow(grid, sizes)
    scale = lcm(*sizes, *(sizes[c] * rows[c].count(e) for c in range(k) for e in ups[c]))
    row_flows = [
        [flow[c][ups[c].index(e)] * scale // (sizes[c] * rows[c].count(e)) for e in rows[c]]
        for c in range(k)
    ]
    lifted = [through[c] * scale // sizes[c] for c in cell]
    return scale, (lifted, [row_flows[c] for c in cell])


def _unit_extremes(instance: PosetInstance) -> tuple[int, list[int], list[int]]:
    if instance._unit_cuts is None:
        scale, start = _grid_start(instance) or (1, None)
        weights = [scale] * len(instance)
        value, sides, _ = _min_flow(instance, weights, start)
        if value % scale:
            raise InternalConsistencyError(f"flow value {value} not a multiple of {scale}")
        value //= scale
        from_t, from_s = _cut_antichains(sides, weights)
        for members in (from_t, from_s):
            if len(members) != value or not instance.is_antichain(members):
                raise InternalConsistencyError("extreme cut is not a valid witness")
        instance._unit_cuts = (value, from_t, from_s)
    return instance._unit_cuts


def flow_width(instance: PosetInstance) -> tuple[int, AntichainWitness]:
    """Width via the flow engine; independent of the matching route.

    A built family starts from `_grid_start`'s lift at scale L, whose
    value is L times the width and whose cuts are those of unit weights.
    """
    value, from_t, _ = _unit_extremes(instance)
    return value, AntichainWitness(tuple(from_t))


def _level_pair_start(
    instance: PosetInstance, layers: list[list[int]], weights: list[int], scale: int
) -> tuple[list[int], list[list[int]]] | None:
    """A minimum flow that splits each element's weight evenly over its covers.

    Every x sends `weights[x] // len(covers[x])` along each upper cover.
    When every cover climbs exactly one layer, only top elements are
    maximal, every share divides exactly and every element above the bottom
    layer receives exactly its weight, this is a flow of value `scale`: all
    of it leaves the bottom layer, which weighs `scale`.  A full layer
    weighs `scale` too, so that flow is minimum.  On a sphere the covers
    between adjacent layers are biregular, so by the regular-covering lemma
    (Kleitman, 1974) the split lands exactly whenever `scale` makes every
    share integral.  Returns None whenever a hypothesis fails.
    """
    covers = instance.covers
    height_of = instance.height_of
    top = len(layers) - 1
    if top == 0:
        return None
    inflow = [0] * len(instance)
    cover_flow: list[list[int]] = []
    for x, ys in enumerate(covers):
        h = height_of[x]
        share, rest = divmod(weights[x], len(ys) or 1)
        if rest or (not ys and h < top) or any(height_of[y] != h + 1 for y in ys):
            return None
        cover_flow.append([share] * len(ys))
        for y in ys:
            inflow[y] += share
    if any(inflow[y] != weights[y] for layer in layers[1:] for y in layer):
        return None
    return list(weights), cover_flow


def check_klym(instance: PosetInstance) -> KlymVerdict:
    """Does every antichain satisfy sum of 1/|level| <= 1?

    Levels are the height layers.  Scaling each element by
    scale/|its level| turns the question into an integer antichain weight
    bound: the heaviest antichain, read off a minimum flow with those
    weights as lower bounds, must weigh at most the scale.

    The scale is lcm(|L_h| * d_h) over the levels, where d_h is the up-degree
    shared by every element of level h, and 1 on the top level or when the
    degrees differ; so a custom poset's weights stay near lcm(|L_h|).  With
    it the even split of `_level_pair_start` is integral.  Regular-covering
    lemma (Kleitman, 1974; Engel, Sperner Theory, 1997): when the covers
    between each pair of adjacent levels are biregular, as on a sphere,
    where level h is one sublayer, splitting each element's weight evenly
    over its covers is an exact transport onto the next level: the
    min-flow starts at its optimum and builds no network.  Otherwise it
    starts from first-cover chains, and cancels from them whenever they
    are not minimum.  The witness is the t-side extreme cut, the elements
    reachable from t in the residual graph, which is the same for every
    minimum flow; scaling all lower bounds by one constant leaves the
    minimum cuts unchanged.  So neither the start nor the scale changes the
    verdict, the reduced sum or the witness.
    """
    n = len(instance)
    if n == 0:
        raise ValueError("the empty poset has no levels")
    layers: list[list[int]] = [[] for _ in range(max(instance.height_of) + 1)]
    for x, h in enumerate(instance.height_of):
        layers[h].append(x)
    spans = [len(layers[-1])]
    for layer in layers[:-1]:
        degrees = {len(instance.covers[x]) or 1 for x in layer}
        spans.append(len(layer) * (degrees.pop() if len(degrees) == 1 else 1))
    scale = lcm(*spans)
    weights = [scale // len(layers[h]) for h in instance.height_of]
    value, sides, _ = _min_flow(
        instance, weights, _level_pair_start(instance, layers, weights, scale)
    )
    witness = _heaviest_from(instance, weights, value, sides)
    return KlymVerdict(value <= scale, Fraction(value, scale), witness)


def is_unique_max_antichain(
    instance: PosetInstance,
    candidate,
    matching_budget: int = DEFAULT_MATCHING_BUDGET,
) -> bool:
    """Is `candidate` the only antichain of maximum size?

    The two extreme maximum cuts of the unit-weight flow bound the whole
    lattice of maximum antichains; the answer is exact.
    """
    members = set(
        candidate.members if isinstance(candidate, AntichainWitness) else candidate
    )
    if not instance.is_antichain(sorted(members)):
        raise ValueError("candidate is not an antichain")
    w, _ = width(instance, matching_budget)
    if len(members) != w:
        raise ValueError(f"candidate has {len(members)} members, width is {w}")
    value, from_t, from_s = _unit_extremes(instance)
    if value != w:
        raise InternalConsistencyError(
            f"matching width {w} disagrees with flow width {value}"
        )
    if set(from_t) != set(from_s):
        return False
    if set(from_t) != members:
        raise InternalConsistencyError(
            "a sole maximum antichain differs from a maximum candidate"
        )
    return True

