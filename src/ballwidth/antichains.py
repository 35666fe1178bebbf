"""Width, uniqueness and heaviest antichains of a finite poset.

Two engines that must agree:

* a bipartite matching over the comparability relation (Dilworth through
  Koenig's theorem) gives the width and a maximum antichain;
* a minimum flow with per-element lower bounds gives the heaviest
  antichain under nonnegative integer weights.  One routine, `_heaviest`,
  starts it from the cell grid's min-flow lifted onto the elements (on a
  ball or sphere an optimum, so no element-level network is built), else
  from first-cover chains, and checks both extreme cuts it reads off.

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
    pair_l, pair_r, msize = _matching(instance, matching_budget)
    members = konig_independent(instance.up_masks(), pair_l, pair_r)
    w = len(instance) - msize
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

    Height by height, each element passes what reaches it along its first
    upper cover (`passed`); any shortfall below its weight climbs to it from
    a minimal element along first lower covers (`climb`).  On a chain the
    value is the largest weight, so the start is minimum.
    """
    covers = instance.covers
    lowers = instance.lower_covers()
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
) -> Sides | None:
    """The t side and s side of a start's residual graph; None if t reaches s.

    The same pass over the covers checks the start: one that breaks
    conservation or a lower bound raises InternalConsistencyError.  The
    arcs are those of `_min_flow`'s network before the cancel, with
    in(x) = 2x, out(x) = 2x + 1, s = 2n, t = 2n + 1: in -> out, out(x) ->
    in(y) on a cover, s -> in and out -> t are always open; out -> in iff
    the throughput exceeds the weight, other reverse arcs iff they carry flow.
    """
    n = len(instance)
    covers, lowers = instance.covers, instance.lower_covers()
    s, t = 2 * n, 2 * n + 1
    inflow = [0] * n
    down: list[list[int]] = [[] for _ in range(n)]  # out(x) per cover x -> y with flow
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
            if f:
                inflow[y] += f
                down[y].append(2 * x + 1)
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
    del inflow
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
            carried = [2 * y for y, f in zip(covers[x], cover_flow[x]) if f]
            return [v - 1, *carried] + [t] * (not covers[x] and through[x] > 0)
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
    chain start is used; `_residual_sides` checks any start before use.

    If t does not reach s in the start's residual graph, the start is
    minimum and no network is built: its sides are what the network's
    `residual_reachable(t)` and `residual_coreachable(s)` would return.
    Otherwise the network cancels flow from t back to s.  The sides are
    the same for every minimum flow, so the start never changes a cut.

    Returns (value, (t_side, s_side), (through, cover_flow)): the residual
    sides of the final flow, and that flow in the start's form.
    """
    n = len(instance)
    covers, lowers = instance.covers, instance.lower_covers()
    s, t = 2 * n, 2 * n + 1
    through, cover_flow = start if start is not None else _chain_start(instance, weights)
    del start
    sides = _residual_sides(instance, weights, through, cover_flow)
    total = sum(f for x, f in enumerate(through) if not lowers[x])
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


def _grid_start(instance: PosetInstance, weights: list[int]) -> tuple[int, tuple] | None:
    """(L, start): a minimum flow of the cell grid, lifted onto the elements.

    The cells X_c are the sublayers, or a custom poset's height layers.
    Every element of X_c must weigh w_c, send d(c -> c') covers into each
    X_c' in the same order, and take its lower covers from the same cells,
    else this returns None; so covers between cells are biregular.  The
    grid's min-flow (T, F) with demand w_c |X_c| comes from `_min_flow` on
    the cell poset.  With L = lcm(|X_c|, |X_c| d(c -> c')) each element of
    X_c carries T_c L / |X_c|, sends F(c -> c') L / (|X_c| d(c -> c')) along
    each cover into X_c' and weighs w_c L, all integral.  On a ball or
    sphere S_p x S_q is transitive on each sublayer, so the lift's value is
    L times the heaviest antichain (orbit averaging: comparability graphs
    are perfect, Lovasz 1972) and the lift is minimum.
    """
    cells = instance.sublayer_of if instance.sublayer_of is not None else instance.height_of
    index: dict = {}
    cell = [index.setdefault(c, len(index)) for c in cells]
    k = len(index)
    if k == len(cell):  # every cell one element: the grid is the poset itself
        return None
    sizes, heights = [0] * k, [0] * k
    rows: dict[int, tuple] = {}  # (weight, upper-cover cells, lower-cover cells)
    for x, (ys, zs) in enumerate(zip(instance.covers, instance.lower_covers())):
        row = (weights[x], [cell[y] for y in ys], [cell[z] for z in zs])
        if rows.setdefault(cell[x], row) != row:
            return None
        sizes[cell[x]] += 1
        heights[cell[x]] = instance.height_of[x]
    outs = [rows[c][1] for c in range(k)]
    ups = [sorted(set(out)) for out in outs]
    grid = PosetInstance(list(range(k)), ups, heights, None)
    _, _, (through, flow) = _min_flow(grid, [rows[c][0] * sizes[c] for c in range(k)])
    scale = lcm(*sizes, *(sizes[c] * outs[c].count(e) for c in range(k) for e in ups[c]))
    row_flows = [
        [flow[c][ups[c].index(e)] * scale // (sizes[c] * out.count(e)) for e in out]
        for c, out in enumerate(outs)
    ]
    lifted = [through[c] * scale // sizes[c] for c in cell]
    return scale, (lifted, [row_flows[c] for c in cell])


def _heaviest(
    instance: PosetInstance, weights: list[int]
) -> tuple[int, list[int], list[int]]:
    """(value, from_t, from_s): the heaviest weight and both extreme cuts.

    The min-flow starts from `_grid_start`'s lift at scale L, else from
    first-cover chains.  Its value must be L times an integer, and each cut
    an antichain of that weight, else InternalConsistencyError.
    """
    scale, start = _grid_start(instance, weights) or (1, None)
    value, sides, _ = _min_flow(instance, [w * scale for w in weights], start)
    if value % scale:
        raise InternalConsistencyError(f"flow value {value} not a multiple of {scale}")
    value //= scale
    cuts = _cut_antichains(sides, weights)
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
    weights = [scale // sizes[h] for h in instance.height_of]
    value, members, _ = _heaviest(instance, weights)
    witness = AntichainWitness(tuple(members))
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
    n = len(instance)
    if not all(type(x) is int and 0 <= x < n for x in members):
        raise ValueError(f"candidate element ids must be integers in 0..{n - 1}")
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

