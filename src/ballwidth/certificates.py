"""Chain-family certificates that a layer is the unique widest antichain.

A certificate is a weighted family of source-to-sink paths through the
coordinate diagram.  If the paths cover the target layer exactly (one
chain per element) and every other sublayer at a strictly better rate,
the target layer is the unique maximum antichain; covering at an equal
rate still certifies the size.

Two independent producers live here: a generic feasibility flow over the
diagram, and a hand-guided zigzag construction that descends from the
largest sphere sublayer and climbs back through the sphere pairs.  Both
emit the same Certificate shape and both are re-validated by
certificate_check before they are returned.

Everything but the sizes depends on the diagram's coordinate set alone,
so the search, the peel and the check read what they need off the shared
`DiagramShape`: coordinate positions, edges leaving each coordinate, the
edge steps as position pairs, and one search-network layout per target
height, whose adjacency leaves out the slots no search takes.  Each tuple
brings only its sizes and its network's capacities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import (
    Ball,
    Coord,
    GroundParams,
    LayerProfile,
    _level_coords,
    binomial,
    largest_sphere_sublayer,
    layer_profile,
    sublayer_size,
    zigzag_margin,
)
from .errors import BudgetExceededError, InternalConsistencyError
from .flows import FlowNetwork
from .poset import DiagramShape, QuotientDag, quotient_dag

CERTIFIED = "CERTIFIED"
CERTIFIED_STRICT = "CERTIFIED_STRICT"
INFEASIBLE = "INFEASIBLE"
NOT_APPLICABLE = "NOT_APPLICABLE"

ChainProfile = tuple[Coord, ...]


@dataclass(frozen=True)
class Certificate:
    """Multiplicity-weighted chain profiles plus their coverage counts."""

    profiles: tuple[tuple[ChainProfile, int], ...]
    coverage: dict[Coord, int]
    target_height: int


@dataclass(frozen=True)
class CertificateVerdict:
    status: str
    certificate: Certificate | None
    diagnostics: str


def certificate_check(certificate: Certificate, dag: QuotientDag) -> bool:
    """Re-derive every certificate invariant from scratch.

    Profiles are read as positions in the diagram's coordinate list and
    their steps tested against the shape's edges as position pairs; the
    sizes are the diagram's own table's.  Raises ValueError for malformed
    input (unknown coordinates, bad counts); returns False when a
    well-formed certificate simply fails an invariant.
    """
    shape = dag.shape
    coords, index, height_of = shape.coords, shape.index, shape.height_of
    if not 0 <= certificate.target_height <= dag.top_height:
        raise ValueError(
            f"target height {certificate.target_height} outside the diagram"
        )
    for c, n in certificate.coverage.items():
        if c not in index:
            raise ValueError(f"coverage mentions unknown coordinate {c}")
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"coverage at {c} must be a count, got {n!r}")
    paths: list[tuple[list[int], int]] = []
    for profile, mult in certificate.profiles:
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise ValueError(f"profile multiplicity must be positive, got {mult!r}")
        if not profile:
            raise ValueError("certificate has an empty profile")
        path = list(map(index.get, profile))
        if None in path:
            unknown = next(c for c in profile if c not in index)
            raise ValueError(f"profile mentions unknown coordinate {unknown}")
        paths.append((path, mult))

    # profiles must run the full source-to-sink gamut, one height at a time
    source, sink, steps = index[shape.source], index[shape.sink], shape.steps
    accumulated = [0] * len(coords)
    for path, mult in paths:
        if path[0] != source or path[-1] != sink:
            return False
        if not steps.issuperset(zip(path, path[1:])):
            return False
        for k in path:
            accumulated[k] += mult

    coverage = certificate.coverage
    if any(n != coverage.get(c, 0) for c, n in zip(coords, accumulated)):
        return False

    per_height: dict[int, int] = {}
    for c, n in zip(coords, accumulated):
        h = height_of[c]
        per_height[h] = per_height.get(h, 0) + n
    if len(set(per_height.values())) > 1:
        return False

    sizes = [dag.table.sizes[c] for c in coords]
    target = certificate.target_height
    if any(
        n != size
        for c, n, size in zip(coords, accumulated, sizes)
        if height_of[c] == target
    ):
        return False
    # the (non-empty) target is covered at rate exactly 1, so meeting its
    # rate N_c / |X_c| >= N_c* / |X_c*| means covering each sublayer fully
    return all(map(int.__ge__, accumulated, sizes))


def _status_for(coverage: dict[Coord, int], dag: QuotientDag, target: int) -> str:
    off = [c for c in dag.coords if dag.height_of[c] != target]
    if off and all(coverage.get(c, 0) >= dag.table.sizes[c] + 1 for c in off):
        return CERTIFIED_STRICT
    return CERTIFIED


def _peel_profiles(
    dag: QuotientDag,
    total: int,
    edge_flow: dict[tuple[Coord, Coord], int],
) -> list[tuple[ChainProfile, int]]:
    """Split an integral diagram flow, keyed by edge, into weighted paths."""
    remaining = [edge_flow.get(e, 0) for e in dag.edges]
    if sum(map(bool, remaining)) != sum(map(bool, edge_flow.values())):
        stray = next(e for e, f in edge_flow.items() if f and e not in dag.edges)
        raise InternalConsistencyError(f"flow on {stray}, which is not a diagram edge")
    return _peel(dag.shape, total, remaining)


def _peel(
    shape: DiagramShape, total: int, remaining: list[int]
) -> list[tuple[ChainProfile, int]]:
    """Split an integral flow, by edge number, into weighted source-sink paths.

    Always picks the lexicographically smallest positive continuation, so
    the decomposition is canonical.  Each round saturates at least one
    edge, so at most |edges| profiles come out.  The next round resumes at
    the tail of the first edge the last one saturated: a restart from the
    source would take the same first positive edge at every coordinate up
    to it, as those edges are still positive and the ones before them were
    already empty.  `remaining` is used up.
    """
    if shape.source == shape.sink:
        return [((shape.source,), total)] if total else []
    heads, leaving = shape.heads, shape.leaving
    head_coords = [v for _, v in shape.edges]
    source, sink = shape.index[shape.source], shape.index[shape.sink]
    profiles: list[tuple[ChainProfile, int]] = []
    path: list[int] = []  # edge numbers from the source to cur
    cur = source
    left = total
    while left > 0:
        while cur != sink:
            for e in leaving[cur]:
                if remaining[e] > 0:
                    path.append(e)
                    cur = heads[e]
                    break
            else:
                raise InternalConsistencyError(
                    f"flow decomposition stuck at {shape.coords[cur]}"
                )
        mult = min(map(remaining.__getitem__, path))
        profiles.append(((shape.source, *map(head_coords.__getitem__, path)), mult))
        first = -1
        for k, e in enumerate(path):
            remaining[e] -= mult
            if first < 0 and not remaining[e]:
                first = k
        del path[first:]
        cur = heads[path[-1]] if path else source
        left -= mult
    if left < 0:
        raise InternalConsistencyError(
            f"the flow carries {total - left} chains, not {total}"
        )
    if any(remaining):
        raise InternalConsistencyError("edge flow left over after decomposition")
    return profiles


def _search_layout(shape: DiagramShape, target_height: int) -> tuple:
    """The search network's arcs for one shape and target height.

    Coordinate k is the arc 2k -> 2k + 1, in slot 2k; its edges, the
    circulation sink -> source, and then each coordinate's pair of demand
    arcs ss -> 2k + 1 and 2k -> tt follow, in this order.  Every tuple of
    the shape gets the same slots in the same order, with the same `to`.
    The adjacency leaves out the slots no search takes: the arcs back into
    ss (level 0), the slots of tt (never expanded) and both slots of a
    target coordinate's arc, whose capacity is 0 each way.  Returns
    (adj, to, target coordinate positions, first edge slot), and keeps it in
    the shape's `search_layouts` for the shape's next tuple.
    """
    coords, index, height_of = shape.coords, shape.index, shape.height_of
    kk = len(coords)
    ss, tt = 2 * kk, 2 * kk + 1
    adj: list[list[int]] = [[] for _ in range(2 * kk + 2)]
    to: list[int] = []

    def add(u: int, v: int, forward: bool, backward: bool) -> None:
        if forward:
            adj[u].append(len(to))
        if backward:
            adj[v].append(len(to) + 1)
        to.extend((v, u))

    for k, c in enumerate(coords):
        usable = height_of[c] != target_height
        add(2 * k, 2 * k + 1, usable, usable)
    first_edge = len(to)
    for u, v in shape.edges:
        add(2 * index[u] + 1, 2 * index[v], True, True)
    add(2 * index[shape.sink] + 1, 2 * index[shape.source], True, True)
    for k in range(kk):
        add(ss, 2 * k + 1, True, False)
        add(2 * k, tt, True, False)
    targets = [k for k, c in enumerate(coords) if height_of[c] == target_height]
    layout = shape.search_layouts[target_height] = adj, to, targets, first_edge
    return layout


def certificate_search(
    dag: QuotientDag, target_height: int, strict: bool = False
) -> CertificateVerdict:
    """Search for a covering chain family by feasibility flow.

    Every coordinate becomes an arc with a lower bound: exactly the
    sublayer size on the target layer, at least the size (plus one when
    strict) elsewhere.  A feasible circulation decomposes into the
    certificate; an infeasible one yields a cut diagnostic.  The network's
    arcs come from `_search_layout`, shared by every tuple of this shape
    and target height, with the slots no search takes left out of the
    adjacency; only the capacities are this tuple's own.
    """
    if not 0 <= target_height <= dag.top_height:
        raise ValueError(f"target height {target_height} outside the diagram")

    shape = dag.shape
    adj, to, targets, first_edge = shape.search_layouts.get(
        target_height
    ) or _search_layout(shape, target_height)
    coords = shape.coords
    kk = len(coords)
    ss, tt = 2 * kk, 2 * kk + 1

    low = list(map(dag.table.sizes.__getitem__, coords))
    if strict:
        low = [lo + 1 for lo in low]
        for k in targets:
            low[k] -= 1
    need = sum(low)
    inf = need + 1

    # coordinate, edge and circulation arcs are uncapped but on the target,
    # then each coordinate's two demand arcs; a reverse slot starts empty
    circulation = first_edge + 2 * len(shape.edges)
    cap = [inf, 0] * (circulation // 2 + 1) + [0] * (4 * kk)
    for k in targets:
        cap[2 * k] = 0
    cap[circulation + 2 :: 4] = low
    cap[circulation + 4 :: 4] = low
    net = FlowNetwork.on_arcs(adj, to, cap)
    got = net.max_flow(ss, tt)

    if got < need:
        cut = net.residual_reachable(ss)
        pinched = sorted(
            c for k, c in enumerate(coords) if (2 * k in cut) != (2 * k + 1 in cut)
        )
        return CertificateVerdict(
            INFEASIBLE,
            None,
            f"no covering chain family: demand is short by {need - got} "
            f"units against the cut at {pinched}",
        )

    # a slot's flow sits on its partner, slot ^ 1
    coverage = {c: lo + f for c, lo, f in zip(coords, low, cap[1 : 2 * kk : 2])}
    total = net.flow_on(circulation)
    profiles = _peel(shape, total, cap[first_edge + 1 : circulation : 2])

    certificate = Certificate(tuple(profiles), coverage, target_height)
    if not certificate_check(certificate, dag):
        raise InternalConsistencyError("search produced an invalid certificate")
    status = _status_for(coverage, dag, target_height)
    return CertificateVerdict(
        status,
        certificate,
        f"{total} chains in {len(profiles)} profiles; coverage is exact on "
        f"height {target_height} and meets every other sublayer at "
        f"{'a strictly better' if status == CERTIFIED_STRICT else 'no worse a'} rate",
    )


def _ball_layers(
    params: GroundParams,
) -> tuple[QuotientDag, LayerProfile, CertificateVerdict | None]:
    """The ball's diagram and closed-form layer profile.

    The verdict is NOT_APPLICABLE when two layer heights tie, since no
    single layer can then be certified exactly, and None otherwise.
    """
    if params.r > min(params.p, params.q):
        raise ValueError("certificates need the untruncated regime r <= min(p, q)")
    dag = quotient_dag(params, Ball())
    profile = layer_profile(dag)
    tie = None
    if profile.tie:
        tie = CertificateVerdict(
            NOT_APPLICABLE,
            None,
            f"largest layer is tied between heights {profile.argmax}",
        )
    return dag, profile, tie


def certified_width(
    params: GroundParams, strict: bool = False
) -> tuple[CertificateVerdict, int]:
    """Certify the ball's largest layer as its width, if possible.

    Returns the verdict plus the largest layer size.
    """
    dag, profile, tie = _ball_layers(params)
    verdict = tie or certificate_search(dag, profile.argmax[0], strict)
    return verdict, profile.max_size


def _zigzag_flow(
    params: GroundParams, dag: QuotientDag, start: Coord
) -> tuple[dict[tuple[Coord, Coord], int] | None, str]:
    """Route all chains of the zigzag construction, or explain the shortfall.

    Streams leave the source along the bottom row, climb to the start
    sublayer's diagonal, and zigzag up through consecutive sphere pairs.
    The wing right of the start column absorbs whatever the upper rows
    cannot hold.  Returns (edge flows, note) or (None, failure reason).
    """
    p, r = params.p, params.r
    i0, j0 = start
    sizes = dag.table.sizes
    deepest = min(i0, j0)
    flows: dict[tuple[Coord, Coord], int] = {}

    def push(lo: Coord, hi: Coord, amount: int) -> None:
        if amount:
            flows[(lo, hi)] = flows.get((lo, hi), 0) + amount

    main = sizes[start]
    drop: dict[int, int] = {}
    if j0 > 0:
        drop[i0] = main
        push((i0, j0 - 1), (i0, j0), main)

    # wing rows: spread each row's arrivals right just far enough to feed
    # the rows below, drop the rest straight down
    for b in range(j0 - 1, 0, -1):
        a_hi = r - b
        req = {a_hi + 1: 0}
        for a in range(a_hi, i0 - 1, -1):
            need = max(sizes[(a, b)], req[a + 1])
            req[a] = max(0, need - drop.get(a, 0))
        if req[i0] > 0:
            return None, f"wing row {b} is short {req[i0]} units at column {i0}"
        nxt: dict[int, int] = {}
        enter = 0
        for a in range(i0, a_hi + 1):
            have = drop.get(a, 0) + enter
            send = req[a + 1] if a < a_hi else 0
            if send:
                push((a + 1, b), (a, b), send)
            down = have - send
            if down:
                push((a, b - 1), (a, b), down)
                nxt[a] = down
            enter = send
        drop = nxt

    # inner streams drop their columns to the bottom row
    arrival: dict[int, int] = {}
    for l in range(1 if j0 > 0 else 0, deepest + 1):
        a, c = i0 - l, j0 - l
        w = sizes[(a, c)]
        arrival[a] = w
        for y in range(c, 0, -1):
            push((a, y - 1), (a, y), w)

    # bottom row: everything cascades toward the source
    enter = 0
    c_lo = i0 - deepest
    for a in range(c_lo, r + 1):
        have = enter + drop.get(a, 0) + arrival.get(a, 0)
        if have < sizes[(a, 0)]:
            return None, (
                f"bottom row is short {sizes[(a, 0)] - have} units at column {a}"
            )
        if a < r:
            push((a + 1, 0), (a, 0), have)
        enter = have
    total = sum(sizes[(i0 - l, j0 - l)] for l in range(deepest + 1))
    if enter != total:
        raise InternalConsistencyError(
            f"bottom row carries {enter} chains, streams sum to {total}"
        )

    # ascent: each stream restores and gains alternately, then runs the
    # gain-only tail along the empty-center edge
    for l in range(deepest + 1):
        x, y = i0 - l, j0 - l
        w = sizes[(x, y)]
        while x > 0:
            push((x, y), (x - 1, y), w)
            x -= 1
            if x > 0:
                push((x, y), (x, y + 1), w)
                y += 1
        while y < r:
            push((x, y), (x, y + 1), w)
            y += 1
    return flows, ""


def zigzag_certificate(params: GroundParams) -> CertificateVerdict:
    """Certify the ball's largest layer by the explicit zigzag routing.

    Tries the rounded largest sphere sublayer first, then the other
    argmax sublayers; the construction either covers every sublayer or
    reports the first shortfall.
    """
    dag, _, tie = _ball_layers(params)
    if tie is not None:
        return tie
    sizes = dag.table.sizes

    if params.r == 0:
        certificate = Certificate(((((0, 0),), 1),), {(0, 0): 1}, 0)
        if not certificate_check(certificate, dag):
            raise InternalConsistencyError("trivial certificate failed its check")
        return CertificateVerdict(CERTIFIED, certificate, "single-point ball")

    argmax, rounded = largest_sphere_sublayer(params, params.r)
    starts = [rounded] + sorted(c for c in argmax if c != rounded)
    failures: list[str] = []
    for start in starts:
        i0, j0 = start
        reason = None
        if i0 + 1 <= params.p:
            for b in range(j0, 1, -1):
                verdict = zigzag_margin(params, (i0, b))
                if not verdict.holds:
                    reason = (
                        f"start {start}: margin at ({i0}, {b}) fails "
                        f"with slack {verdict.slack}"
                    )
                    break
        if reason is None:
            flows, note = _zigzag_flow(params, dag, start)
            if flows is None:
                reason = f"start {start}: {note}"
        if reason is not None:
            failures.append(reason)
            continue

        inflow: dict[Coord, int] = {}
        outflow: dict[Coord, int] = {}
        for (lo, hi), f in flows.items():
            outflow[lo] = outflow.get(lo, 0) + f
            inflow[hi] = inflow.get(hi, 0) + f
        coverage: dict[Coord, int] = {}
        for c in dag.coords:
            fin, fout = inflow.get(c, 0), outflow.get(c, 0)
            if c not in (dag.source, dag.sink) and fin != fout:
                raise InternalConsistencyError(f"zigzag flow unbalanced at {c}")
            coverage[c] = fout if c == dag.source else fin

        target_height = params.r - i0 + j0
        shortfall = next((c for c in dag.coords if coverage[c] < sizes[c]), None)
        if shortfall is not None:
            failures.append(
                f"start {start}: sublayer {shortfall} gets {coverage[shortfall]} "
                f"chains for {sizes[shortfall]} elements"
            )
            continue
        overfull = next(
            (
                c
                for c in dag.coords
                if dag.height_of[c] == target_height and coverage[c] != sizes[c]
            ),
            None,
        )
        if overfull is not None:
            failures.append(
                f"start {start}: target sublayer {overfull} is over-covered"
            )
            continue

        profiles = _peel_profiles(dag, coverage[dag.source], flows)
        certificate = Certificate(tuple(profiles), coverage, target_height)
        if not certificate_check(certificate, dag):
            raise InternalConsistencyError("zigzag produced an invalid certificate")
        status = _status_for(coverage, dag, target_height)
        note = f"start {start} routes {coverage[dag.source]} chains"
        if failures:
            note += "; rejected " + "; ".join(failures)
        return CertificateVerdict(status, certificate, note)

    return CertificateVerdict(INFEASIBLE, None, failures[0])


def gk_partition(n: int) -> list[list[int]]:
    """Symmetric chain partition of the n-element subset lattice.

    Subsets are bit masks; a set bit reads as a closing bracket.  Masks
    with the same bracket matching share a chain, which sweeps the
    unmatched positions from all-open to all-closed.  C(n, floor(n/2))
    chains come out, each symmetric around the middle ranks.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > 22:
        raise BudgetExceededError(2**n, 2**22, "subsets")
    chains_by_key: dict[tuple[int, ...], list[int]] = {}
    for mask in range(1 << n):
        stack: list[int] = []
        matched = 0
        free: list[int] = []
        for k in range(n):
            if mask >> k & 1:
                if stack:
                    matched |= 1 << stack.pop() | 1 << k
                else:
                    free.append(k)
            else:
                stack.append(k)
        free += stack  # unmatched closers, then unmatched openers
        key = (matched, mask & matched)
        if key not in chains_by_key:
            base = mask & matched
            fill = 0
            chain = [base]
            for k in free:
                fill |= 1 << k
                chain.append(base | fill)
            chains_by_key[key] = chain
    chains = sorted(chains_by_key.values())
    if len(chains) != binomial(n, n // 2):
        raise InternalConsistencyError(
            f"{len(chains)} chains for n={n}, expected the middle binomial"
        )
    return chains


def theorem_bound(params: GroundParams) -> int:
    """Sum of the largest sublayers on every second sphere from r down.

    An upper bound for the ball's width in the untruncated regime.
    """
    if params.r > min(params.p, params.q):
        raise ValueError("the bound needs the untruncated regime r <= min(p, q)")
    total = 0
    m = params.r
    while m >= 0:
        total += max(sublayer_size(params, c) for c in _level_coords(params, m))
        m -= 2
    return total
