"""Brute-force oracles used to cross-check the package.

Everything here recomputes answers from first principles: subset
containment, full 2^n enumeration, fixpoint closures.  Nothing imports
the algorithms under test, so an agreement is two independent routes to
the same number.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

_PASCAL: list[list[int]] = [[1]]


def pascal_binomial(n: int, k: int) -> int:
    """C(n, k) straight from the additive recurrence."""
    if k < 0 or k > n:
        return 0
    while len(_PASCAL) <= n:
        prev = _PASCAL[-1]
        _PASCAL.append([1] + [prev[t] + prev[t + 1] for t in range(len(prev) - 1)] + [1])
    return _PASCAL[n][k]


def enumerate_family_subsets(p, q, keep):
    """All subsets S of {1..p+q} whose (dropped, gained) counts pass `keep`."""
    ground = list(range(1, p + q + 1))
    center = set(range(1, p + 1))
    out = set()
    for size in range(p + q + 1):
        for combo in combinations(ground, size):
            s = set(combo)
            i = len(center - s)
            j = len(s - center)
            if keep(i, j):
                out.add(frozenset(s))
    return out


def strict_less_masks(subsets: list[frozenset]) -> list[int]:
    """lt[x] has bit y set iff subsets[x] is a proper subset of subsets[y]."""
    n = len(subsets)
    lt = [0] * n
    for x in range(n):
        for y in range(n):
            if x != y and subsets[x] < subsets[y]:
                lt[x] |= 1 << y
    return lt


def top_first(masks: list[int], n: int) -> list[int]:
    """The same n-bit sets with index y at bit n - 1 - y, and back again.

    The package stores up-sets and matching adjacency top-first; the
    references here read and write index y at bit y.
    """
    return [int(format(m, f"0{n}b")[::-1], 2) for m in masks]


def sublayers(instance) -> list[tuple[int, int]]:
    """Each element's sublayer (i, j): `dag.coords` expanded by their sizes."""
    dag = instance.dag
    return [c for c in dag.coords for _ in range(dag.table.sizes[c])]


def sublayer_grid(instance, weights: list[int]):
    """(cell, sizes, heights, rows, cell weights) over the sublayer cells.

    Cells are numbered by first element.  Every element of a cell must
    weigh the same, send its upper covers into the same ordered row of
    cells and take its lower covers from the same row, else None; None
    too when every cell holds one element.
    """
    cells = sublayers(instance)
    index: dict = {}
    cell = [index.setdefault(c, len(index)) for c in cells]
    k = len(index)
    if k == len(cell):
        return None
    lower: list[list[int]] = [[] for _ in cell]
    for x, ys in enumerate(instance.covers):
        for y in ys:
            lower[y].append(x)
    sizes, heights = [0] * k, [0] * k
    rows: dict[int, tuple] = {}
    for x, (ys, zs) in enumerate(zip(instance.covers, lower)):
        row = (weights[x], [cell[y] for y in ys], [cell[z] for z in zs])
        if rows.setdefault(cell[x], row) != row:
            return None
        sizes[cell[x]] += 1
        heights[cell[x]] = instance.height_of[x]
    return cell, sizes, heights, [rows[c][1] for c in range(k)], [rows[c][0] for c in range(k)]


def closure_from_pairs(n: int, pairs) -> list[int]:
    """Strict order as bitmasks from generator pairs, by fixpoint."""
    lt = [0] * n
    for u, v in pairs:
        lt[u] |= 1 << v
    changed = True
    while changed:
        changed = False
        for u in range(n):
            merged = lt[u]
            rest = lt[u]
            while rest:
                bit = rest & -rest
                merged |= lt[bit.bit_length() - 1]
                rest ^= bit
            if merged != lt[u]:
                lt[u] = merged
                changed = True
    return lt


def comparability_masks(lt: list[int]) -> list[int]:
    n = len(lt)
    cmp_mask = list(lt)
    for x in range(n):
        rest = lt[x]
        while rest:
            bit = rest & -rest
            cmp_mask[bit.bit_length() - 1] |= 1 << x
            rest ^= bit
    return cmp_mask


def antichain_flags(cmp_mask: list[int]) -> bytearray:
    """flags[mask] == 1 iff the member set of `mask` is pairwise incomparable."""
    n = len(cmp_mask)
    flags = bytearray(1 << n)
    flags[0] = 1
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        flags[mask] = flags[rest] and not (cmp_mask[low.bit_length() - 1] & rest)
    return flags


def brute_width(cmp_mask: list[int]) -> int:
    flags = antichain_flags(cmp_mask)
    return max(mask.bit_count() for mask in range(1 << len(cmp_mask)) if flags[mask])


def brute_all_max_antichains(cmp_mask: list[int]) -> list[frozenset]:
    flags = antichain_flags(cmp_mask)
    best = brute_width(cmp_mask)
    out = []
    for mask in range(1 << len(cmp_mask)):
        if flags[mask] and mask.bit_count() == best:
            out.append(frozenset(k for k in range(len(cmp_mask)) if mask >> k & 1))
    return out


def brute_max_weight(cmp_mask: list[int], weights: list[int]) -> int:
    flags = antichain_flags(cmp_mask)
    n = len(cmp_mask)
    total = [0] * (1 << n)
    best = 0
    for mask in range(1, 1 << n):
        low = mask & -mask
        total[mask] = total[mask ^ low] + weights[low.bit_length() - 1]
        if flags[mask] and total[mask] > best:
            best = total[mask]
    return best


def brute_heights(lt: list[int]) -> list[int]:
    n = len(lt)
    down = comparability_masks(lt)
    for x in range(n):
        down[x] &= ~lt[x]  # keep only the strictly-below part
    h = [0] * n
    for x in sorted(range(n), key=lambda x: down[x].bit_count()):
        rest = down[x]
        while rest:
            bit = rest & -rest
            h[x] = max(h[x], h[bit.bit_length() - 1] + 1)
            rest ^= bit
    return h


def brute_covers(lt: list[int]) -> list[list[int]]:
    n = len(lt)
    out = []
    for x in range(n):
        ups = []
        rest = lt[x]
        while rest:
            bit = rest & -rest
            y = bit.bit_length() - 1
            between = False
            probe = lt[x]
            while probe:
                zbit = probe & -probe
                z = zbit.bit_length() - 1
                if z != y and lt[z] >> y & 1:
                    between = True
                    break
                probe ^= zbit
            if not between:
                ups.append(y)
            rest ^= bit
        out.append(sorted(ups))
    return out


def brute_klym_max(cmp_mask: list[int], heights: list[int]) -> Fraction:
    """Largest normalized antichain weight, by full enumeration."""
    layer = {}
    for h in heights:
        layer[h] = layer.get(h, 0) + 1
    flags = antichain_flags(cmp_mask)
    n = len(cmp_mask)
    best = Fraction(0)
    for mask in range(1 << n):
        if not flags[mask]:
            continue
        s = Fraction(0)
        for k in range(n):
            if mask >> k & 1:
                s += Fraction(1, layer[heights[k]])
        if s > best:
            best = s
    return best


def poly_layer_counts(multiplicities) -> list[int]:
    """Sub-multiset counts by brute enumeration of all pick vectors."""
    counts = {0: 1}
    for mu in multiplicities:
        nxt = {}
        for total, ways in counts.items():
            for take in range(mu + 1):
                nxt[total + take] = nxt.get(total + take, 0) + ways
        counts = nxt
    return [counts[h] for h in range(max(counts) + 1)]


def kuhn_matching_size(adj: list[int]) -> int:
    """Maximum bipartite matching size by one augmenting search per left.

    adj[u] is the bit set of rights adjacent to left u; rights are indexed
    like the lefts (range(len(adj))).
    """
    n = len(adj)
    mate: list[int | None] = [None] * n

    def augment(u: int, visited: set) -> bool:
        for v in range(n):
            if adj[u] >> v & 1 and v not in visited:
                visited.add(v)
                if mate[v] is None or augment(mate[v], visited):
                    mate[v] = u
                    return True
        return False

    return sum(augment(u, set()) for u in range(n))


def full_scan_hopcroft_karp(adj: list[int]):
    """Hopcroft-Karp that tests every neighbour bit in ascending order.

    The reference for the masked search: free lefts are searched in index
    order, and right v is taken from left u when v is free or its mate's
    layer is dist[u] + 1.  Returns (pair_left, pair_right, size).
    """
    n = len(adj)
    match_l: list[int | None] = [None] * n
    match_r: list[int | None] = [None] * n
    dead = n + 1
    dist = [dead] * n
    size = 0
    while True:
        frontier = [u for u in range(n) if match_l[u] is None]
        for u in range(n):
            dist[u] = 0 if match_l[u] is None else dead
        seen = set()
        reached_free = False
        layer = 0
        while frontier:
            nxt = []
            for v in range(n):
                if v in seen or not any(adj[u] >> v & 1 for u in frontier):
                    continue
                seen.add(v)
                w = match_r[v]
                if w is None:
                    reached_free = True
                else:
                    dist[w] = layer + 1
                    nxt.append(w)
            frontier = nxt
            layer += 1
        if not reached_free:
            return match_l, match_r, size
        for root in range(n):
            if match_l[root] is not None:
                continue
            stack = [[root, 0]]  # left vertex, next right to test
            chosen: list[int] = []
            while stack:
                u, v = stack[-1]
                while v < n and not (
                    adj[u] >> v & 1
                    and (match_r[v] is None or dist[match_r[v]] == dist[u] + 1)
                ):
                    v += 1
                stack[-1][1] = v + 1
                if v == n:
                    dist[u] = dead
                    stack.pop()
                    if chosen:
                        chosen.pop()
                    continue
                chosen.append(v)
                if match_r[v] is None:
                    for (uu, _), vv in zip(stack, chosen):
                        match_l[uu] = vv
                        match_r[vv] = uu
                    size += 1
                    break
                stack.append([match_r[v], 0])


def konig_independent(
    adj: list[int], pair_l: list[int | None], pair_r: list[int | None]
) -> list[int]:
    """Vertices whose left copy is exposed-side and right copy is not.

    The reference König walk for a maximum matching: breadth-first from
    the free lefts, right along any edge, left along matched edges.  The
    vertices missed by the minimum vertex cover it gives form a maximum
    independent set of the split graph, i.e. a maximum antichain of the
    underlying order.
    """
    n = len(adj)
    zl = 0
    for u in range(n):
        if pair_l[u] is None:
            zl |= 1 << u
    zr = 0
    frontier = zl
    while frontier:
        reach = 0
        rest = frontier
        while rest:
            bit = rest & -rest
            rest ^= bit
            reach |= adj[bit.bit_length() - 1]
        reach &= ~zr
        zr |= reach
        frontier = 0
        rest = reach
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = pair_r[bit.bit_length() - 1]
            if u is not None and not zl >> u & 1:
                zl |= 1 << u
                frontier |= 1 << u
    return [x for x in range(n) if zl >> x & 1 and not zr >> x & 1]


def network_cuts(instance, weights: list[int], through: list[int], cover_flow) -> tuple:
    """(from_t, from_s) of a minimum flow, read on the network holding it.

    The reference read: element x splits into in(x) = 2x -> out(x) = 2x + 1
    with lower bound weights[x]; covers run out(x) -> in(y), the source
    s = 2n feeds minimal elements and maximal ones feed the sink t = 2n + 1.
    Every arc is uncapped, in paired slots with slot ^ 1 its reverse, which
    holds the flow above the lower bound.  The t side is every node t
    reaches; the s side, walked backwards over partner slots, every node
    that reaches s.  A cut holds the elements of positive weight that have
    their out node (t side) or in node (s side) on the side, not the other.
    """
    n = len(weights)
    s, t = 2 * n, 2 * n + 1
    uncapped = max(through, default=0) + 1
    adj: list[list[int]] = [[] for _ in range(2 * n + 2)]
    to: list[int] = []
    cap: list[int] = []

    def pair(u: int, v: int, f: int, low: int = 0) -> None:
        for a, b, c in ((u, v, uncapped - f), (v, u, f - low)):
            adj[a].append(len(to))
            to.append(b)
            cap.append(c)

    has_lower = [False] * n
    for x, ys in enumerate(instance.covers):
        pair(2 * x, 2 * x + 1, through[x], weights[x])
        for y, f in zip(ys, cover_flow[x]):
            pair(2 * x + 1, 2 * y, f)
            has_lower[y] = True
    for x, ys in enumerate(instance.covers):
        if not has_lower[x]:
            pair(s, 2 * x, through[x])
        if not ys:
            pair(2 * x + 1, t, through[x])

    def side(start: int, backwards: bool) -> set[int]:
        seen, stack = {start}, [start]
        while stack:
            u = stack.pop()
            for e in adj[u]:
                # slot e runs u -> to[e]; its partner runs to[e] -> u
                if cap[e ^ 1 if backwards else e] > 0 and to[e] not in seen:
                    seen.add(to[e])
                    stack.append(to[e])
        return seen

    def cut(marked: set[int], near: int) -> list[int]:
        return [
            x
            for x in range(n)
            if weights[x] > 0 and 2 * x + near in marked and 2 * x + 1 - near not in marked
        ]

    return cut(side(t, False), 1), cut(side(s, True), 0)


def restart_peel_profiles(dag, total: int, edge_flow: dict) -> list:
    """The reference peel: every round walks again from the source.

    Splits an integral diagram flow into weighted source-sink paths, always
    taking the smallest head with flow left.  `dag` needs `coords`, `edges`,
    `source` and `sink`.  Raises ValueError with the package's messages.
    """
    if dag.source == dag.sink:
        return [((dag.source,), total)] if total else []
    edges = dag.edges
    remaining = [edge_flow.get(e, 0) for e in edges]
    if sum(map(bool, remaining)) != sum(map(bool, edge_flow.values())):
        stray = next(e for e, f in edge_flow.items() if f and e not in edges)
        raise ValueError(f"flow on {stray}, which is not a diagram edge")
    head = [v for _, v in edges]
    leaving = {c: [] for c in dag.coords}
    for e, (u, _) in enumerate(edges):
        leaving[u].append(e)
    for out in leaving.values():
        out.sort(key=head.__getitem__)
    profiles = []
    left = total
    while left > 0:
        steps = []
        cur = dag.source
        while cur != dag.sink:
            for e in leaving[cur]:
                if remaining[e] > 0:
                    steps.append(e)
                    cur = head[e]
                    break
            else:
                raise ValueError(f"flow decomposition stuck at {cur}")
        mult = min(remaining[e] for e in steps)
        for e in steps:
            remaining[e] -= mult
        profiles.append(((dag.source, *(head[e] for e in steps)), mult))
        left -= mult
    if left < 0:
        raise ValueError(f"the flow carries {total - left} chains, not {total}")
    if any(remaining):
        raise ValueError("edge flow left over after decomposition")
    return profiles


def longest_path_shape(coord_list) -> tuple:
    """(coords in (height, i, j) order, edges, source, sink, heights).

    The reference diagram of a coordinate set, by the rule that predates
    the closed form: a restore (i - 1, j) and a gain (i, j + 1) where they
    exist, and the diagonal (i - 1, j + 1) only where neither does; every
    height is the longest edge path from the one coordinate with no
    in-edge.  Raises ValueError unless both endpoints are unique.
    """
    coords = set(coord_list)
    edges = []
    for i, j in sorted(coords):
        single = [c for c in ((i - 1, j), (i, j + 1)) if c in coords]
        diagonal = [(i - 1, j + 1)] if not single and (i - 1, j + 1) in coords else []
        edges += [((i, j), c) for c in single + diagonal]
    sources = [c for c in coord_list if all(v != c for _, v in edges)]
    sinks = [c for c in coord_list if all(u != c for u, _ in edges)]
    if len(sources) != 1 or len(sinks) != 1:
        raise ValueError(f"sources {sources}, sinks {sinks}")
    height = dict.fromkeys(coord_list, 0)
    changed = True
    while changed:  # relax to the fixpoint: the longest paths
        changed = False
        for u, v in edges:
            if height[v] < height[u] + 1:
                height[v] = height[u] + 1
                changed = True
    ordered = sorted(coord_list, key=lambda c: (height[c], c))
    return ordered, edges, sources[0], sinks[0], height
