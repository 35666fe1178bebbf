"""Maximum bipartite matching over a comparability relation.

The width engines split every poset element into a left copy (tail of a
chain step) and a right copy (head); an edge joins u-left to v-right when
u < v.  Adjacency is kept as one big-int bit set per left vertex, so both
the breadth-first layering and the depth-first searches run a machine
word at a time.

Hopcroft-Karp's depth-first search may step from a left at layer d only
to a right that is free or whose mate is alive at layer d + 1.  Each
phase keeps those rights as bit sets (the phase masks), `free_r` and
`open_r[d + 1]`, so a search frame picks the lowest unvisited bit of
adj[u] & (free_r | open_r[d + 1]) and never visits a right it rejects.

All loops are iterative; instance sizes routinely exceed the recursion
limit a depth-first formulation would need.
"""

from __future__ import annotations


def hopcroft_karp(adj: list[int]) -> tuple[list[int | None], list[int | None], int]:
    """Maximum matching for the bipartite graph adj[u] = bit set of rights.

    Returns (pair_left, pair_right, size).  Deterministic: free left
    vertices are searched in index order and each frame takes its
    acceptable rights in ascending bit order.

    Each phase layers the lefts by breadth-first search from the free
    ones (layer 0); a matched right first reached from layer d puts its
    mate at layer d + 1, so `open_r[d + 1]` starts as exactly those
    rights.  Frame k of the search stack holds a left at layer k.  Only
    two events change a mate or a layer, and each updates the masks:

    - a left whose frame runs dry is dead for the phase, and its mate's
      bit leaves `open_r`;
    - an augmentation rematches each right on its path to the left one
      frame shallower, so the right moves from `open_r[k + 1]` to
      `open_r[k]`, and the free end at the path's last frame k moves
      from `free_r` to `open_r[k]`.

    A frame re-masks before every pick, because deaths shrink `open_r`.
    The masked-out rights are the ones a full scan of adj[u] would test
    and reject, and within one search they stay rejected: no mate
    changes until the search ends, and a dead left never revives.  So
    the rights accepted, and their order, match a one-bit-at-a-time
    scan, and so does the returned matching.
    """
    n = len(adj)
    match_l: list[int | None] = [None] * n
    match_r: list[int | None] = [None] * n
    size = 0
    free_r = (1 << n) - 1

    while True:
        # layer the alternating-path graph from the free left vertices
        frontier = [u for u in range(n) if match_l[u] is None]
        open_r = [0]
        seen_r = 0
        reached_free = False
        while frontier:
            reach = 0
            for u in frontier:
                reach |= adj[u]
            reach &= ~seen_r
            seen_r |= reach
            reached_free = reached_free or bool(reach & free_r)
            matched = reach & ~free_r
            open_r.append(matched)
            frontier = []
            while matched:
                bit = matched & -matched
                matched ^= bit
                frontier.append(match_r[bit.bit_length() - 1])
        if not reached_free:
            return match_l, match_r, size

        for root in range(n):
            if match_l[root] is not None:
                continue
            stack = [root]
            rems = [adj[root]]
            chosen: list[int] = []
            while stack:
                d = len(stack) - 1
                rem = rems[d] & (free_r | open_r[d + 1])
                if not rem:
                    u = stack.pop()
                    rems.pop()
                    if match_l[u] is not None:
                        open_r[d] ^= 1 << match_l[u]
                    if chosen:
                        chosen.pop()
                    continue
                bit = rem & -rem
                rems[d] = rem ^ bit
                v = bit.bit_length() - 1
                chosen.append(v)
                if free_r & bit:
                    free_r ^= bit
                    for k, (u, v) in enumerate(zip(stack, chosen)):
                        match_l[u] = v
                        match_r[v] = u
                        open_r[k] ^= 1 << v
                        if k < d:
                            open_r[k + 1] ^= 1 << v
                    size += 1
                    break
                w = match_r[v]
                stack.append(w)
                rems.append(adj[w])


def konig_independent(
    adj: list[int], pair_l: list[int | None], pair_r: list[int | None]
) -> list[int]:
    """Vertices whose left copy is exposed-side and right copy is not.

    These are exactly the vertices missed by a minimum vertex cover of the
    split graph, i.e. a maximum antichain of the underlying order.
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
