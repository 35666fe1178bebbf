"""Maximum bipartite matching over a comparability relation.

The width engines split every poset element into a left copy (tail of a
chain step) and a right copy (head); an edge joins u-left to v-right when
u < v.  Adjacency is kept as one big-int bit set per left vertex, so both
the breadth-first layering and the depth-first searches run a machine
word at a time.  The sets are top-first, right v at bit n - 1 - v: the
lowest right is the highest bit, which `bit_length` reads at once.

Phase one is a greedy pass: with every left free, each left in index
order takes its lowest free right.  In every later phase, Hopcroft-Karp's
depth-first search may step from a left at layer d only to a right that
is free or whose mate is alive at layer d + 1.  Each phase keeps those
rights as bit sets (the phase masks), `free_r` and `open_r[d + 1]`, so a
search frame picks the highest unvisited bit of
adj[u] & (free_r | open_r[d + 1]) and never visits a right it rejects.
The last layering, the one that reaches no free right, is König's
alternating walk, so the maximum antichain is read off it: no second walk
over the adjacency is needed.

All loops are iterative; instance sizes routinely exceed the recursion
limit a depth-first formulation would need.
"""

from __future__ import annotations

from itertools import compress

# binary digits as flag bytes: "1" is 1, "0" is 0
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def hopcroft_karp(
    adj: list[int],
) -> tuple[list[int | None], list[int | None], int, list[int]]:
    """Maximum matching for adj[u] = rights of u, right v at bit n - 1 - v.

    Returns (pair_left, pair_right, size, konig): konig lists, ascending,
    the vertices whose left copy the final layering reaches and whose
    right copy it does not.  Those are the vertices a minimum vertex cover
    misses (König), so over a comparability relation they form a maximum
    antichain.  Deterministic: free left vertices are searched in index
    order and each frame takes its acceptable rights in ascending index
    order, which is descending bit order.

    Phase one is a greedy pass.  Every left is free then, so the layering
    has one layer and `open_r[1]` is empty: each left in index order takes
    its lowest free right, if it has one.

    Each later phase layers the lefts by breadth-first search from the free
    ones (layer 0); a matched right first reached from layer d puts its
    mate at layer d + 1, so `open_r[d + 1]` starts as exactly those
    rights.  The phase whose layering reaches no free right ends the
    search; the lefts it visited are the alternating set König's theorem
    walks, and the rights it reached are their mates.  Frame k of the
    search stack holds a left at layer k.  Only two events change a mate
    or a layer, and each updates the masks:

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
    top = n - 1  # right v sits at bit top - v
    match_l: list[int | None] = [None] * n
    match_r: list[int | None] = [None] * n
    size = 0
    free_r = (1 << n) - 1
    for u, rights in enumerate(adj):
        rem = rights & free_r
        if rem:
            b = rem.bit_length() - 1
            free_r ^= 1 << b
            v = top - b
            match_l[u] = v
            match_r[v] = u
            size += 1

    while True:
        # layer the alternating-path graph from the free left vertices
        frontier = [u for u in range(n) if match_l[u] is None]
        visited = frontier[:]
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
            # the bits top-first, one flag byte each: the last byte is right n - 1
            flags = bin(matched).encode()[2:].translate(_FLAGS)
            frontier = list(compress(match_r[n - len(flags) :], flags))
            visited += frontier
        if not reached_free:
            # no free right was reached: the rights reached are the mates
            # of the lefts visited after layer 0
            konig = set(visited).difference(map(match_l.__getitem__, visited))
            return match_l, match_r, size, sorted(konig)

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
                        open_r[d] ^= 1 << top - match_l[u]
                    if chosen:
                        chosen.pop()
                    continue
                b = rem.bit_length() - 1
                rems[d] = rem ^ (1 << b)
                v = top - b
                chosen.append(v)
                if match_r[v] is None:
                    free_r ^= 1 << b
                    for k, (u, v) in enumerate(zip(stack, chosen)):
                        match_l[u] = v
                        match_r[v] = u
                        open_r[k] ^= 1 << top - v
                        if k < d:
                            open_r[k + 1] ^= 1 << top - v
                    size += 1
                    break
                w = match_r[v]
                stack.append(w)
                rems.append(adj[w])
