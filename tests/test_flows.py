import random
from itertools import combinations

import pytest

from ballwidth.flows import FlowNetwork


def random_network(rng: random.Random, n: int):
    """A network on n nodes with parallel arcs and two-way pairs."""
    net = FlowNetwork(n)
    arcs = []  # (u, v, capacity) per slot, reverse slots included
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.sample(range(n), 2)
        cap_uv = rng.randint(0, 6)
        cap_vu = rng.randint(0, 6) if rng.random() < 0.3 else 0
        net.add_pair(u, v, cap_uv, cap_vu)
        arcs += [(u, v, cap_uv), (v, u, cap_vu)]
    return net, arcs


def cut_capacity(arcs, side: set[int]) -> int:
    return sum(c for u, v, c in arcs if u in side and v not in side)


def brute_min_cut(n: int, arcs, s: int, t: int) -> int:
    inner = [x for x in range(n) if x not in (s, t)]
    return min(
        cut_capacity(arcs, {s, *extra})
        for k in range(len(inner) + 1)
        for extra in combinations(inner, k)
    )


def positive_residual_walk(net: FlowNetwork, src: int) -> set[int]:
    """Depth-first walk from src over slots with positive residual capacity."""
    seen, stack = {src}, [src]
    while stack:
        u = stack.pop()
        for e in net.adj[u]:
            if net.cap[e] > 0 and net.to[e] not in seen:
                seen.add(net.to[e])
                stack.append(net.to[e])
    return seen


@pytest.mark.parametrize("seed", range(60))
def test_max_flow_matches_brute_force_min_cut(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    net, arcs = random_network(rng, n)
    s, t = rng.sample(range(n), 2)
    value = net.max_flow(s, t)
    assert value == brute_min_cut(n, arcs, s, t)

    # every slot keeps a nonnegative residual, and net flow out of a node
    # is the value at s, minus it at t, zero elsewhere
    assert all(c >= 0 for c in net.cap)
    for x in range(n):
        out = sum(arcs[e][2] - net.cap[e] for e in net.adj[x])
        assert out == (value if x == s else -value if x == t else 0)

    # the residual side of s is a minimum cut
    side = net.residual_reachable(s)
    assert t not in side
    assert cut_capacity(arcs, side) == value
    # and from every node, not only s, it is what a plain walk finds
    for x in range(n):
        assert net.residual_reachable(x) == positive_residual_walk(net, x)

    assert net.max_flow(s, t) == 0


def test_resumes_at_the_first_saturated_arc():
    # s -> a -> b -> t saturates a -> b and b -> t together; the walk
    # keeps s -> a and takes a's next arc, a -> c -> t, for what is left.
    # Resuming at b instead would try the spare b -> t over a full a -> b.
    s, a, b, c, t = range(5)
    net = FlowNetwork(5)
    sa = net.add_pair(s, a, 4, 0)
    ab = net.add_pair(a, b, 1, 0)
    bt = net.add_pair(b, t, 1, 0)
    spare = net.add_pair(b, t, 5, 0)
    ac = net.add_pair(a, c, 2, 0)
    ct = net.add_pair(c, t, 5, 0)
    assert net.max_flow(s, t) == 3
    flows = [net.flow_on(e) for e in (sa, ab, bt, spare, ac, ct)]
    assert flows == [3, 1, 1, 0, 2, 2]
    assert net.max_flow(s, t) == 0


@pytest.mark.parametrize("seed", range(40))
def test_shared_arcs_without_unusable_slots_give_the_same_flow(seed):
    # slots into the source and the sink's own slots are never taken by a
    # search from the source; leaving them out of a shared adjacency keeps
    # every scan's order, so the flow, the residuals and the cut are equal
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    net, _ = random_network(rng, n)
    s, t = rng.sample(range(n), 2)
    adj = [[e for e in arcs if net.to[e] != s] for arcs in net.adj]
    adj[t] = []
    to = net.to[:]
    shared = FlowNetwork.on_arcs(adj, to, net.cap[:])
    kept = [arcs[:] for arcs in adj]
    assert shared.max_flow(s, t) == net.max_flow(s, t)
    assert shared.cap == net.cap
    assert shared.residual_reachable(s) == net.residual_reachable(s)
    assert shared.adj == kept and shared.to == net.to


def random_preload(rng: random.Random, net: FlowNetwork, s: int, t: int) -> int:
    """Push random amounts along random residual s-t paths; returns the total."""
    total = 0
    for _ in range(rng.randint(1, 3)):
        path: list[int] = []
        seen, stack = {s}, [list(net.adj[s])]
        while stack and (not path or net.to[path[-1]] != t):
            arcs = [e for e in stack[-1] if net.cap[e] > 0 and net.to[e] not in seen]
            if not arcs:  # dead end: back out of the last arc
                stack.pop()
                if path:
                    path.pop()
                continue
            e = rng.choice(arcs)
            stack[-1].remove(e)
            seen.add(net.to[e])
            path.append(e)
            stack.append(list(net.adj[net.to[e]]))
        if not path:
            break
        pushed = rng.randint(1, min(net.cap[e] for e in path))
        for e in path:
            net.cap[e] -= pushed
            net.cap[e ^ 1] += pushed
        total += pushed
    return total


@pytest.mark.parametrize("seed", range(40))
def test_preloaded_flow_is_completed_to_the_maximum(seed):
    # a search handed a feasible maximum confirms it and changes nothing;
    # handed part of one, it adds exactly what the cold search would
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    net, _ = random_network(rng, n)
    s, t = rng.sample(range(n), 2)
    cold = FlowNetwork.on_arcs(net.adj, net.to, net.cap[:])
    value = cold.max_flow(s, t)

    done = FlowNetwork.on_arcs(net.adj, net.to, cold.cap[:])
    assert done.max_flow(s, t) == 0
    assert done.cap == cold.cap

    preloaded = random_preload(rng, net, s, t)
    assert all(c >= 0 for c in net.cap)
    assert preloaded + net.max_flow(s, t) == value


def test_invalid_input_raises():
    net = FlowNetwork(2)
    with pytest.raises(ValueError, match="differ"):
        net.max_flow(1, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        net.add_pair(0, 1, -1, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        net.add_pair(0, 1, 1, -1)
    with pytest.raises(ValueError, match="3 capacities for 2 slots"):
        FlowNetwork.on_arcs([[0], [1]], [1, 0], [1, 0, 0])
