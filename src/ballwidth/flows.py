"""Deterministic integer max-flow (Dinic) on small directed graphs.

Used by the antichain and certificate machinery, always with integral
capacities.  Edges are stored in paired slots so slot ^ 1 is the reverse
edge, and every scan follows insertion order, which keeps every run
reproducible.

A phase labels levels breadth-first from the source and stops as soon as
the sink is labelled: a node at the sink's level or beyond lies on no
shortest path.  One blocking flow then walks the level graph depth-first
with a cursor per node.  A node whose cursor runs out is dead; after a
path is augmented the walk resumes at the tail of the first arc the
augmentation saturated, keeping the path up to it.  A restart from the
source would follow the same cursors along the same unsaturated prefix to
that very node, so the resumed walk finds exactly the flow the restart
would.
"""

from __future__ import annotations


class FlowNetwork:
    """Slots `to` and `cap`, and each node's slots in `adj`.

    `max_flow` only ever changes `cap` and `residual_reachable` only reads
    it; neither touches `adj` or `to`.  So networks of one layout may share
    those two lists (`on_arcs`), each with its own `cap`, as long as nobody
    calls `add_pair` on them.  A shared `adj` may leave out slots that no search
    can use, such as arcs into the source: the scans skip such slots anyway,
    so the flow and every cut stay the same.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    @classmethod
    def on_arcs(
        cls, adj: list[list[int]], to: list[int], cap: list[int]
    ) -> FlowNetwork:
        """A network on the read-only arcs `adj` and `to`, with its own `cap`."""
        if len(cap) != len(to):
            raise ValueError(f"{len(cap)} capacities for {len(to)} slots")
        net = cls.__new__(cls)
        net.n, net.adj, net.to, net.cap = len(adj), adj, to, cap
        return net

    def add_pair(self, u: int, v: int, cap_uv: int, cap_vu: int) -> int:
        if cap_uv < 0 or cap_vu < 0:
            raise ValueError("capacities must be nonnegative")
        slot = len(self.to)
        self.to.append(v)
        self.cap.append(cap_uv)
        self.adj[u].append(slot)
        self.to.append(u)
        self.cap.append(cap_vu)
        self.adj[v].append(slot + 1)
        return slot

    def flow_on(self, slot: int) -> int:
        """Units pushed across the forward direction of a pair so far."""
        return self.cap[slot ^ 1]

    def _bfs(self, s: int, t: int = -1) -> list[int]:
        """BFS levels from s, -1 where unreached; stops once t is labelled."""
        adj, to, cap = self.adj, self.to, self.cap
        level = [-1] * self.n
        level[s] = 0
        frontier = [s]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for u in frontier:
                for e in adj[u]:
                    if cap[e]:
                        v = to[e]
                        if level[v] < 0:
                            level[v] = depth
                            if v == t:
                                return level
                            nxt.append(v)
            frontier = nxt
        return level

    def max_flow(self, s: int, t: int) -> int:
        if s == t:
            raise ValueError("source and sink must differ")
        adj, to, cap = self.adj, self.to, self.cap
        total = 0
        while (level := self._bfs(s, t))[t] >= 0:
            cursor = [0] * self.n
            path: list[int] = []  # slots from s to the walk's head
            u = s
            while True:
                if u == t:
                    pushed = min(map(cap.__getitem__, path))
                    total += pushed
                    first = -1
                    for k, e in enumerate(path):
                        cap[e] -= pushed
                        cap[e ^ 1] += pushed
                        if first < 0 and not cap[e]:
                            first = k
                    del path[first:]
                    u = to[path[-1]] if path else s
                    continue
                arcs = adj[u]
                k, end = cursor[u], len(arcs)
                deeper = level[u] + 1
                while k < end:
                    e = arcs[k]
                    if cap[e] and level[to[e]] == deeper:
                        break
                    k += 1
                cursor[u] = k
                if k < end:
                    path.append(e)
                    u = to[e]
                    continue
                level[u] = -1  # dead for the rest of the phase
                if not path:
                    break
                path.pop()
                u = to[path[-1]] if path else s
                cursor[u] += 1  # its arc led to the dead node
        return total

    def residual_reachable(self, src: int) -> set[int]:
        """The nodes a sinkless `_bfs` from src reaches on positive residuals.

        The certificate search names its INFEASIBLE cut with it; the
        antichain min-flow reads its cuts off its final flow instead.
        """
        return {v for v, depth in enumerate(self._bfs(src)) if depth >= 0}
