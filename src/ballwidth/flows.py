"""Deterministic integer max-flow (Dinic) on small directed graphs.

Used by the antichain and certificate machinery, always with integral
capacities.  Edges are stored in paired slots so slot ^ 1 is the reverse
edge; augmentation is iterative and scans neighbors in insertion order,
which keeps every run reproducible.
"""

from __future__ import annotations


def reach(start: int, step) -> set[int]:
    """Nodes reachable from `start`, where `step(u)` lists u's out-neighbours."""
    seen, frontier = {start}, {start}
    while frontier:
        frontier = {v for u in frontier for v in step(u)} - seen
        seen |= frontier
    return seen


class FlowNetwork:
    def __init__(self, n: int) -> None:
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self._level: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Directed edge u -> v; returns its slot (reverse is slot ^ 1)."""
        return self.add_pair(u, v, capacity, 0)

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

    def _bfs(self, s: int, t: int) -> bool:
        level = [-1] * self.n
        level[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for e in self.adj[u]:
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
        self._level = level
        return level[t] >= 0

    def _augment(self, s: int, t: int, cursor: list[int]) -> int:
        level = self._level
        stack = [s]
        path: list[int] = []
        while stack:
            u = stack[-1]
            if u == t:
                pushed = min(self.cap[e] for e in path)
                for e in path:
                    self.cap[e] -= pushed
                    self.cap[e ^ 1] += pushed
                return pushed
            advanced = False
            while cursor[u] < len(self.adj[u]):
                e = self.adj[u][cursor[u]]
                v = self.to[e]
                if self.cap[e] > 0 and level[v] == level[u] + 1:
                    stack.append(v)
                    path.append(e)
                    advanced = True
                    break
                cursor[u] += 1
            if not advanced:
                level[u] = -1
                stack.pop()
                if path:
                    path.pop()
        return 0

    def max_flow(self, s: int, t: int) -> int:
        if s == t:
            raise ValueError("source and sink must differ")
        total = 0
        while self._bfs(s, t):
            cursor = [0] * self.n
            while True:
                pushed = self._augment(s, t, cursor)
                if pushed == 0:
                    break
                total += pushed
        return total

    def residual_reachable(self, src: int) -> set[int]:
        """Nodes reachable from src along positive residual capacity."""
        to, cap = self.to, self.cap
        return reach(src, lambda u: [to[e] for e in self.adj[u] if cap[e] > 0])

    def residual_coreachable(self, dst: int) -> set[int]:
        """Nodes that can reach dst along positive residual capacity."""
        # slot e runs u -> to[e]; its partner carries to[e] -> u
        to, cap = self.to, self.cap
        return reach(dst, lambda u: [to[e] for e in self.adj[u] if cap[e ^ 1] > 0])
