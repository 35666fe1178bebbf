import hashlib
import random
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballwidth import certificates, poset
from ballwidth.antichains import width
from ballwidth.certificates import (
    CERTIFIED,
    CERTIFIED_STRICT,
    INFEASIBLE,
    NOT_APPLICABLE,
    Certificate,
    certificate_check,
    _peel,
    certificate_search,
    certified_width,
    gk_partition,
    theorem_bound,
    zigzag_certificate,
)
from ballwidth.combinatorics import (
    Ball,
    GroundParams,
    Sphere,
    build_table,
    layer_profile,
    sublayer_chain_cover,
    sublayer_size,
)
from ballwidth.errors import BudgetExceededError, InternalConsistencyError
from ballwidth.flows import FlowNetwork
from ballwidth.poset import build_ball, quotient_dag

from helpers import pascal_binomial, restart_peel_profiles

TINY = GroundParams(1, 2, 1)
TINY_PROFILE = ((1, 0), (0, 0), (0, 1))


@pytest.fixture(scope="module")
def tiny():
    return quotient_dag(TINY, Ball())


def tiny_certificate(mult=2, coverage=None, target=2):
    if coverage is None:
        coverage = {(1, 0): mult, (0, 0): mult, (0, 1): mult}
    return Certificate(((TINY_PROFILE, mult),), coverage, target)


class TestCertificateCheck:
    def test_accepts_valid_certificate(self, tiny):
        dag = tiny
        assert certificate_check(tiny_certificate(), dag)

    def test_malformed_input_raises(self, tiny):
        dag = tiny
        with pytest.raises(ValueError, match="target height"):
            certificate_check(tiny_certificate(target=5), dag)
        with pytest.raises(ValueError, match="unknown coordinate"):
            bad = Certificate(((TINY_PROFILE, 2),), {(0, 2): 2}, 2)
            certificate_check(bad, dag)
        with pytest.raises(ValueError, match="must be a count"):
            certificate_check(
                tiny_certificate(coverage={(1, 0): "2", (0, 0): 2, (0, 1): 2}),
                dag,
            )
        with pytest.raises(ValueError, match="must be a count"):
            certificate_check(
                tiny_certificate(coverage={(1, 0): -1, (0, 0): 2, (0, 1): 2}),
                dag,
            )
        with pytest.raises(ValueError, match="multiplicity"):
            certificate_check(Certificate(((TINY_PROFILE, 0),), {}, 2), dag)
        with pytest.raises(ValueError, match="unknown coordinate"):
            certificate_check(Certificate(((((1, 0), (1, 1)), 1),), {}, 2), dag)
        with pytest.raises(ValueError, match="empty profile"):
            certificate_check(Certificate((((), 1),), {}, 0), dag)

    def test_profile_must_span_source_to_sink(self, tiny):
        dag = tiny
        short = Certificate(
            ((((0, 0), (0, 1)), 2),), {(0, 0): 2, (0, 1): 2}, 2
        )
        assert not certificate_check(short, dag)

    def test_profile_must_end_at_the_sink(self, tiny):
        dag = tiny
        # from the source (1, 0), but it stops at (0, 0), short of the sink
        stops = Certificate(
            ((((1, 0), (0, 0)), 2),), {(1, 0): 2, (0, 0): 2}, 2
        )
        assert not certificate_check(stops, dag)

    def test_profile_steps_must_be_edges(self, tiny):
        dag = tiny
        jump = Certificate(
            ((((1, 0), (0, 1)), 2),), {(1, 0): 2, (0, 1): 2}, 2
        )
        assert not certificate_check(jump, dag)

    def test_coverage_must_match_the_profiles(self, tiny):
        dag = tiny
        lying = tiny_certificate(coverage={(1, 0): 2, (0, 0): 3, (0, 1): 2})
        assert not certificate_check(lying, dag)

    def test_target_layer_must_be_exact(self, tiny):
        dag = tiny
        # two chains put coverage 2 on the singleton layer at height 1
        assert not certificate_check(tiny_certificate(target=1), dag)

    def test_domination_of_the_target_rate(self, tiny):
        dag = tiny
        # one chain is exact on height 0 but covers only half of (0, 1)
        starved = tiny_certificate(mult=1, target=0)
        assert not certificate_check(starved, dag)


class TestCertificateSearch:
    def test_tiny_ball_is_strictly_certified(self, tiny):
        dag = tiny
        verdict = certificate_search(dag, 2)
        assert verdict.status == CERTIFIED_STRICT
        assert verdict.certificate.profiles == ((TINY_PROFILE, 2),)
        assert verdict.certificate.coverage == {(1, 0): 2, (0, 0): 2, (0, 1): 2}
        assert certificate_check(verdict.certificate, dag)

    def test_impossible_target_reports_the_cut(self, tiny):
        dag = tiny
        verdict = certificate_search(dag, 0)
        assert verdict.status == INFEASIBLE
        assert verdict.certificate is None
        assert verdict.diagnostics == (
            "no covering chain family: demand is short by 1 units "
            "against the cut at [(0, 1), (1, 0)]"
        )

    def test_target_height_validation(self, tiny):
        dag = tiny
        with pytest.raises(ValueError):
            certificate_search(dag, 3)

    @pytest.mark.parametrize(
        "p,q,r",
        [(1, 2, 1), (2, 3, 2), (3, 2, 2), (3, 3, 2), (4, 4, 2), (2, 4, 2)],
    )
    def test_search_certifies_strict_largest_layers(self, p, q, r):
        params = GroundParams(p, q, r)
        dag = quotient_dag(params, Ball())
        profile = layer_profile(dag)
        assert not profile.tie, "corpus must use strict largest layers"
        verdict = certificate_search(dag, profile.argmax[0])
        assert verdict.status in (CERTIFIED, CERTIFIED_STRICT)
        assert certificate_check(verdict.certificate, dag)
        # a chain family covering every layer at the target rate pins the
        # width to the layer size, so the two must agree
        assert profile.max_size == width(build_ball(params))[0]
        total = sum(m for _, m in verdict.certificate.profiles)
        assert total == profile.max_size


class TestPeelProfiles:
    # the tiny diagram's edges by number: 0 is (0, 0) -> (0, 1), 1 is
    # (1, 0) -> (0, 0), from the source up to the sink

    def test_stuck_walk_raises(self, tiny):
        with pytest.raises(InternalConsistencyError, match=r"stuck at \(0, 0\)"):
            _peel(tiny.shape, 1, [0, 1])

    def test_leftover_flow_raises(self, tiny):
        with pytest.raises(InternalConsistencyError, match="left over"):
            _peel(tiny.shape, 1, [1, 2])

    def test_flow_beyond_the_total_raises(self, tiny):
        with pytest.raises(InternalConsistencyError, match="carries 2 chains, not 1"):
            _peel(tiny.shape, 1, [2, 2])


@st.composite
def diagram_flows(draw):
    """A ball or sphere diagram, truncated or not, and a sum of drawn paths."""
    p, q = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    if draw(st.booleans()):
        dag = quotient_dag(GroundParams(p, q, draw(st.integers(0, p + q))), Ball())
    else:
        dag = quotient_dag(GroundParams(p, q, 0), Sphere(draw(st.integers(0, p + q))))
    flow: dict = {}
    total = 0
    for _ in range(draw(st.integers(0, 6))):
        mult = draw(st.integers(1, 4))
        cur = dag.source
        while cur != dag.sink:
            edge = draw(st.sampled_from([e for e in dag.edges if e[0] == cur]))
            flow[edge] = flow.get(edge, 0) + mult
            cur = edge[1]
        total += mult
    return dag, flow, total


class TestResumedPeel:
    """The peel resumes at the first saturated edge; a restart peels the same."""

    def test_every_search_flow_up_to_ten(self, monkeypatch):
        real = certificates._peel
        agreed = []

        def peel(shape, total, remaining):
            flow = dict(zip(shape.edges, remaining))
            expected = restart_peel_profiles(shape, total, flow)
            got = real(shape, total, remaining)
            agreed.append(got == expected)
            return got

        monkeypatch.setattr(certificates, "_peel", peel)
        certified_width_digest(10)
        assert len(agreed) == 710 and all(agreed)  # 770 verdicts, 60 of them ties

    @settings(max_examples=300, deadline=None)
    @given(diagram_flows(), st.integers(-1, 1), st.booleans())
    def test_drawn_diagram_flows(self, drawn, shift, bump):
        # an extra unit on one edge, or a total off by one, must fail with
        # the reference's error at the same coordinate
        dag, flow, total = drawn
        if bump and flow:
            flow[min(flow)] += 1
        total += shift
        remaining = [flow.get(e, 0) for e in dag.edges]
        try:
            expected = restart_peel_profiles(dag, total, flow)
        except ValueError as err:
            with pytest.raises(InternalConsistencyError) as got:
                _peel(dag.shape, total, remaining)
            assert str(got.value) == str(err)
        else:
            assert _peel(dag.shape, total, remaining) == expected


def full_search_network(dag, target_height, strict, start=None):
    """The search network with every slot in every adjacency, built pair by pair.

    `start`, a chain cover (through, flows) of the demand, is loaded as the
    starting flow, with every demand arc saturated.
    """
    coords = dag.coords
    index = {c: k for k, c in enumerate(coords)}
    kk = len(coords)
    exact = [dag.height_of[c] == target_height for c in coords]
    low = [
        dag.table.sizes[c] + (strict and not on_target)
        for c, on_target in zip(coords, exact)
    ]
    inf = sum(low) + 1
    through, flows = start or (dict.fromkeys(coords, 0), [0] * len(dag.edges))
    net = FlowNetwork(2 * kk + 2)
    for k, on_target in enumerate(exact):
        over = through[coords[k]] - low[k] if start else 0
        net.add_pair(2 * k, 2 * k + 1, (0 if on_target else inf) - over, over)
    for (u, v), f in zip(dag.edges, flows):
        net.add_pair(2 * index[u] + 1, 2 * index[v], inf - f, f)
    total = through[dag.sink]
    net.add_pair(2 * index[dag.sink] + 1, 2 * index[dag.source], inf - total, total)
    for k, demand in enumerate(low):
        met = demand if start else 0
        net.add_pair(2 * kk, 2 * k + 1, demand - met, met)
        net.add_pair(2 * k, 2 * kk + 1, demand - met, met)
    return net


def route_b_start(dag, target_height):
    """Route B's cover of the strict demand, if it covers the target exactly."""
    low = {c: n + (dag.height_of[c] != target_height) for c, n in dag.table.sizes.items()}
    through, flows = sublayer_chain_cover(dag, low)
    on_target = [c for c in dag.coords if dag.height_of[c] == target_height]
    if all(through[c] == low[c] for c in on_target):
        return through, flows
    return None


def cold_strict_summary(dag, target_height):
    """A strict search's verdict, read off the cold full network's flow.

    (status, diagnostics) when the demand is short, else (status, coverage,
    profiles), the profiles split by the reference peel.
    """
    net = full_search_network(dag, target_height, True)
    ss, kk = net.n - 2, len(dag.coords)
    need = sum(net.cap[e] for e in net.adj[ss])
    got = net.max_flow(ss, ss + 1)
    if got < need:
        cut = net.residual_reachable(ss)
        pinched = sorted(
            c for k, c in enumerate(dag.coords) if (2 * k in cut) != (2 * k + 1 in cut)
        )
        return INFEASIBLE, (
            f"no covering chain family: demand is short by {need - got} "
            f"units against the cut at {pinched}"
        )
    off = [c for c in dag.coords if dag.height_of[c] != target_height]
    coverage = {
        c: dag.table.sizes[c] + (c in off) + net.flow_on(2 * k)
        for k, c in enumerate(dag.coords)
    }
    edge_flow = {e: net.flow_on(2 * kk + 2 * n) for n, e in enumerate(dag.edges)}
    total = net.flow_on(2 * kk + 2 * len(dag.edges))
    profiles = tuple(restart_peel_profiles(dag, total, edge_flow))
    return CERTIFIED_STRICT if off else CERTIFIED, coverage, profiles


def strict_summary(verdict):
    if verdict.status == INFEASIBLE:
        return verdict.status, verdict.diagnostics
    return verdict.status, verdict.certificate.coverage, verdict.certificate.profiles


class TestSharedLayout:
    def test_same_flow_and_cut_as_the_full_network(self, monkeypatch):
        # every target height, feasible or not: the shared layout's slots,
        # flows and residual side of the source equal the full network's
        nets = []
        real = FlowNetwork.on_arcs.__func__

        def on_arcs(cls, adj, to, cap):
            nets.append(real(cls, adj, to, cap))
            return nets[-1]

        monkeypatch.setattr(FlowNetwork, "on_arcs", classmethod(on_arcs))
        statuses = set()
        warm = 0
        for p in range(1, 7):
            for q in range(1, 7):
                for r in range(min(p, q) + 1):
                    dag = quotient_dag(GroundParams(p, q, r), Ball())
                    for height in range(dag.top_height + 1):
                        for strict in (False, True):
                            verdict = certificate_search(dag, height, strict)
                            statuses.add(verdict.status)
                            # a strict search starts from route B's cover
                            # when that cover fits, and cold otherwise
                            start = route_b_start(dag, height) if strict else None
                            warm += start is not None
                            full = full_search_network(dag, height, strict, start)
                            ss = full.n - 2
                            full.max_flow(ss, ss + 1)
                            assert nets[-1].to == full.to
                            assert nets[-1].cap == full.cap
                            assert nets[-1].residual_reachable(
                                ss
                            ) == full.residual_reachable(ss)
        assert statuses == {CERTIFIED, CERTIFIED_STRICT, INFEASIBLE}
        assert warm > 0


def verdict_summary(verdict, size):
    cert = verdict.certificate
    if cert is None:
        return verdict.status, verdict.diagnostics, size, None
    return (
        verdict.status,
        verdict.diagnostics,
        size,
        (cert.profiles, cert.coverage, cert.target_height),
    )


class TestSharedShapes:
    def test_warm_verdicts_equal_cold_ones(self):
        tuples = [
            GroundParams(p, q, r)
            for p in range(1, 9)
            for q in range(1, 9)
            for r in range(min(p, q) + 1)
        ]
        shuffled = tuples[:]
        random.Random(17).shuffle(shuffled)
        runs = []
        for order in (tuples, tuples[::-1], shuffled):
            poset._diagram_shape.cache_clear()
            runs.append(
                {
                    (params, strict): verdict_summary(*certified_width(params, strict))
                    for params in order
                    for strict in (False, True)
                }
            )
        assert len(runs[0]) == 2 * len(tuples)
        assert runs[0] == runs[1] == runs[2]

    def test_point_ball_after_point_sphere(self):
        poset._diagram_shape.cache_clear()
        sphere = quotient_dag(GroundParams(3, 4, 5), Sphere(0))
        verdict, size = certified_width(GroundParams(3, 4, 0))
        assert quotient_dag(GroundParams(3, 4, 0), Ball()).shape is sphere.shape
        assert size == 1
        assert verdict.certificate.profiles == ((((0, 0),), 1),)

    def test_sizes_of_the_tuple_decide_the_check(self):
        # one shape, two tuples: a certificate covers its own sizes only
        a, b = GroundParams(5, 8, 4), GroundParams(6, 9, 4)
        dags = {params: quotient_dag(params, Ball()) for params in (a, b)}
        assert dags[a].shape is dags[b].shape
        for own, other in ((a, b), (b, a)):
            verdict, _ = certified_width(own)
            assert certificate_check(verdict.certificate, dags[own])
            assert not certificate_check(verdict.certificate, dags[other])

    PLANS = ["layer_bounds", "route_order", "route_edges"]

    def spy_plans(self, monkeypatch):
        """Count the builds of each shape plan, by name."""
        built = dict.fromkeys(self.PLANS, 0)
        for name in self.PLANS:
            build = vars(poset.DiagramShape)[name].func

            def spy(shape, build=build, name=name):
                built[name] += 1
                return build(shape)

            plan = cached_property(spy)
            plan.__set_name__(poset.DiagramShape, name)
            monkeypatch.setattr(poset.DiagramShape, name, plan)
        return built

    def test_one_shape_builds_its_plans_once(self, monkeypatch):
        # route B, the profile, the check and the grade of two tuples of one
        # untruncated shape read the same plans, and the search its layout
        built = self.spy_plans(monkeypatch)
        poset._diagram_shape.cache_clear()
        a, b = GroundParams(5, 8, 4), GroundParams(6, 9, 4)
        shapes, verdicts = [], []
        for params in (a, b):
            shapes.append(quotient_dag(params, Ball()).shape)
            verdicts.append(certified_width(params, strict=True)[0])
        assert shapes[0] is shapes[1]
        assert [v.status for v in verdicts] == [CERTIFIED_STRICT] * 2
        assert built == dict.fromkeys(self.PLANS, 1)
        assert list(shapes[0].search_layouts) == [4]

    def test_truncated_shapes_build_their_own(self, monkeypatch):
        # two truncated tuples of one coordinate set: each uncached shape
        # builds its own plans, equal to the other's
        built = self.spy_plans(monkeypatch)
        dags = [quotient_dag(GroundParams(2, q, 4), Ball()) for q in (4, 5)]
        assert dags[0].coords == dags[1].coords and dags[0].shape is not dags[1].shape
        for dag in dags:
            target = layer_profile(dag).argmax[0]
            assert certificate_search(dag, target).status == CERTIFIED
            certificate_search(dag, target, strict=True)
        assert built == dict.fromkeys(self.PLANS, 2)
        for name in self.PLANS:
            assert getattr(dags[0].shape, name) == getattr(dags[1].shape, name)
            assert getattr(dags[0].shape, name) is not getattr(dags[1].shape, name)


def certified_width_digest(n: int, modes=(False, True)) -> tuple[int, str]:
    """Hash every verdict with p, q <= n and 1 <= r <= min(p, q) in `modes`."""
    h = hashlib.sha256()
    count = 0
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            for r in range(1, min(p, q) + 1):
                for strict in modes:
                    verdict, _ = certified_width(GroundParams(p, q, r), strict)
                    cert = verdict.certificate
                    h.update(
                        repr(
                            (
                                (p, q, r, strict),
                                verdict.status,
                                verdict.diagnostics,
                                None if cert is None else cert.profiles,
                                None if cert is None else sorted(cert.coverage.items()),
                            )
                        ).encode()
                    )
                    count += 1
    return count, h.hexdigest()


def strict_status_digest(n: int) -> tuple[int, str]:
    """Hash every strict search's status with p, q <= n, every radius up to
    p + q and every target height, with the cut of each INFEASIBLE one."""
    h = hashlib.sha256()
    count = 0
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            for r in range(p + q + 1):
                dag = quotient_dag(GroundParams(p, q, r), Ball())
                for t in range(dag.top_height + 1):
                    verdict = certificate_search(dag, t, strict=True)
                    cut = verdict.diagnostics if verdict.status == INFEASIBLE else None
                    h.update(repr((p, q, r, t, verdict.status, cut)).encode())
                    count += 1
    return count, h.hexdigest()


def route_b_digest(n: int) -> tuple[int, str]:
    """Hash route B's (through, flows) on every ball with p, q <= n at every
    radius up to p + q: the plain demand (the sizes), then the strict
    demand (one more off the target height) at every target height."""
    h = hashlib.sha256()
    count = 0
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            for r in range(p + q + 1):
                dag = quotient_dag(GroundParams(p, q, r), Ball())
                sizes = dag.table.sizes
                demands = [(None, sizes)] + [
                    (t, {c: n + (dag.height_of[c] != t) for c, n in sizes.items()})
                    for t in range(dag.top_height + 1)
                ]
                for t, demand in demands:
                    through, flows = sublayer_chain_cover(dag, demand)
                    h.update(repr((p, q, r, t, list(through.items()), flows)).encode())
                    count += 1
    return count, h.hexdigest()


class TestRouteBDigest:
    def test_covers_are_pinned(self):
        # route B's cover is the strict search's start and the element
        # min-flow's grid flow: any change to its greedy order moves this
        assert route_b_digest(8) == (
            5792,
            "15e0cc6130053a885d8deeeb9aebff6b74b31c1a57dca58d96704a486c8c9087",
        )


class TestStrictStart:
    def test_statuses_are_pinned(self):
        # a strict grade holds for every feasible strict flow, and an
        # INFEASIBLE search starts cold: neither moves with the start
        assert strict_status_digest(8) == (
            5152,
            "4eeed4c46a3ae6d89503c708834367612d4d4093a0cf39e55db9535a93573f25",
        )

    def test_untied_balls_take_the_warm_start(self, monkeypatch):
        # the loaded cover saturates every demand arc, so Dinic finds no
        # path in its first search; a cold start needs more than one
        runs = []
        real_max_flow, real_bfs = FlowNetwork.max_flow, FlowNetwork._bfs

        def max_flow(self, s, t):
            runs.append([0, 0])
            runs[-1][0] = real_max_flow(self, s, t)
            return runs[-1][0]

        def bfs(self, s, t=-1):
            runs[-1][1] += 1
            return real_bfs(self, s, t)

        monkeypatch.setattr(FlowNetwork, "max_flow", max_flow)
        monkeypatch.setattr(FlowNetwork, "_bfs", bfs)
        untied = 0
        for p in range(1, 9):
            for q in range(1, 9):
                for r in range(min(p, q) + 1):
                    verdict, _ = certified_width(GroundParams(p, q, r), strict=True)
                    if verdict.status == NOT_APPLICABLE:
                        continue
                    untied += 1
                    assert verdict.status in (CERTIFIED, CERTIFIED_STRICT)
                    assert runs[-1] == [0, 1], (p, q, r)
        assert untied == len(runs) == 248

    @pytest.mark.parametrize("plant", ["short sublayer", "short edge", "covered target"])
    def test_planted_cover_cannot_move_a_verdict(self, monkeypatch, plant):
        # a bad route-B cover either raises or leaves the cold verdict
        real = certificates.sublayer_chain_cover

        def planted(dag, demand):
            through, flows = real(dag, demand)
            through, flows = dict(through), list(flows)
            if plant == "short sublayer":
                through[dag.sink] = demand[dag.sink] - 1
            elif plant == "short edge" and flows:
                flows[-1] -= 1
            elif plant == "covered target":
                through = {c: n + 1 for c, n in through.items()}
            return through, flows

        monkeypatch.setattr(certificates, "sublayer_chain_cover", planted)
        searches = raised = 0
        for p in range(1, 6):
            for q in range(1, 6):
                for r in range(min(p, q) + 1):
                    dag = quotient_dag(GroundParams(p, q, r), Ball())
                    for t in range(dag.top_height + 1):
                        searches += 1
                        try:
                            verdict = certificate_search(dag, t, strict=True)
                        except InternalConsistencyError as err:
                            if plant == "short sublayer":
                                assert "route B" in str(err)
                            raised += 1
                            continue
                        assert strict_summary(verdict) == cold_strict_summary(dag, t)
        if plant == "short sublayer":
            assert raised == searches
        elif plant == "covered target":
            assert raised == 0
        else:  # it raises where the cover fits and would be loaded
            assert 0 < raised < searches


class TestCertifiedWidth:
    def test_verdicts_are_pinned(self):
        # a plain certificate follows the flow Dinic finds, and a strict one
        # route B's cover wherever it fits, so any change to the augmenting
        # order, the network's arc order, route B or the peel moves this
        assert certified_width_digest(10) == (
            770,
            "76005f0963560eb87afe74a1c5ec02d298f1a2baaf116639559a3963c0ec5d32",
        )

    def test_reference_ball(self):
        verdict, size = certified_width(GroundParams(5, 8, 4))
        assert size == 321
        assert verdict.status == CERTIFIED
        assert verdict.diagnostics == (
            "321 chains in 6 profiles; coverage is exact on height 4 and "
            "meets every other sublayer at no worse a rate"
        )
        # the tied sphere sublayer is covered exactly, which is what keeps
        # the verdict from being strict
        assert verdict.certificate.coverage[(1, 3)] == 280

    def test_reference_ball_strict_variant_exists(self):
        verdict, size = certified_width(GroundParams(5, 8, 4), strict=True)
        assert verdict.status == CERTIFIED_STRICT
        table = build_table(GroundParams(5, 8, 4))
        dag = quotient_dag(GroundParams(5, 8, 4), Ball())
        assert certificate_check(verdict.certificate, dag)
        for c in dag.coords:
            if dag.height_of[c] != 4:
                assert verdict.certificate.coverage[c] >= table.sizes[c] + 1

    def test_tie_is_not_applicable(self):
        verdict, size = certified_width(GroundParams(2, 2, 1))
        assert verdict.status == NOT_APPLICABLE
        assert verdict.certificate is None
        assert verdict.diagnostics == "largest layer is tied between heights [0, 2]"
        assert size == 2

    def test_single_point_ball(self):
        verdict, size = certified_width(GroundParams(3, 7, 0))
        assert verdict.status == CERTIFIED
        assert size == 1
        assert verdict.certificate.profiles == ((((0, 0),), 1),)

    def test_truncated_regime_rejected(self):
        with pytest.raises(ValueError, match="untruncated"):
            certified_width(GroundParams(2, 5, 4))


def zigzag_digest(n: int) -> tuple[int, str]:
    """Hash every zigzag verdict with p, q <= n and 0 <= r <= min(p, q)."""
    h = hashlib.sha256()
    count = 0
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            for r in range(min(p, q) + 1):
                verdict = zigzag_certificate(GroundParams(p, q, r))
                cert = verdict.certificate
                h.update(
                    repr(
                        (
                            (p, q, r),
                            verdict.status,
                            verdict.diagnostics,
                            None if cert is None else cert.profiles,
                            None if cert is None else sorted(cert.coverage.items()),
                            None if cert is None else cert.target_height,
                        )
                    ).encode()
                )
                count += 1
    return count, h.hexdigest()


class TestZigzagCertificate:
    def test_verdicts_are_pinned(self):
        # status, diagnostics, profiles, coverage (its zeros included) and
        # target height of every routing up to p, q = 12
        assert zigzag_digest(12) == (
            794,
            "42670892323ed016b5ac1de14797f8593bd8e18b782987e96a8d61368889e00d",
        )

    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("pick", [0, "middle", -1])
    @pytest.mark.parametrize("params", [GroundParams(5, 8, 4), GroundParams(4, 5, 3)])
    def test_unbalanced_routing_raises(self, monkeypatch, params, pick, delta):
        # one routed edge off by a unit breaks conservation at an inner
        # coordinate, which the peel refuses before any coverage is read
        real = certificates._zigzag_flow

        def planted(params, dag, start):
            flows, note = real(params, dag, start)
            if flows is not None:
                edges = sorted(flows)
                flows[edges[len(edges) // 2 if pick == "middle" else pick]] += delta
            return flows, note

        monkeypatch.setattr(certificates, "_zigzag_flow", planted)
        with pytest.raises(InternalConsistencyError, match="stuck|left over|carries"):
            zigzag_certificate(params)

    @pytest.mark.parametrize("params", [GroundParams(5, 8, 4), GroundParams(4, 5, 3)])
    def test_routing_off_the_diagram_raises(self, monkeypatch, params):
        # no ball has the diagonal step (1, 1) -> (0, 2); a unit moved onto
        # it from a two-step detour is dropped with the non-edges, which
        # leaves (1, 1) and (0, 2) unbalanced
        real = certificates._zigzag_flow

        def planted(params, dag, start):
            flows, note = real(params, dag, start)
            if flows is not None:
                mid = next(
                    m
                    for m in [(0, 1), (1, 2)]
                    if flows.get(((1, 1), m)) and flows.get((m, (0, 2)))
                )
                flows[((1, 1), mid)] -= 1
                flows[(mid, (0, 2))] -= 1
                flows[((1, 1), (0, 2))] = 1
            return flows, note

        monkeypatch.setattr(certificates, "_zigzag_flow", planted)
        with pytest.raises(InternalConsistencyError, match="stuck|left over|carries"):
            zigzag_certificate(params)

    def test_reference_ball(self):
        verdict = zigzag_certificate(GroundParams(5, 8, 4))
        assert verdict.status == CERTIFIED
        assert verdict.diagnostics == (
            "start (2, 2) routes 321 chains; rejected start (1, 3): "
            "margin at (1, 3) fails with slack -40"
        )
        assert verdict.certificate.coverage == {
            (4, 0): 321, (3, 0): 321, (2, 0): 241, (1, 0): 41, (0, 0): 1,
            (3, 1): 80, (2, 1): 280, (1, 1): 40,
            (2, 2): 280, (1, 2): 280, (0, 1): 41,
            (1, 3): 280, (0, 2): 41,
            (0, 3): 321, (0, 4): 321,
        }
        dag = quotient_dag(GroundParams(5, 8, 4), Ball())
        assert certificate_check(verdict.certificate, dag)

    def test_tiny_ball(self):
        verdict = zigzag_certificate(TINY)
        assert verdict.status == CERTIFIED_STRICT
        assert verdict.certificate.coverage == {(1, 0): 2, (0, 0): 2, (0, 1): 2}

    def test_tie_and_regime_guards(self):
        assert zigzag_certificate(GroundParams(2, 2, 1)).status == NOT_APPLICABLE
        with pytest.raises(ValueError, match="untruncated"):
            zigzag_certificate(GroundParams(2, 5, 4))

    def test_single_point_ball(self):
        verdict = zigzag_certificate(GroundParams(4, 6, 0))
        assert verdict.status == CERTIFIED
        assert verdict.diagnostics == "single-point ball"

    def test_bottom_row_target_fails_honestly(self):
        # the construction cannot reach a largest layer sitting at the very
        # bottom of the order; the flow search still certifies it, so the
        # refusal is about this routing, not about the width
        verdict = zigzag_certificate(GroundParams(6, 2, 2))
        assert verdict.status == INFEASIBLE
        assert verdict.certificate is None
        assert verdict.diagnostics == (
            "start (2, 0): sublayer (0, 0) gets 0 chains for 1 elements"
        )
        flow_verdict, size = certified_width(GroundParams(6, 2, 2))
        assert flow_verdict.status == CERTIFIED
        assert size == 15

    @pytest.mark.parametrize("p,q,r", [(2, 3, 2), (3, 3, 2), (4, 5, 3), (3, 6, 3)])
    def test_certified_routings_pass_the_checker(self, p, q, r):
        params = GroundParams(p, q, r)
        verdict = zigzag_certificate(params)
        assert verdict.status in (CERTIFIED, CERTIFIED_STRICT)
        dag = quotient_dag(params, Ball())
        assert certificate_check(verdict.certificate, dag)


@pytest.mark.parametrize(
    "producer,run",
    [
        ("search", lambda: certified_width(GroundParams(5, 8, 4))),
        ("zigzag", lambda: zigzag_certificate(GroundParams(5, 8, 4))),
        ("single-point ball", lambda: zigzag_certificate(GroundParams(4, 6, 0))),
    ],
)
def test_failed_check_raises_naming_its_producer(monkeypatch, producer, run):
    monkeypatch.setattr(certificates, "certificate_check", lambda certificate, dag: False)
    with pytest.raises(
        InternalConsistencyError, match=f"^{producer} produced an invalid certificate$"
    ):
        run()


class TestGkPartition:
    @pytest.mark.parametrize("n", range(0, 11))
    def test_disjoint_symmetric_chain_cover(self, n):
        chains = gk_partition(n)
        assert len(chains) == pascal_binomial(n, n // 2)
        seen = sorted(mask for chain in chains for mask in chain)
        assert seen == list(range(1 << n))
        for chain in chains:
            for a, b in zip(chain, chain[1:]):
                assert a & ~b == 0 and b.bit_count() == a.bit_count() + 1
            lo = chain[0].bit_count()
            hi = chain[-1].bit_count()
            assert lo + hi == n  # symmetric around the middle rank

    def test_budget(self):
        with pytest.raises(BudgetExceededError) as err:
            gk_partition(23)
        assert err.value.required == 2**23
        assert err.value.budget == 2**22
        assert "subsets" in str(err.value)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            gk_partition(-1)


class TestTheoremBound:
    def test_reference_values(self):
        assert theorem_bound(GroundParams(5, 8, 4)) == 321
        assert theorem_bound(GroundParams(5, 8, 1)) == 8
        assert theorem_bound(GroundParams(3, 7, 0)) == 1

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 3), (4, 5), (5, 8)])
    def test_alternating_sphere_sum(self, p, q):
        for r in range(min(p, q) + 1):
            params = GroundParams(p, q, r)
            expected = 0
            m = r
            while m >= 0:
                expected += max(
                    sublayer_size(params, (i, m - i)) for i in range(m + 1)
                )
                m -= 2
            assert theorem_bound(params) == expected

    def test_bounds_the_width_on_small_balls(self):
        for p, q, r in [(2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 3, 2), (3, 3, 3)]:
            params = GroundParams(p, q, r)
            assert width(build_ball(params))[0] <= theorem_bound(params)

    def test_truncated_regime_rejected(self):
        with pytest.raises(ValueError):
            theorem_bound(GroundParams(2, 5, 3))
