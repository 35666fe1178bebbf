import hashlib
import random

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


def full_search_network(dag, target_height, strict):
    """The search network with every slot in every adjacency, built pair by pair."""
    coords = dag.coords
    index = {c: k for k, c in enumerate(coords)}
    kk = len(coords)
    exact = [dag.height_of[c] == target_height for c in coords]
    low = [
        dag.table.sizes[c] + (strict and not on_target)
        for c, on_target in zip(coords, exact)
    ]
    inf = sum(low) + 1
    net = FlowNetwork(2 * kk + 2)
    for k, on_target in enumerate(exact):
        net.add_pair(2 * k, 2 * k + 1, 0 if on_target else inf, 0)
    for u, v in dag.edges:
        net.add_pair(2 * index[u] + 1, 2 * index[v], inf, 0)
    net.add_pair(2 * index[dag.sink] + 1, 2 * index[dag.source], inf, 0)
    for k, demand in enumerate(low):
        net.add_pair(2 * kk, 2 * k + 1, demand, 0)
        net.add_pair(2 * k, 2 * kk + 1, demand, 0)
    return net


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
        for p in range(1, 7):
            for q in range(1, 7):
                for r in range(min(p, q) + 1):
                    dag = quotient_dag(GroundParams(p, q, r), Ball())
                    for height in range(dag.top_height + 1):
                        for strict in (False, True):
                            verdict = certificate_search(dag, height, strict)
                            statuses.add(verdict.status)
                            full = full_search_network(dag, height, strict)
                            ss = full.n - 2
                            full.max_flow(ss, ss + 1)
                            assert nets[-1].to == full.to
                            assert nets[-1].cap == full.cap
                            assert nets[-1].residual_reachable(
                                ss
                            ) == full.residual_reachable(ss)
        assert statuses == {CERTIFIED, CERTIFIED_STRICT, INFEASIBLE}


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


def certified_width_digest(n: int) -> tuple[int, str]:
    """Hash every verdict with p, q <= n and 1 <= r <= min(p, q), both modes."""
    h = hashlib.sha256()
    count = 0
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            for r in range(1, min(p, q) + 1):
                for strict in (False, True):
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


class TestCertifiedWidth:
    def test_verdicts_are_pinned(self):
        # the certificate follows the flow Dinic finds, so any change to the
        # augmenting order, the network's arc order or the peel moves this
        assert certified_width_digest(10) == (
            770,
            "7021cbf1859d22d587c6fcf1b9f76cb716aed0f93c0a580c87ecdcbbc5a49cf5",
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
