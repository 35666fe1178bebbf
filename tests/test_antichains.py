import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ballwidth.antichains as antichains_module
from ballwidth.antichains import (
    AntichainWitness,
    check_klym,
    flow_width,
    is_unique_max_antichain,
    max_weight_antichain,
    width,
)
from ballwidth.combinatorics import (
    Ball,
    GroundParams,
    build_table,
    heaviest_sublayer_chain,
    sublayer_chain_cover,
)
from ballwidth.errors import BudgetExceededError, InternalConsistencyError
from ballwidth.flows import FlowNetwork
from ballwidth.poset import (
    PosetInstance,
    QuotientDag,
    build_ball,
    build_sphere,
    family_subsets,
    load_custom_poset,
    quotient_dag,
)
from ballwidth.sweep import VERIFIED_UNIQUE, sweep_tuples, verify_instance

from helpers import (
    brute_all_max_antichains,
    brute_covers,
    brute_klym_max,
    brute_max_weight,
    brute_width,
    closure_from_pairs,
    comparability_masks,
    counting,
    enumerate_family_subsets,
    network_cuts,
    strict_less_masks,
    sublayer_grid,
    sublayers,
)


def small_corpus():
    """Instances small enough for full 2^n enumeration."""
    for p, q, r in [(1, 2, 1), (2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2), (3, 3, 1)]:
        params = GroundParams(p, q, r)
        yield f"ball({p},{q},{r})", build_ball(params), params
    for p, q, m in [(2, 2, 1), (2, 3, 2), (3, 3, 2)]:
        params = GroundParams(p, q, m)
        yield f"sphere({p},{q},{m})", build_sphere(params, m), params
    # the spheres 1 and 2 of p = q = 2 together, loaded from their covers
    band = sorted(
        enumerate_family_subsets(2, 2, lambda i, j: 1 <= i + j <= 2), key=sorted
    )
    covers = brute_covers(strict_less_masks(band))
    relations = [[x, y] for x, ys in enumerate(covers) for y in ys]
    yield "band(2,2,1..2)", load_custom_poset(
        {"elements": len(band), "relations": relations}
    ), None
    yield "chain+point", load_custom_poset({"elements": 3, "relations": [[0, 1]]}), None
    yield "two chains", load_custom_poset(
        {"elements": 5, "relations": [[0, 1], [1, 2], [3, 4]]}
    ), None


CORPUS = list(small_corpus())
IDS = [name for name, _, _ in CORPUS]


def independent_order(instance, params):
    """Strict-less bitmasks rebuilt without the instance's own caches."""
    if params is not None:
        return strict_less_masks(family_subsets(instance, range(len(instance))))
    pairs = [(x, y) for x, ups in enumerate(instance.covers) for y in ups]
    return closure_from_pairs(len(instance), pairs)


@pytest.mark.parametrize("name,instance,params", CORPUS, ids=IDS)
class TestAgainstBruteForce:
    def test_width_and_witness(self, name, instance, params):
        lt = independent_order(instance, params)
        expect = brute_width(comparability_masks(lt))
        value, witness = width(instance)
        assert value == expect
        assert len(witness) == value
        assert instance.is_antichain(list(witness.members))

    def test_flow_width_agrees(self, name, instance, params):
        value, witness = flow_width(instance)
        assert value == width(instance)[0]
        assert len(witness) == value
        assert instance.is_antichain(list(witness.members))

    def test_uniqueness_both_routes(self, name, instance, params):
        lt = independent_order(instance, params)
        maxes = brute_all_max_antichains(comparability_masks(lt))
        value, witness = width(instance)
        expect = len(maxes) == 1
        assert is_unique_max_antichain(instance, witness) == expect
        if name.startswith("ball"):
            # on balls the sublayer grid's tie count is the second route
            grid_value, grid_count = heaviest_sublayer_chain(build_table(params))
            assert grid_value == value
            assert (grid_count == 1) == expect
        if expect:
            assert set(witness.members) == set(maxes[0])

    def test_klym_verdict(self, name, instance, params):
        lt = independent_order(instance, params)
        expect = brute_klym_max(comparability_masks(lt), instance.height_of)
        verdict = check_klym(instance)
        assert verdict.max_lym_sum == expect
        assert verdict.holds == (expect <= 1)
        members = list(verdict.witness.members)
        assert instance.is_antichain(members)
        layer = {}
        for h in instance.height_of:
            layer[h] = layer.get(h, 0) + 1
        assert sum(
            Fraction(1, layer[instance.height_of[x]]) for x in members
        ) == expect


class TestMaxWeightAntichain:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_on_corpus(self, data):
        name, instance, params = data.draw(st.sampled_from(CORPUS))
        weights = data.draw(
            st.lists(
                st.integers(0, 9), min_size=len(instance), max_size=len(instance)
            )
        )
        lt = independent_order(instance, params)
        expect = brute_max_weight(comparability_masks(lt), weights)
        value, witness = max_weight_antichain(instance, weights)
        assert value == expect
        assert instance.is_antichain(list(witness.members))
        assert sum(weights[x] for x in witness.members) == value

    def test_validation(self):
        instance = build_ball(GroundParams(1, 2, 1))
        with pytest.raises(ValueError):
            max_weight_antichain(instance, [1, 1])
        with pytest.raises(ValueError):
            max_weight_antichain(instance, [1, -1, 1, 1])
        # inexact and boolean weights are refused before any flow runs
        ball = build_ball(GroundParams(2, 3, 2))
        for weight in (Fraction(1, 3), 1 / 3, 0.5, True):
            with pytest.raises(ValueError, match="integers"):
                max_weight_antichain(ball, [weight] * len(ball))

    def test_empty_poset(self):
        empty = load_custom_poset({"elements": 0})
        value, witness = max_weight_antichain(empty, [])
        assert value == 0 and witness.members == ()

    def test_unit_weights_on_a_ball_build_no_element_network(self, monkeypatch):
        params = GroundParams(3, 3, 2)
        instance = build_ball(params)
        n = len(instance)
        built = []
        real_init = FlowNetwork.__init__

        def init(self, size):
            built.append(size)
            real_init(self, size)

        monkeypatch.setattr(FlowNetwork, "__init__", init)
        got = max_weight_antichain(instance, [1] * n)
        assert 2 * n + 2 not in built
        assert got == flow_width(build_ball(params))


class TestRandomPosets:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_width_uniqueness_and_weights(self, data):
        n = data.draw(st.integers(1, 7))
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda t: t[0] < t[1]
                ),
                max_size=10,
            )
        )
        perm = data.draw(st.permutations(range(n)))
        pairs = [(perm[u], perm[v]) for u, v in pairs]
        instance = load_custom_poset(
            {"elements": n, "relations": [list(t) for t in pairs]}
        )
        lt = closure_from_pairs(n, pairs)
        cmp_mask = comparability_masks(lt)

        value, witness = width(instance)
        assert value == brute_width(cmp_mask)
        assert flow_width(instance)[0] == value

        maxes = brute_all_max_antichains(cmp_mask)
        assert is_unique_max_antichain(instance, witness) == (len(maxes) == 1)

        weights = data.draw(
            st.lists(st.integers(0, 5), min_size=n, max_size=n)
        )
        assert max_weight_antichain(instance, weights)[0] == brute_max_weight(
            cmp_mask, weights
        )


@pytest.mark.parametrize(
    "p,q,r,size,digest",
    [
        (9, 9, 5, 3357, "5b5df26bf46cc9e8f5d665fb76ec8fb8aa10675f1822ba2fb1b0a921061eadcf"),
        (12, 12, 4, 4501, "6c7ef000ff751f14eef644fff5c0a06efded7dc9b7aee8065b7db30dafb4089b"),
    ],
)
def test_width_witness_is_pinned(p, q, r, size, digest):
    # sha256 of json.dumps(list(members)): the König set of the pinned
    # matching, so a change to either the search or the walk moves it
    w, witness = width(build_ball(GroundParams(p, q, r)))
    assert w == size
    assert hashlib.sha256(json.dumps(list(witness.members)).encode()).hexdigest() == digest


class TestGuards:
    def test_matching_budget(self):
        instance = build_ball(GroundParams(2, 3, 2))
        with pytest.raises(BudgetExceededError) as err:
            width(instance, matching_budget=3)
        assert err.value.budget == 3
        assert err.value.required == len(instance)

    def test_one_matching_and_one_closure_per_tuple(self, monkeypatch):
        # the untied (7, 6, 3) asks width once, in the sweep's cross-check:
        # uniqueness reads the flow's cuts and builds no closure
        calls = {"hopcroft_karp": 0, "up_masks": 0}
        monkeypatch.setattr(
            antichains_module,
            "hopcroft_karp",
            counting(calls, "hopcroft_karp", antichains_module.hopcroft_karp),
        )
        monkeypatch.setattr(
            PosetInstance, "up_masks", counting(calls, "up_masks", PosetInstance.up_masks)
        )
        record = verify_instance(7, 6, 3)
        assert record.status == VERIFIED_UNIQUE
        assert calls == {"hopcroft_karp": 1, "up_masks": 1}

    def test_uniqueness_past_the_matching_budget_builds_no_closure(self, monkeypatch):
        # (7, 9, 7) has 26,333 elements, above DEFAULT_MATCHING_BUDGET: the
        # flow's two cuts decide uniqueness with no closure and no matching
        params = GroundParams(7, 9, 7)
        instance = build_ball(params)
        assert len(instance) == 26333
        calls = {"hopcroft_karp": 0, "up_masks": 0}
        monkeypatch.setattr(
            antichains_module,
            "hopcroft_karp",
            counting(calls, "hopcroft_karp", antichains_module.hopcroft_karp),
        )
        monkeypatch.setattr(
            PosetInstance, "up_masks", counting(calls, "up_masks", PosetInstance.up_masks)
        )
        [(top, _)] = Counter(instance.height_of).most_common(1)
        layer = [x for x, h in enumerate(instance.height_of) if h == top]
        grid_value, grid_count = heaviest_sublayer_chain(build_table(params))
        assert len(layer) == grid_value == 6435
        assert is_unique_max_antichain(instance, layer) is True
        assert grid_count == 1
        assert calls == {"hopcroft_karp": 0, "up_masks": 0}

    def test_unique_candidate_validation(self):
        instance = build_ball(GroundParams(1, 2, 1))
        with pytest.raises(ValueError):
            is_unique_max_antichain(instance, [0, 1])  # comparable pair
        with pytest.raises(ValueError):
            is_unique_max_antichain(instance, [2])  # not maximum

    @pytest.mark.parametrize("bad", [16, -1, 1.5, True, "0"])
    def test_unique_candidate_ids_are_checked_first(self, monkeypatch, bad):
        # B_2[2,3] has 16 elements: an id must be an int in 0..15, and it is
        # refused before the antichain check or either engine runs
        instance = build_ball(GroundParams(2, 3, 2))

        def planted(*args, **kwargs):
            raise AssertionError("work started on a bad candidate")

        monkeypatch.setattr(PosetInstance, "is_antichain", planted)
        for name in ("width", "_unit_extremes"):
            monkeypatch.setattr(antichains_module, name, planted)
        for candidate in ([bad], AntichainWitness((0, bad))):
            with pytest.raises(ValueError, match="element ids"):
                is_unique_max_antichain(instance, candidate)

    def test_klym_rejects_empty(self):
        with pytest.raises(ValueError):
            check_klym(load_custom_poset({"elements": 0}))

    def test_klym_checks_the_s_side_cut(self, monkeypatch):
        # levels {0, 2} and {1}: klym weights 1, 2, 1; the chain 0 < 1 weighs
        # 3 like the true maximum {1, 2}, but it is not an antichain
        instance = load_custom_poset({"elements": 3, "relations": [[0, 1]]})
        real = antichains_module._residual_sides

        def planted(*args):
            cuts = real(*args)
            return cuts and (cuts[0], [0, 1])

        monkeypatch.setattr(antichains_module, "_residual_sides", planted)
        with pytest.raises(InternalConsistencyError):
            check_klym(instance)

    def test_klym_reference_custom_poset(self):
        verdict = check_klym(load_custom_poset({"elements": 3, "relations": [[0, 1]]}))
        assert not verdict.holds
        assert verdict.max_lym_sum == Fraction(3, 2)
        assert set(verdict.witness.members) == {1, 2}


def klym_both_routes(instance):
    """(lifted verdict, forced-fallback verdict, grid lift used?)"""
    real = antichains_module._grid_start
    used = []

    def spy(*args):
        start = real(*args)
        used.append(start is not None)
        return start

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(antichains_module, "_grid_start", spy)
        warm = check_klym(instance)
        mp.setattr(antichains_module, "_grid_start", lambda *args: None)
        cold = check_klym(instance)
    return warm, cold, used == [True]


def shares_a_cell(instance):
    """Does some sublayer hold two elements?  Else `_grid_start` skips the lift."""
    return len(set(sublayers(instance))) < len(instance)


def domain_spheres():
    seen = set()
    for p, q, r in sweep_tuples(11, 11, n_max=12):
        for m in range(r + 1):
            if (p, q, m) not in seen:
                seen.add((p, q, m))
                yield p, q, m


# the failing custom posets, two non-graded ones and a single layer
FALLBACK_POSETS = {
    "chain+point": ({"elements": 3, "relations": [[0, 1]]}, Fraction(3, 2)),
    "two chains+point": (
        {"elements": 5, "relations": [[0, 1], [2, 3]]},
        Fraction(4, 3),
    ),
    "maximal below top": (
        {"elements": 4, "relations": [[0, 1], [1, 2], [0, 3]]},
        Fraction(3, 2),
    ),
    "cover skips a level": (
        {"elements": 4, "relations": [[0, 1], [1, 2], [3, 2]]},
        Fraction(3, 2),
    ),
    "single layer": ({"elements": 4}, Fraction(1)),
}


class TestLevelPairStart:
    """check_klym's start: the grid lift, or first-cover chains without one."""

    def test_domain_spheres_match_the_fallback(self):
        spheres = list(domain_spheres())
        assert len(spheres) == 161 + 66  # m = 1..r, plus m = 0 once per (p, q)
        for p, q, m in spheres:
            instance = build_sphere(GroundParams(p, q, m), m)
            warm, cold, used = klym_both_routes(instance)
            assert warm == cold, (p, q, m)
            # the all-singleton grids (m = 0, and (1, 1, m)) are the sphere itself
            assert used == shares_a_cell(instance), (p, q, m)

    @pytest.mark.parametrize("name", list(FALLBACK_POSETS))
    def test_custom_posets_take_the_fallback(self, name):
        document, expect = FALLBACK_POSETS[name]
        warm, cold, used = klym_both_routes(load_custom_poset(document))
        # a single layer is one cell with no covers, trivially biregular
        assert used == (name == "single layer")
        assert warm == cold
        assert warm.max_lym_sum == expect
        assert warm.holds == (expect <= 1)

    def test_cancel_phase_makes_no_augmentation(self, monkeypatch):
        instance = build_sphere(GroundParams(6, 6, 3), 3)
        built, calls = [], []
        real_init, real_max_flow = FlowNetwork.__init__, FlowNetwork.max_flow

        def init(self, n):
            built.append(n)
            real_init(self, n)

        def max_flow(self, s, t):
            calls.append(s)
            return real_max_flow(self, s, t)

        monkeypatch.setattr(FlowNetwork, "__init__", init)
        monkeypatch.setattr(FlowNetwork, "max_flow", max_flow)
        assert check_klym(instance).holds
        # the even split is minimum: both cuts are read from it, no network
        assert calls == []
        assert built == []

    def test_uneven_up_degrees_take_the_fallback(self):
        # 0 < 2, 0 < 3, 1 < 3: normalized matching holds, but 0 has two
        # covers and 1 has one, so the height layers are not biregular
        instance = load_custom_poset(
            {"elements": 4, "relations": [[0, 2], [0, 3], [1, 3]]}
        )
        assert antichains_module._grid_start(instance, [1] * 4) is None
        warm, cold, used = klym_both_routes(instance)
        assert not used
        assert warm == cold
        assert warm.holds and warm.max_lym_sum == 1

    @pytest.mark.parametrize(
        "p,q,m,digest",
        [
            (9, 9, 5, "f9555cd243abfe913267344ce40d94b9350a6ba08298e4ff4c893070f99b397e"),
            (12, 12, 4, "59f84889e940fe8e3e7add018d3c10a5851d10d9cd8f54ef6b5442456b8ad194"),
        ],
    )
    def test_large_sphere_witnesses_are_pinned(self, p, q, m, digest):
        verdict = check_klym(build_sphere(GroundParams(p, q, m), m))
        assert verdict.holds
        assert verdict.max_lym_sum == 1
        members = json.dumps(list(verdict.witness.members)).encode()
        assert hashlib.sha256(members).hexdigest() == digest

    def test_broken_start_raises(self):
        instance = build_sphere(GroundParams(3, 3, 2), 2)
        captured = []
        real = antichains_module._grid_start

        def spy(instance, weights):
            lift = real(instance, weights)
            captured.append((weights, lift))
            return lift

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(antichains_module, "_grid_start", spy)
            check_klym(instance)
        klym_weights, (scale, (through, cover_flow)) = captured[0]
        weights = [w * scale for w in klym_weights]
        x = next(x for x, ys in enumerate(instance.covers) if ys)
        broken = [list(flows) for flows in cover_flow]
        broken[x][0] += 1
        with pytest.raises(InternalConsistencyError):
            antichains_module._min_flow(instance, weights, (through, broken))
        short = list(through)
        short[x] -= 1  # below its weight, and no longer conserved
        with pytest.raises(InternalConsistencyError):
            antichains_module._min_flow(instance, weights, (short, cover_flow))

    def test_chain_start_off_by_one_raises(self):
        instance = build_ball(GroundParams(2, 3, 2))
        weights = [1] * len(instance)
        lowers = instance.lower_covers()
        through, cover_flow = antichains_module._chain_start(instance, weights, lowers)
        y = next(y for y, xs in enumerate(lowers) if xs)
        x = lowers[y][0]
        k = instance.covers[x].index(y)
        cover_flow[x][k] -= 1
        with pytest.raises(InternalConsistencyError):
            antichains_module._min_flow(instance, weights, (through, cover_flow))


def network_route(fn, instance):
    """`fn(instance)` from the chain start, cancelled on a built network.

    Only the read of the start itself is skipped, so every min-flow builds
    its network, and the cancelled flow is read and checked as usual.
    """
    real_start, real_read = antichains_module._chain_start, antichains_module._residual_sides
    starts = []

    def chain_start(*args):
        start = real_start(*args)
        starts.append(start[0])
        return start

    def read(instance, weights, through, cover_flow, lowers):
        if any(through is start for start in starts):
            return None
        return real_read(instance, weights, through, cover_flow, lowers)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(antichains_module, "_grid_start", lambda *args: None)
        mp.setattr(antichains_module, "_chain_start", chain_start)
        mp.setattr(antichains_module, "_residual_sides", read)
        return fn(instance)


def small_families():
    """Every ball and sphere with p + q <= 9, truncated radii included."""
    for p in range(1, 10):
        for q in range(10 - p):
            for r in range(p + q + 1):
                params = GroundParams(p, q, r)
                yield (p, q, r), build_ball(params)
                yield (p, q, r), build_sphere(params, r)


class TestGridStart:
    def test_matches_the_network_route(self):
        extremes = antichains_module._unit_extremes
        count = 0
        for key, instance in small_families():
            cuts = extremes(instance)
            instance._unit_cuts = None
            assert cuts == network_route(extremes, instance), key
            assert check_klym(instance) == network_route(check_klym, instance), key
            count += 1
        assert count == 2 * sum(p + q + 1 for p in range(1, 10) for q in range(10 - p))

    @pytest.mark.parametrize(
        "p,q,r,from_t,from_s",
        [
            (
                9, 9, 5,
                "5b5df26bf46cc9e8f5d665fb76ec8fb8aa10675f1822ba2fb1b0a921061eadcf",
                "1942c737de06e4d1c9db4bb1395f28d1799610ced6f86084218928733a712776",
            ),
            (
                12, 12, 4,
                "6c7ef000ff751f14eef644fff5c0a06efded7dc9b7aee8065b7db30dafb4089b",
                "6c7ef000ff751f14eef644fff5c0a06efded7dc9b7aee8065b7db30dafb4089b",
            ),
        ],
    )
    def test_large_ball_cuts_are_pinned(self, p, q, r, from_t, from_s):
        instance = build_ball(GroundParams(p, q, r))
        value, t_cut, s_cut = antichains_module._unit_extremes(instance)
        assert value == len(t_cut) == len(s_cut)
        for cut, digest in ((t_cut, from_t), (s_cut, from_s)):
            assert hashlib.sha256(json.dumps(cut).encode()).hexdigest() == digest

    def test_non_minimum_start_builds_the_network(self, monkeypatch):
        instance = build_ball(GroundParams(2, 3, 2))
        weights = [1] * len(instance)
        weights[1] = 2  # sublayer (1, 0) holds elements 1 and 2: no lift
        assert antichains_module._grid_start(instance, weights) is None
        lowers = instance.lower_covers()
        start = antichains_module._chain_start(instance, weights, lowers)
        assert antichains_module._residual_sides(instance, weights, *start, lowers) is None
        calls = []
        real_max_flow = FlowNetwork.max_flow

        def max_flow(self, s, t):
            calls.append(s)
            return real_max_flow(self, s, t)

        monkeypatch.setattr(FlowNetwork, "max_flow", max_flow)
        lt = independent_order(instance, GroundParams(2, 3, 2))
        value, witness = max_weight_antichain(instance, weights)
        assert calls == [2 * len(instance) + 1]
        assert value == brute_max_weight(comparability_masks(lt), weights)
        assert value == sum(weights[x] for x in witness.members)

    def test_cancelled_flow_not_minimum_raises(self, monkeypatch):
        # the chain start of test_non_minimum_start_builds_the_network, and
        # a cancel that pushes nothing: t still reaches s in its read
        instance = build_ball(GroundParams(2, 3, 2))
        weights = [1] * len(instance)
        weights[1] = 2
        monkeypatch.setattr(FlowNetwork, "max_flow", lambda self, s, t: 0)
        with pytest.raises(InternalConsistencyError, match="not minimum"):
            max_weight_antichain(instance, weights)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_direct_read_equals_the_network(self, data):
        n = data.draw(st.integers(1, 7))
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda t: t[0] < t[1]
                ),
                max_size=10,
            )
        )
        perm = data.draw(st.permutations(range(n)))
        pairs = [(perm[u], perm[v]) for u, v in pairs]
        weights = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        instance = load_custom_poset(
            {"elements": n, "relations": [list(t) for t in pairs]}
        )
        min_flow, read = antichains_module._min_flow, antichains_module._residual_sides
        value, cuts, final = network_route(lambda i: min_flow(i, weights), instance)
        # the cancelled flow is minimum: the direct read, the reference read
        # on the network holding it and _min_flow's cuts all agree
        lowers = instance.lower_covers()
        assert read(instance, weights, *final, lowers) == network_cuts(instance, weights, *final) == cuts
        start = antichains_module._chain_start(instance, weights, lowers)
        chain = read(instance, weights, *start, lowers)
        assert chain is None or chain == cuts
        assert min_flow(instance, weights)[:2] == (value, cuts)

    def test_lifted_share_off_by_one_raises(self):
        instance = build_ball(GroundParams(3, 3, 2))
        scale, (through, cover_flow) = antichains_module._grid_start(
            instance, [1] * len(instance)
        )
        x = next(x for x, flows in enumerate(cover_flow) if flows)
        broken = [list(flows) for flows in cover_flow]
        broken[x][0] += 1
        with pytest.raises(InternalConsistencyError):
            antichains_module._min_flow(instance, [scale] * len(instance), (through, broken))

    def test_value_off_the_scale_raises(self, monkeypatch):
        real = antichains_module._min_flow

        def off_by_one(*args):
            value, sides, flow = real(*args)
            return value + 1, sides, flow

        monkeypatch.setattr(antichains_module, "_min_flow", off_by_one)
        with pytest.raises(InternalConsistencyError):
            flow_width(build_ball(GroundParams(3, 3, 2)))

    def test_custom_poset_takes_the_lift_only_when_biregular(self, monkeypatch):
        # a sphere's height layers are its sublayers, so they are biregular;
        # a ball's height 2 mixes sublayers (0, 0) and (1, 1) with up-degrees
        # 3 and 1, so it is not
        built = [build_sphere(GroundParams(2, 3, 2), 2), build_ball(GroundParams(2, 3, 2))]
        seen = []
        real = antichains_module._min_flow

        def spy(instance, weights, start=None):
            seen.append(start is not None)
            return real(instance, weights, start)

        monkeypatch.setattr(antichains_module, "_min_flow", spy)
        for family, lifted in zip(built, (True, False)):
            relations = [[x, y] for x, ys in enumerate(family.covers) for y in ys]
            custom = load_custom_poset({"elements": len(family), "relations": relations})
            unit = [1] * len(custom)
            assert (antichains_module._grid_start(custom, unit) is not None) == lifted
            assert antichains_module._grid_start(family, unit) is not None
            seen.clear()
            got = flow_width(custom)
            # the lift's own grid flow runs first; the element flow comes last
            assert seen[-1] == lifted
            assert got == flow_width(family)
            assert check_klym(custom) == check_klym(family)

    def test_chain_start_is_minimum_on_a_chain(self):
        weights = [1, 5, 2, 7, 0, 3, 7, 4]
        n = len(weights)
        chain = load_custom_poset(
            {"elements": n, "relations": [[x, x + 1] for x in range(n - 1)]}
        )
        lowers = chain.lower_covers()
        start = antichains_module._chain_start(chain, weights, lowers)
        assert antichains_module._residual_sides(chain, weights, *start, lowers) is not None
        assert start[0][0] == max(weights)  # all of it leaves the bottom element
        assert antichains_module._min_flow(chain, weights)[0] == max(weights)

    def test_flow_route_builds_no_closure(self, monkeypatch):
        # only the matching engine reads the order closure
        calls = {"up_masks": 0}
        monkeypatch.setattr(
            PosetInstance, "up_masks", counting(calls, "up_masks", PosetInstance.up_masks)
        )
        sphere = build_sphere(GroundParams(9, 9, 5), 5)
        assert check_klym(sphere).holds
        ball = build_ball(GroundParams(4, 4, 3))
        flow_width(ball)
        assert calls["up_masks"] == 0
        width(ball)
        assert calls["up_masks"] == 1

    def test_sphere_as_custom_poset_builds_no_network(self, monkeypatch):
        sphere = build_sphere(GroundParams(9, 9, 5), 5)
        custom = PosetInstance(sphere.covers, sphere.height_of)
        assert antichains_module._grid_start(custom, [1] * len(custom)) is not None
        expect = check_klym(sphere)
        built = []
        real_init = FlowNetwork.__init__

        def init(self, n):
            built.append(n)
            real_init(self, n)

        monkeypatch.setattr(FlowNetwork, "__init__", init)
        assert check_klym(custom) == expect
        assert built == []

    def test_height_path_carries_nothing_on_skipping_covers(self, monkeypatch):
        # covers 0 -> 5 and 1 -> 4 skip height 1, yet each height holds two
        # elements with the same ordered rows of cover heights, so it lifts
        def poset():
            return PosetInstance([[2, 5], [3, 4], [4], [5], [], []], [0, 0, 1, 1, 2, 2])

        expect = [network_route(fn, poset()) for fn in (check_klym, flow_width)]
        lifts, built = [], []
        real_start, real_init = antichains_module._grid_start, FlowNetwork.__init__

        def spy(instance, weights):
            lift = real_start(instance, weights)
            lifts.append(lift)
            return lift

        def init(self, n):
            built.append(n)
            real_init(self, n)

        monkeypatch.setattr(antichains_module, "_grid_start", spy)
        monkeypatch.setattr(FlowNetwork, "__init__", init)
        instance = poset()
        assert [check_klym(instance), flow_width(instance)] == expect
        assert expect[0].holds and expect[1][0] == 2
        assert len(lifts) == 2 and None not in lifts
        for _, (_, cover_flow) in lifts:
            assert cover_flow[0][1] == cover_flow[1][1] == 0
            assert all(cover_flow[x][0] for x in range(4))
        assert built == []

    def test_bare_spheres_run_one_min_flow_and_no_network(self, monkeypatch):
        # every sphere with p + q <= 12, held as its covers and heights
        # alone, gets the built sphere's verdicts from its height path
        built, flows = [], []
        real_init = FlowNetwork.__init__
        real_heaviest, real_min_flow = antichains_module._heaviest, antichains_module._min_flow

        def init(self, n):
            built.append(n)
            real_init(self, n)

        def heaviest(*args):
            flows.append(0)
            return real_heaviest(*args)

        def min_flow(*args):
            flows[-1] += 1
            return real_min_flow(*args)

        monkeypatch.setattr(FlowNetwork, "__init__", init)
        monkeypatch.setattr(antichains_module, "_heaviest", heaviest)
        monkeypatch.setattr(antichains_module, "_min_flow", min_flow)
        count = 0
        for p in range(1, 13):
            for q in range(13 - p):
                for r in range(p + q + 1):
                    sphere = build_sphere(GroundParams(p, q, r), r)
                    bare = PosetInstance(sphere.covers, sphere.height_of)
                    for fn in (check_klym, flow_width):
                        assert fn(bare) == fn(sphere), (p, q, r)
                    count += 1
        assert count == sum(p + q + 1 for p in range(1, 13) for q in range(13 - p))
        assert built == []
        assert flows == [1] * 4 * count

    def test_ball_klym_takes_the_lift_and_matches_the_network(self):
        count = 0
        for p in range(1, 9):
            for q in range(9 - p):
                for r in range(p + q + 1):
                    instance = build_ball(GroundParams(p, q, r))
                    warm, _, used = klym_both_routes(instance)
                    assert used == shares_a_cell(instance), (p, q, r)
                    assert warm == network_route(check_klym, instance), (p, q, r)
                    count += 1
        assert count == sum(p + q + 1 for p in range(1, 9) for q in range(9 - p))


def grid_instance(dag):
    """A built family's cell grid as a poset, covers smallest head first."""
    shape = dag.shape
    covers = [[shape.heads[e] for e in out] for out in shape.leaving]
    return PosetInstance(covers, [dag.height_of[c] for c in dag.coords])


class TestRouteB:
    """The greedy chain cover of a ball's cell grid, read off its diagram."""

    def test_value_is_the_sublayer_chain_weight_and_minimum(self):
        # every ball with p + q <= 16 at every radius, truncated radii
        # included: the value is route A's weight, and the residual read on
        # the grid returns both cuts, which proves the flow minimum without
        # a network
        read = antichains_module._residual_sides
        count = 0
        for p in range(1, 17):
            for q in range(17 - p):
                for r in range(p + q + 1):
                    dag = quotient_dag(GroundParams(p, q, r), Ball())
                    through, flows = sublayer_chain_cover(dag, dag.table.sizes)
                    assert through[dag.source] == heaviest_sublayer_chain(dag.table)[0], (p, q, r)
                    grid = grid_instance(dag)
                    demand = [dag.table.sizes[c] for c in dag.coords]
                    cells = [through[c] for c in dag.coords]
                    cover_flow = [[flows[e] for e in out] for out in dag.shape.leaving]
                    lowers = grid.lower_covers()
                    assert read(grid, demand, cells, cover_flow, lowers), (p, q, r)
                    count += 1
        assert count == sum(p + q + 1 for p in range(1, 17) for q in range(17 - p))

    def test_non_unit_sublayer_weights_match_the_chain_start(self, monkeypatch):
        # seeded sublayer-constant weights, zeros included, on balls with
        # p + q <= 10: the lift is minimum, so no network cancels, and the
        # value and cut match the element min-flow from first-cover chains.
        # Balls whose sublayers all hold one element, such as (1, 1, 2),
        # skip the grid and start from those chains, which may cancel, so
        # they are left out
        rng = random.Random(26)
        calls = []
        real_max_flow = FlowNetwork.max_flow

        def max_flow(self, s, t):
            calls.append(s)
            return real_max_flow(self, s, t)

        monkeypatch.setattr(FlowNetwork, "max_flow", max_flow)
        count = 0
        while count < 300:
            p = rng.randint(1, 9)
            q = rng.randint(0, 10 - p)
            instance = build_ball(GroundParams(p, q, rng.randint(1, p + q)))
            if not shares_a_cell(instance):
                continue
            weights = []
            for c in instance.dag.coords:
                weights += [rng.randrange(6)] * instance.dag.table.sizes[c]
            calls.clear()
            value, witness = max_weight_antichain(instance, weights)
            assert calls == [], (p, q, weights)
            chain_value, (from_t, _), _ = antichains_module._min_flow(instance, weights)
            assert (value, list(witness.members)) == (chain_value, from_t), (p, q, weights)
            count += 1


def sublayer_antichain_max(p, q, r, cell_weight):
    """The heaviest antichain of B_r[p, q]'s sublayers, searched exhaustively.

    Sublayer (i, j) weighs cell_weight[(i, j)] * C(p, i) * C(q, j) and lies
    below (i', j') when i' <= i and j' >= j.
    """
    cells = [(i, j) for i in range(p + 1) for j in range(q + 1) if i + j <= r]

    def comparable(a, b):
        return (a[0] - b[0]) * (a[1] - b[1]) <= 0

    def grow(chosen, start, total):
        best = total
        for k in range(start, len(cells)):
            c = cells[k]
            if not any(comparable(c, d) for d in chosen):
                gain = cell_weight[c] * comb(p, c[0]) * comb(q, c[1])
                best = max(best, grow(chosen + [c], k + 1, total + gain))
        return best

    return grow([], 0, 0)


def diagram_grid(instance):
    """The cell grid the lift reads off a built family's diagram.

    (cell, sizes, heights, rows, unit cell weights) in `sublayer_grid`'s
    form: the sublayers in `dag.coords` order, each element's cell from the
    block layout, and each cell's row of upper-cover cells, `cover_count`
    entries per out-edge, smallest head first.
    """
    dag = instance.dag
    shape = dag.shape
    sizes = [dag.table.sizes[c] for c in dag.coords]
    cell = [c for c, size in enumerate(sizes) for _ in range(size)]
    rows = [
        [shape.heads[e] for e in out for _ in range(dag.cover_count(*shape.edges[e]))]
        for out in shape.leaving
    ]
    heights = [dag.height_of[c] for c in dag.coords]
    return cell, sizes, heights, rows, [1] * len(sizes)


class TestDiagramGrid:
    """Built balls and spheres read their cell grid from the diagram."""

    def test_diagram_grid_equals_the_element_discovery(self):
        # cells, sizes, heights, each cell's ordered row of upper-cover
        # cells and the cell weights, on every ball and sphere with
        # p + q <= 12, truncated radii included: this pins the closed forms
        # and the block layout the lift reads
        count = 0
        for p in range(1, 13):
            for q in range(13 - p):
                for r in range(p + q + 1):
                    params = GroundParams(p, q, r)
                    for instance in (build_ball(params), build_sphere(params, r)):
                        unit = [1] * len(instance)
                        lifted = antichains_module._grid_start(instance, unit) is not None
                        assert lifted == shares_a_cell(instance), (p, q, r)
                        if lifted:
                            assert diagram_grid(instance) == sublayer_grid(instance, unit), (p, q, r)
                        heights = [instance.dag.height_of[c] for c in sublayers(instance)]
                        assert heights == instance.height_of, (p, q, r)
                        count += 1
        assert count == 2 * sum(p + q + 1 for p in range(1, 13) for q in range(13 - p))

    @pytest.mark.parametrize("delta", [1, -1])
    def test_planted_cover_count_raises(self, monkeypatch, delta):
        # a restore count off on the ball, the diagonal (a sphere's only
        # step) off on the sphere: the element check refuses the lift
        real = QuotientDag.cover_count

        def planted(self, u, v):
            return real(self, u, v) + delta * (v[0] == u[0] - 1)

        ball = build_ball(GroundParams(3, 3, 2))
        sphere = build_sphere(GroundParams(4, 4, 2), 2)
        monkeypatch.setattr(QuotientDag, "cover_count", planted)
        with pytest.raises(InternalConsistencyError, match="starting flow"):
            flow_width(ball)
        with pytest.raises(InternalConsistencyError, match="starting flow"):
            check_klym(sphere)

    def test_sublayer_weights_match_the_network_and_brute_force(self, monkeypatch):
        real = antichains_module.sublayer_chain_cover
        read = []

        def spy(*args):
            read.append(True)
            return real(*args)

        monkeypatch.setattr(antichains_module, "sublayer_chain_cover", spy)
        rng = random.Random(7)
        count = 0
        for p in range(1, 8):
            for q in range(8 - p):
                for r in range(p + q + 1):
                    params = GroundParams(p, q, r)
                    instance = build_ball(params)
                    cell_weight = {
                        (i, j): rng.randrange(6)
                        for i in range(p + 1)
                        for j in range(q + 1)
                    }
                    weights = []
                    for members in family_subsets(instance, range(len(instance))):
                        i = p - sum(1 for k in members if k <= p)
                        weights.append(cell_weight[i, len(members) - (p - i)])
                    read.clear()
                    value, witness = max_weight_antichain(instance, weights)
                    assert read == [True] * shares_a_cell(instance), (p, q, r)
                    assert (value, witness) == network_route(
                        lambda i: max_weight_antichain(i, weights), instance
                    ), (p, q, r)
                    assert value == sublayer_antichain_max(p, q, r, cell_weight), (p, q, r)
                    if len(instance) <= 16:
                        lt = independent_order(instance, params)
                        assert value == brute_max_weight(comparability_masks(lt), weights)
                    assert instance.is_antichain(list(witness.members))
                    assert sum(weights[x] for x in witness.members) == value
                    count += 1
        assert count == sum(p + q + 1 for p in range(1, 8) for q in range(8 - p))
