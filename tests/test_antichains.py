import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ballwidth.antichains as antichains_module
from ballwidth.antichains import (
    check_klym,
    flow_width,
    is_unique_max_antichain,
    max_weight_antichain,
    width,
)
from ballwidth.combinatorics import GroundParams, build_table, heaviest_sublayer_chain
from ballwidth.errors import BudgetExceededError, InternalConsistencyError
from ballwidth.flows import FlowNetwork
from ballwidth.poset import build_ball, build_sphere, load_custom_poset, subset_of
from ballwidth.sweep import sweep_tuples

from helpers import (
    brute_all_max_antichains,
    brute_covers,
    brute_klym_max,
    brute_max_weight,
    brute_width,
    closure_from_pairs,
    comparability_masks,
    enumerate_family_subsets,
    strict_less_masks,
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
        return strict_less_masks([subset_of(e, params) for e in instance.elements])
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

    def test_empty_poset(self):
        empty = load_custom_poset({"elements": 0})
        value, witness = max_weight_antichain(empty, [])
        assert value == 0 and witness.members == ()


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


class TestGuards:
    def test_matching_budget(self):
        instance = build_ball(GroundParams(2, 3, 2))
        with pytest.raises(BudgetExceededError) as err:
            width(instance, matching_budget=3)
        assert err.value.budget == 3
        assert err.value.required == len(instance)

    def test_unique_candidate_validation(self):
        instance = build_ball(GroundParams(1, 2, 1))
        with pytest.raises(ValueError):
            is_unique_max_antichain(instance, [0, 1])  # comparable pair
        with pytest.raises(ValueError):
            is_unique_max_antichain(instance, [2])  # not maximum

    def test_klym_rejects_empty(self):
        with pytest.raises(ValueError):
            check_klym(load_custom_poset({"elements": 0}))

    def test_klym_reference_custom_poset(self):
        verdict = check_klym(load_custom_poset({"elements": 3, "relations": [[0, 1]]}))
        assert not verdict.holds
        assert verdict.max_lym_sum == Fraction(3, 2)
        assert set(verdict.witness.members) == {1, 2}


def klym_both_routes(instance):
    """(even-split verdict, forced-fallback verdict, even-split start used?)"""
    real = antichains_module._level_pair_start
    used = []

    def spy(*args):
        start = real(*args)
        used.append(start is not None)
        return start

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(antichains_module, "_level_pair_start", spy)
        warm = check_klym(instance)
        mp.setattr(antichains_module, "_level_pair_start", lambda *args: None)
        cold = check_klym(instance)
    return warm, cold, used == [True]


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
    def test_domain_spheres_match_the_fallback(self):
        spheres = list(domain_spheres())
        assert len(spheres) == 161 + 66  # m = 1..r, plus m = 0 once per (p, q)
        for p, q, m in spheres:
            instance = build_sphere(GroundParams(p, q, m), m)
            warm, cold, used = klym_both_routes(instance)
            assert warm == cold, (p, q, m)
            # a single layer (m = 0) always takes the fallback
            assert used == (warm.holds and m > 0), (p, q, m)

    @pytest.mark.parametrize("name", list(FALLBACK_POSETS))
    def test_custom_posets_take_the_fallback(self, name):
        document, expect = FALLBACK_POSETS[name]
        warm, cold, used = klym_both_routes(load_custom_poset(document))
        assert not used
        assert warm == cold
        assert warm.max_lym_sum == expect
        assert warm.holds == (expect <= 1)

    def test_cancel_phase_makes_no_augmentation(self, monkeypatch):
        instance = build_sphere(GroundParams(6, 6, 3), 3)
        sink = 2 * len(instance) + 1
        real_max_flow, real_augment = FlowNetwork.max_flow, FlowNetwork._augment
        calls = []  # [source, augmentations, value] per max_flow call

        def augment(self, s, t, cursor):
            calls[-1][1] += 1
            return real_augment(self, s, t, cursor)

        def max_flow(self, s, t):
            calls.append([s, 0])
            calls[-1].append(real_max_flow(self, s, t))
            return calls[-1][2]

        monkeypatch.setattr(FlowNetwork, "_augment", augment)
        monkeypatch.setattr(FlowNetwork, "max_flow", max_flow)
        assert check_klym(instance).holds
        # the even split builds no network: the only flow is the cancel
        assert calls == [[sink, 0, 0]]

    def test_uneven_up_degrees_take_the_fallback(self):
        # 0 < 2, 0 < 3, 1 < 3: normalized matching holds, but 0 has two
        # covers and 1 has one, so no even split lands exactly
        instance = load_custom_poset(
            {"elements": 4, "relations": [[0, 2], [0, 3], [1, 3]]}
        )
        layers = [[0, 1], [2, 3]]
        assert antichains_module._level_pair_start(instance, layers, [1] * 4, 2) is None
        warm, cold, used = klym_both_routes(instance)
        assert not used
        assert warm == cold
        assert warm.holds and warm.max_lym_sum == 1

    @pytest.mark.parametrize(
        "instance,scale",
        [
            # layers {0, 1}, {2, 3, 4}, {5, 6}; each lower layer mixes degrees
            # 1 and 2, so the scale stays lcm(2, 3, 2)
            (
                load_custom_poset(
                    {
                        "elements": 7,
                        "relations": [[0, 2], [0, 3], [1, 4], [2, 5], [3, 5], [3, 6], [4, 6]],
                    }
                ),
                6,
            ),
            # S_2[3, 3]: layer sizes 3, 9, 3 with up-degrees 6 and 2, so the
            # scale is lcm(3 * 6, 9 * 2, 3), not lcm(3, 9, 3)
            (build_sphere(GroundParams(3, 3, 2), 2), 18),
        ],
        ids=["mixed up-degrees", "sphere"],
    )
    def test_scale_multiplies_only_uniform_up_degrees(self, instance, scale):
        scales = []
        real = antichains_module._level_pair_start

        def spy(instance, layers, weights, scale):
            scales.append(scale)
            return real(instance, layers, weights, scale)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(antichains_module, "_level_pair_start", spy)
            check_klym(instance)
        assert scales == [scale]

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
        real = antichains_module._level_pair_start

        def spy(instance, layers, weights, scale):
            start = real(instance, layers, weights, scale)
            captured.append((weights, start))
            return start

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(antichains_module, "_level_pair_start", spy)
            check_klym(instance)
        weights, (through, cover_flow) = captured[0]
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
        through, cover_flow = antichains_module._chain_start(instance, weights)
        y = next(y for y, xs in enumerate(instance.lower_covers()) if xs)
        x = instance.lower_covers()[y][0]
        k = instance.covers[x].index(y)
        cover_flow[x][k] -= 1
        with pytest.raises(InternalConsistencyError):
            antichains_module._min_flow(instance, weights, (through, cover_flow))
