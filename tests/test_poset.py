import hashlib
import itertools
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballwidth import poset
from ballwidth.combinatorics import (
    Ball,
    GroundParams,
    Sphere,
    SublayerTable,
    build_table,
)
from ballwidth.errors import BudgetExceededError, CustomPosetError, GradedQuotientError
from ballwidth.poset import (
    SHAPE_CACHE_SIZE,
    PosetInstance,
    build_ball,
    build_sphere,
    family_subsets,
    load_custom_poset,
    masks_with_popcount,
    quotient_dag,
)

from helpers import (
    brute_covers,
    brute_heights,
    closure_from_pairs,
    counting,
    enumerate_family_subsets,
    longest_path_shape,
    strict_less_masks,
    sublayers,
    subset_order_reference,
    top_first,
)

SMALL_BALLS = [(1, 2, 1), (2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 2), (3, 3, 1)]


def is_antichain_by_closure(lt, members):
    mask = sum(1 << x for x in set(members))
    return all(lt[x] & mask == 0 for x in members)


class TestElements:
    def test_subset_of_reference(self):
        # B_2[3,4] in its block layout: blocks by height, then (i, j); each
        # block its drop masks times its gain masks, ascending.  A dropped
        # center bit k removes k + 1, a gained far bit k adds p + k + 1
        ball = build_ball(GroundParams(3, 4, 2))
        subsets = [sorted(s) for s in family_subsets(ball, range(len(ball)))]
        assert subsets[:8] == [
            [3], [2], [1],  # (2, 0): drop 011, 101, 110
            [2, 3], [1, 3], [1, 2],  # (1, 0)
            [1, 2, 3],  # (0, 0)
            [2, 3, 4],  # (1, 1): drop 001, gain 0001
        ]
        digest = hashlib.sha256(json.dumps(subsets).encode()).hexdigest()
        assert (len(subsets), digest) == (
            29,
            "da44645fd28b68fbb358650468e00fe76213009bdb50d4e804040f097c12bc27",
        )


class TestMasksWithPopcount:
    @given(st.integers(0, 10), st.integers(0, 11))
    def test_matches_itertools(self, w, k):
        got = list(masks_with_popcount(w, k))
        want = sorted(
            sum(1 << b for b in combo) for combo in itertools.combinations(range(w), k)
        )
        assert got == want
        assert len(got) == (0 if k > w else len(list(itertools.combinations(range(w), k))))


class TestBuildBall:
    def test_tiny_ball_layout(self):
        inst = build_ball(GroundParams(1, 2, 1))
        assert inst.covers == [[1], [2, 3], [], []]
        assert inst.height_of == [0, 1, 2, 2]
        assert family_subsets(inst, range(len(inst))) == [
            frozenset(), frozenset({1}), frozenset({1, 2}), frozenset({1, 3}),
        ]

    @pytest.mark.parametrize("p,q,r", SMALL_BALLS)
    def test_elements_match_enumeration(self, p, q, r):
        params = GroundParams(p, q, r)
        inst = build_ball(params)
        want = enumerate_family_subsets(p, q, lambda i, j: i + j <= r)
        assert set(family_subsets(inst, range(len(inst)))) == want
        assert len(inst) == build_table(params).total

    @pytest.mark.parametrize(
        "p,q,r,sphere",
        [
            pytest.param(p, q, r, sphere, id=f"{'sphere-' * sphere}{p}-{q}-{r}")
            for sphere in (False, True)
            for p in range(1, 11)
            for q in range(11 - p)
            for r in range(p + q + 1)
        ],
    )
    def test_heights_and_covers_match_brute_force(self, p, q, r, sphere):
        # every ball and top sphere with p + q <= 10 at every radius: spheres
        # step diagonally, r > min(p, q) truncates, q = 0 has no far side.
        # Each cover list is made at its final length, as list() makes it
        params = GroundParams(p, q, r)
        inst = build_sphere(params, r) if sphere else build_ball(params)
        subsets = family_subsets(inst, range(len(inst)))
        heights, covers = subset_order_reference(subsets)
        assert inst.height_of == heights
        assert inst.covers == covers
        assert all(sys.getsizeof(c) == sys.getsizeof(list(c)) for c in inst.covers)
        if len(inst) <= 64:  # the pairwise reference agrees where it is quick
            lt = strict_less_masks(subsets)
            assert (heights, covers) == (brute_heights(lt), brute_covers(lt))

    def test_only_the_last_pq_tables_are_held(self):
        # a sweep varies r innermost: one (p, q)'s step tables serve its
        # builds, and the next (p, q) drops them
        tables = poset._step_tables
        tables.cache_clear()
        build_ball(GroundParams(3, 4, 2))
        held = tables(3, 4)
        build_sphere(GroundParams(3, 4, 3), 3)
        assert tables(3, 4) is held
        build_ball(GroundParams(5, 2, 2))
        assert tables.cache_info().currsize == 1
        hits = tables.cache_info().hits
        assert tables(5, 2) is not held
        assert tables.cache_info().hits == hits + 1

    def test_layout_is_pinned(self):
        # elements as [removal, addition] masks, covers, heights and
        # sublayers of every ball and sphere with p + q <= 10 at every
        # radius: the flow route's grid, its chain start and the pinned
        # cuts all read this layout
        digest = hashlib.sha256()
        families = 0
        for p in range(1, 11):
            for q in range(11 - p):
                for r in range(p + q + 1):
                    params = GroundParams(p, q, r)
                    for inst in (build_ball(params), build_sphere(params, r)):
                        masks = [
                            [
                                sum(1 << k for k in range(p) if k + 1 not in s),
                                sum(1 << k for k in range(q) if p + k + 1 in s),
                            ]
                            for s in family_subsets(inst, range(len(inst)))
                        ]
                        layout = [masks, inst.covers, inst.height_of, sublayers(inst)]
                        digest.update(json.dumps(layout).encode())
                        families += 1
        assert (families, digest.hexdigest()) == (
            880,
            "35d3a1b2f3b8a1b01d50c6058245a80c81f106742db18522c177212485379953",
        )

    def test_heights_closed_form_in_regime(self):
        params = GroundParams(3, 3, 2)
        inst = build_ball(params)
        for s, h in zip(family_subsets(inst, range(len(inst))), inst.height_of):
            kept = sum(1 for k in s if k <= params.p)
            i, j = params.p - kept, len(s) - kept
            assert h == params.r - i + j

    def test_budget(self):
        with pytest.raises(BudgetExceededError) as err:
            build_ball(GroundParams(5, 8, 4), element_budget=100)
        assert err.value.required == 1093
        assert err.value.budget == 100
        assert "1093" in str(err.value) and "100" in str(err.value)

    def test_deterministic_rebuild(self):
        a = build_ball(GroundParams(3, 4, 2))
        b = build_ball(GroundParams(3, 4, 2))
        assert family_subsets(a, range(len(a))) == family_subsets(b, range(len(b)))
        assert a.covers == b.covers and a.height_of == b.height_of

    def test_decodes_the_given_ids_in_their_order(self):
        ball = build_ball(GroundParams(3, 4, 2))
        every = family_subsets(ball, range(len(ball)))
        ids = [len(ball) - 1, 0, 7, 7, 3]
        assert family_subsets(ball, ids) == [every[x] for x in ids]
        for bad in (-1, len(ball)):
            with pytest.raises(ValueError, match="element id"):
                family_subsets(ball, [bad])


class TestBuildSphereAndBand:
    def test_sphere_elements(self):
        params = GroundParams(2, 3, 2)
        inst = build_sphere(params, 2)
        want = enumerate_family_subsets(2, 3, lambda i, j: i + j == 2)
        assert set(family_subsets(inst, range(len(inst)))) == want
        # on a sphere the height is the number of gained elements
        for s, h in zip(family_subsets(inst, range(len(inst))), inst.height_of):
            assert h == sum(1 for k in s if k > params.p)


class TestPosetInstance:
    def test_up_masks_are_strict_containment(self):
        params = GroundParams(2, 3, 2)
        inst = build_ball(params)
        subs = family_subsets(inst, range(len(inst)))
        assert inst.up_masks() == top_first(strict_less_masks(subs), len(subs))

    def test_lower_covers_transpose(self):
        inst = build_ball(GroundParams(2, 2, 2))
        lower = inst.lower_covers()
        for x, ups in enumerate(inst.covers):
            for y in ups:
                assert x in lower[y]

    def test_is_antichain(self):
        inst = build_ball(GroundParams(1, 2, 1))
        assert inst.is_antichain([])
        assert inst.is_antichain([2, 3])
        assert not inst.is_antichain([1, 2])

    @given(st.sampled_from(SMALL_BALLS), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_is_antichain_matches_the_closure(self, pqr, sphere, data):
        params = GroundParams(*pqr)
        inst = build_sphere(params, params.r) if sphere else build_ball(params)
        lt = strict_less_masks(family_subsets(inst, range(len(inst))))
        members = data.draw(st.lists(st.integers(0, len(inst) - 1), max_size=6))
        assert inst.is_antichain(members) == is_antichain_by_closure(lt, members)

    def test_topological_order(self):
        inst = build_ball(GroundParams(2, 3, 2))
        up = top_first(inst.up_masks(), len(inst))
        for x in range(len(inst)):
            rest = up[x]
            while rest:
                bit = rest & -rest
                assert inst.height_of[x] < inst.height_of[bit.bit_length() - 1]
                rest ^= bit

    def test_up_masks_are_narrow(self):
        # elements come in height order and an up-set holds only higher
        # ones, so top-first it fits below the first element higher than x
        families = 0
        for p in range(1, 11):
            for q in range(11 - p):
                for r in range(p + q + 1):
                    params = GroundParams(p, q, r)
                    for inst in (build_ball(params), build_sphere(params, r)):
                        n, heights = len(inst), inst.height_of
                        first_above = {
                            h: next((k for k, g in enumerate(heights) if g > h), n)
                            for h in set(heights)
                        }
                        for x, m in enumerate(inst.up_masks()):
                            assert m.bit_length() <= n - first_above[heights[x]], (
                                p, q, r, x
                            )
                        families += 1
        assert families == 880


class TestQuotientDag:
    def test_reference_ball_dag(self):
        dag = quotient_dag(GroundParams(5, 8, 4), Ball())
        assert dag.source == (4, 0) and dag.sink == (0, 4)
        assert dag.top_height == 8
        assert len(dag.coords) == 15
        for i, j in dag.coords:
            assert dag.height_of[(i, j)] == 4 - i + j
        for u, v in dag.edges:
            assert dag.height_of[v] == dag.height_of[u] + 1

    def test_ball_has_no_diagonal_steps(self):
        dag = quotient_dag(GroundParams(3, 3, 3), Ball())
        for (ui, uj), (vi, vj) in dag.edges:
            assert (vi - ui, vj - uj) in {(-1, 0), (0, 1)}

    def test_sphere_dag_is_a_diagonal_path(self):
        dag = quotient_dag(GroundParams(5, 8, 4), Sphere(3))
        assert dag.coords == [(3, 0), (2, 1), (1, 2), (0, 3)]
        assert dag.source == (3, 0) and dag.sink == (0, 3)
        assert sorted(dag.edges) == [
            ((1, 2), (0, 3)), ((2, 1), (1, 2)), ((3, 0), (2, 1)),
        ]

    def test_closed_form_equals_longest_paths(self):
        # every ball and sphere with p + q <= 12, at every radius and index
        shapes = 0
        for p in range(1, 13):
            for q in range(13 - p):
                for k in range(p + q + 1):
                    for params, family in (
                        (GroundParams(p, q, k), Ball()),
                        (GroundParams(p, q, 0), Sphere(k)),
                    ):
                        dag = quotient_dag(params, family)
                        want = longest_path_shape(tuple(dag.table.sizes))
                        assert shape_fields(dag) == want, (p, q, k, family)
                        shapes += 1
        assert shapes == 1456

    def test_truncated_regime_longest_path(self):
        dag = quotient_dag(GroundParams(2, 5, 4), Ball())
        assert dag.source == (2, 0) and dag.sink == (0, 4)
        assert dag.top_height == 6
        assert dag.height_of[(0, 0)] == 2  # two restores below it


def shape_fields(dag):
    return dag.coords, dag.edges, dag.source, dag.sink, dag.height_of


class TestShapeCache:
    def test_warm_equals_cold_on_truncated_balls(self):
        # every radius up to p + q, so most coordinate sets are truncated
        keys = [
            (p, q, r) for p in range(1, 7) for q in range(1, 7) for r in range(p + q + 1)
        ]
        warm = {}
        for key in keys:
            dag = quotient_dag(GroundParams(*key), Ball())
            assert type(dag.coords) is list
            cold = poset._diagram_shape.__wrapped__(tuple(dag.table.sizes))
            assert shape_fields(dag) == shape_fields(cold)
            warm[key] = shape_fields(dag), dag.top_height, dag.table
        poset._diagram_shape.cache_clear()
        for key in reversed(keys):
            dag = quotient_dag(GroundParams(*key), Ball())
            assert (shape_fields(dag), dag.top_height, dag.table) == warm[key]

    def test_point_ball_and_point_sphere_share_a_shape(self):
        poset._diagram_shape.cache_clear()
        sphere = quotient_dag(GroundParams(3, 4, 5), Sphere(0))
        ball = quotient_dag(GroundParams(3, 4, 0), Ball())
        assert ball.shape is sphere.shape
        assert shape_fields(ball) == ([(0, 0)], [], (0, 0), (0, 0), {(0, 0): 0})
        assert ball.table.family == Ball() and sphere.table.family == Sphere(0)
        assert len(build_sphere(GroundParams(3, 4, 5), 0)) == 1
        assert len(build_ball(GroundParams(3, 4, 0))) == 1

    def test_shapes_are_shared_by_coordinate_set(self):
        shapes = {
            quotient_dag(GroundParams(p, q, 4), Ball()).shape
            for p, q in ((5, 8), (6, 9), (4, 4))
        }
        assert len(shapes) == 1
        assert quotient_dag(GroundParams(3, 8, 4), Ball()).shape not in shapes

    def test_cache_stays_within_its_bound(self):
        poset._diagram_shape.cache_clear()
        side = SHAPE_CACHE_SIZE + 8
        shapes = [
            quotient_dag(GroundParams(side, side, 0), Sphere(m)).shape
            for m in range(side)
        ]
        assert len(set(map(id, shapes))) == side
        assert poset._diagram_shape.cache_info().currsize == SHAPE_CACHE_SIZE

    def test_truncated_shapes_are_not_cached(self):
        # a truncated coordinate set rarely repeats, so it is built uncached
        # rather than crowding out the shapes that do repeat
        poset._diagram_shape.cache_clear()
        truncated = [
            (GroundParams(3, 5, 4), Ball()),
            (GroundParams(5, 3, 4), Ball()),
            (GroundParams(3, 5, 2), Sphere(4)),
            (GroundParams(5, 3, 2), Sphere(6)),
        ]
        for params, family in truncated:
            quotient_dag(params, family)
        assert poset._diagram_shape.cache_info().currsize == 0
        quotient_dag(GroundParams(3, 5, 3), Ball())
        quotient_dag(GroundParams(5, 3, 2), Sphere(3))
        assert poset._diagram_shape.cache_info().currsize == 2

    def test_invalid_shape_raises_every_time(self, monkeypatch):
        # two coordinates with no edge between them: two sources, two sinks
        def table(params, family):
            return SublayerTable(params, family, {(0, 0): 1, (2, 2): 1})

        monkeypatch.setattr(poset, "build_table", table)
        before = poset._diagram_shape.cache_info()
        for _ in range(3):
            with pytest.raises(GradedQuotientError, match="unique endpoints"):
                quotient_dag(GroundParams(3, 3, 3), Ball())
        after = poset._diagram_shape.cache_info()
        assert after.misses == before.misses + 3
        assert after.currsize == before.currsize

    def test_source_off_height_zero_raises(self, monkeypatch):
        # one restore (1, 1) -> (0, 1): unique endpoints, but the source's
        # closed-form height 1 - 1 + 1 is not its longest path, 0
        def table(params, family):
            return SublayerTable(params, family, {(1, 1): 1, (0, 1): 1})

        monkeypatch.setattr(poset, "build_table", table)
        with pytest.raises(GradedQuotientError, match="not 0"):
            quotient_dag(GroundParams(3, 3, 3), Ball())


class TestCustomPoset:
    def test_three_element_example(self):
        inst = load_custom_poset({"elements": 3, "relations": [[0, 1]]})
        assert len(inst) == 3
        assert inst.height_of == [0, 1, 0]
        assert inst.covers == [[1], [], []]
        assert inst.is_antichain([1, 2])
        assert not inst.is_antichain([0, 1])

    def test_closure_and_covers(self, monkeypatch):
        calls = {"up_masks": 0}
        monkeypatch.setattr(
            PosetInstance, "up_masks", counting(calls, "up_masks", PosetInstance.up_masks)
        )
        inst = load_custom_poset(
            {"elements": 4, "relations": [[0, 1], [1, 2], [0, 3], [0, 2], [0, 1]]}
        )
        # 0<2 also follows through 1, so 2 does not cover 0; the repeated
        # 0<1 is accepted, and only up_masks() builds the closure
        assert inst.covers == [[1, 3], [2], [], []]
        assert calls["up_masks"] == 0
        assert inst.up_masks()[0] == 0b0111

    def test_cover_skipping_a_height(self):
        # 3 < 2 jumps from height 0 to 2, past the level of 1
        inst = load_custom_poset(
            {"elements": 4, "relations": [[0, 1], [1, 2], [3, 2]]}
        )
        assert inst.height_of == [0, 1, 2, 0]
        assert inst.covers == [[1], [2], [], [2]]
        assert inst.is_antichain([1, 3]) and inst.is_antichain([0, 3])
        assert not inst.is_antichain([3, 2]) and not inst.is_antichain([0, 2, 3])

    @given(st.data())
    @settings(max_examples=80)
    def test_matches_fixpoint_closure(self, data):
        n = data.draw(st.integers(1, 7))
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda t: t[0] < t[1]
                ),
                max_size=12,
            )
        )
        perm = data.draw(st.permutations(range(n)))
        pairs = [(perm[u], perm[v]) for u, v in pairs]
        calls = {"up_masks": 0}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                PosetInstance, "up_masks", counting(calls, "up_masks", PosetInstance.up_masks)
            )
            inst = load_custom_poset({"elements": n, "relations": [list(t) for t in pairs]})
        lt = closure_from_pairs(n, pairs)
        assert calls["up_masks"] == 0
        members = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
        assert inst.is_antichain(members) == is_antichain_by_closure(lt, members)
        assert inst.up_masks() == top_first(lt, n)
        assert inst.height_of == brute_heights(lt)
        assert [sorted(c) for c in inst.covers] == brute_covers(lt)

    def test_document_validation(self):
        bad = [
            ([], "object"),
            ({}, "element count"),
            ({"elements": -1}, "natural number"),
            ({"elements": True}, "natural number"),
            ({"elements": 2, "relations": 7}, "list"),
            ({"elements": 2, "relations": [[0]]}, "#0"),
            ({"elements": 2, "relations": [[0, 1], [0, 5]]}, "#1"),
            ({"elements": 2, "relations": [[1, 1]]}, "below itself"),
            ({"elements": 2, "relations": [[0, 1], [1, 0]]}, "cycle"),
        ]
        for document, needle in bad:
            with pytest.raises(CustomPosetError, match=needle):
                load_custom_poset(document)

    def test_budget_checked_before_closure(self):
        # the cycle shows only once the relations are read; the budget must win
        cyclic = {"elements": 3, "relations": [[0, 1], [1, 2], [2, 0]]}
        with pytest.raises(BudgetExceededError) as err:
            load_custom_poset(cyclic, element_budget=2)
        assert err.value.required == 3 and err.value.budget == 2
        with pytest.raises(CustomPosetError):
            load_custom_poset(cyclic, element_budget=3)
        with pytest.raises(BudgetExceededError):
            load_custom_poset({"elements": 3, "relations": "unread"}, element_budget=2)

    def test_cycle_below_another_element(self):
        # 3 sits above the cycle 0 < 1 < 2 < 0 and is on no cycle itself
        document = {"elements": 5, "relations": [[0, 1], [1, 2], [2, 0], [2, 3]]}
        with pytest.raises(CustomPosetError, match="cycle"):
            load_custom_poset(document)

    def test_empty_poset_allowed(self):
        assert len(load_custom_poset({"elements": 0})) == 0
