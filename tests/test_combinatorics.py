import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballwidth.combinatorics import (
    Ball,
    GroundParams,
    Sphere,
    binomial,
    build_table,
    check_multiset_ratio_monotone,
    check_ratio_monotone,
    family_coords,
    heaviest_sublayer_chain,
    largest_sphere_sublayer,
    layer_profile,
    multiset_layer_sizes,
    profile_from_sizes,
    ratio,
    sublayer_size,
    zigzag_margin,
)

from helpers import pascal_binomial, poly_layer_counts


class TestBinomial:
    @given(st.integers(0, 80), st.integers(0, 90))
    def test_matches_additive_recurrence(self, n, k):
        assert binomial(n, k) == pascal_binomial(n, k)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, -2)


class TestSublayerSize:
    @given(st.integers(1, 12), st.integers(0, 12), st.data())
    def test_product_of_binomials(self, p, q, data):
        i = data.draw(st.integers(0, p))
        j = data.draw(st.integers(0, q))
        params = GroundParams(p, q, 0)
        assert sublayer_size(params, (i, j)) == pascal_binomial(p, i) * pascal_binomial(q, j)

    def test_out_of_bounds_coordinate(self):
        params = GroundParams(2, 3, 1)
        for bad in [(-1, 0), (0, -1), (3, 0), (0, 4)]:
            with pytest.raises(ValueError):
                sublayer_size(params, bad)


class TestGroundParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroundParams(0, 3, 1)
        with pytest.raises(ValueError):
            GroundParams(2, -1, 1)
        with pytest.raises(ValueError):
            GroundParams(2, 3, -1)

    def test_n(self):
        assert GroundParams(5, 8, 4).n == 13


class TestFamilyCoords:
    def test_ball_order_level_by_level(self):
        got = family_coords(GroundParams(5, 8, 4), Ball())
        assert got == [
            (0, 0),
            (1, 0), (0, 1),
            (2, 0), (1, 1), (0, 2),
            (3, 0), (2, 1), (1, 2), (0, 3),
            (4, 0), (3, 1), (2, 2), (1, 3), (0, 4),
        ]

    def test_ball_respects_side_caps(self):
        # p=2 truncates the i range, q=1 truncates the j range
        got = family_coords(GroundParams(2, 1, 3), Ball())
        assert got == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (2, 1)]

    def test_sphere_and_band(self):
        params = GroundParams(5, 8, 4)
        assert family_coords(params, Sphere(2)) == [(2, 0), (1, 1), (0, 2)]
        with pytest.raises(ValueError):
            family_coords(params, Sphere(14))


class TestBuildTable:
    @given(st.integers(1, 10), st.integers(0, 10), st.data())
    def test_ball_total_is_partial_binomial_sum(self, p, q, data):
        r = data.draw(st.integers(0, p + q))
        table = build_table(GroundParams(p, q, r), Ball())
        # Vandermonde: the sets within distance r are exactly those whose
        # symmetric difference from the center has size <= r
        assert table.total == sum(pascal_binomial(p + q, m) for m in range(r + 1))

    def test_reference_ball(self):
        table = build_table(GroundParams(5, 8, 4))
        assert table.total == 1093
        assert table.sizes[(2, 2)] == 280
        assert table.sizes[(4, 0)] == 5


class TestLayerProfile:
    def test_reference_ball_profile(self):
        profile = layer_profile(build_table(GroundParams(5, 8, 4)))
        assert profile.heights == {
            0: 5, 1: 10, 2: 90, 3: 85, 4: 321, 5: 148, 6: 308, 7: 56, 8: 70,
        }
        assert profile.argmax == [4]
        assert not profile.tie
        assert profile.max_size == 321

    def test_sphere_profile_by_gain_count(self):
        profile = layer_profile(build_table(GroundParams(5, 8, 4), Sphere(3)))
        assert profile.heights == {0: 10, 1: 80, 2: 140, 3: 56}
        assert profile.argmax == [2]

    def test_tie_detected(self):
        profile = layer_profile(build_table(GroundParams(2, 2, 1)))
        assert profile.heights == {0: 2, 1: 1, 2: 2}
        assert profile.argmax == [0, 2]
        assert profile.tie

    def test_truncated_regime_rejected(self):
        with pytest.raises(ValueError, match="longest-path heights"):
            layer_profile(build_table(GroundParams(2, 5, 4)))
        with pytest.raises(ValueError):
            layer_profile(build_table(GroundParams(2, 5, 0), Sphere(4)))

    def test_profile_from_sizes_rejects_empty(self):
        with pytest.raises(ValueError):
            profile_from_sizes({})


class TestHeaviestSublayerChain:
    @pytest.mark.parametrize(
        "key,expect",
        [
            ((5, 8, 4), (321, 1)),
            ((9, 9, 5), (3357, 2)),  # the two tied layers
            ((12, 12, 4), (4501, 1)),
            ((3, 0, 2), (3, 2)),  # one column: two sublayers of size 3
            ((1, 1, 0), (1, 1)),
        ],
    )
    def test_reference_values(self, key, expect):
        assert heaviest_sublayer_chain(build_table(GroundParams(*key))) == expect

    def test_sphere_rejected(self):
        with pytest.raises(ValueError):
            heaviest_sublayer_chain(build_table(GroundParams(2, 3, 2), Sphere(2)))


class TestRatio:
    def test_reference_value(self):
        assert ratio(GroundParams(5, 8, 4), 2, 2) == Fraction(7, 4)

    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    def test_equals_size_quotient(self, p, q, data):
        i = data.draw(st.integers(1, p))
        j = data.draw(st.integers(1, q))
        params = GroundParams(p, q, 0)
        expected = Fraction(
            sublayer_size(params, (i - 1, j)), sublayer_size(params, (i, j - 1))
        )
        assert ratio(params, i, j) == expected

    def test_domain_checks(self):
        params = GroundParams(3, 3, 2)
        for bad in [(0, 1), (1, 0), (4, 1), (1, 4)]:
            with pytest.raises(ValueError):
                ratio(params, *bad)


class TestRatioMonotone:
    def test_holds_on_reference_sphere(self):
        verdict = check_ratio_monotone(GroundParams(5, 8, 4), 4)
        assert verdict.holds and verdict.violation is None

    @given(st.integers(1, 20), st.integers(1, 20), st.data())
    def test_holds_everywhere_in_range(self, p, q, data):
        radius = data.draw(st.integers(1, min(p, q)))
        assert check_ratio_monotone(GroundParams(p, q, 0), radius).holds

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            check_ratio_monotone(GroundParams(3, 3, 1), 0)


class TestLargestSphereSublayer:
    def test_reference_tie(self):
        coords, rounding = largest_sphere_sublayer(GroundParams(5, 8, 4), 4)
        assert coords == [(2, 2), (1, 3)]
        assert rounding == (1, 3)

    def test_reference_unique(self):
        coords, rounding = largest_sphere_sublayer(GroundParams(9, 17, 10), 10)
        assert coords == [(3, 7)]
        assert rounding == (3, 7)

    @given(st.integers(1, 11), st.integers(0, 11), st.data())
    def test_rounding_lands_in_brute_argmax(self, p, q, data):
        m = data.draw(st.integers(0, p + q))
        params = GroundParams(p, q, 0)
        sizes = {
            (i, m - i): sublayer_size(params, (i, m - i))
            for i in range(max(0, m - q), min(p, m) + 1)
        }
        best = max(sizes.values())
        coords, rounding = largest_sphere_sublayer(params, m)
        assert set(coords) == {c for c, v in sizes.items() if v == best}
        assert rounding in coords

    def test_sphere_index_validation(self):
        with pytest.raises(ValueError):
            largest_sphere_sublayer(GroundParams(2, 3, 1), 6)


class TestZigzagMargin:
    def test_reference_slacks(self):
        params = GroundParams(5, 8, 4)
        good = zigzag_margin(params, (2, 2))
        assert good.holds and good.slack == 280 - 80 - 10
        bad = zigzag_margin(params, (1, 3))
        assert not bad.holds and bad.slack == -40

    def test_domain_checks(self):
        params = GroundParams(2, 8, 4)
        with pytest.raises(ValueError):
            zigzag_margin(params, (1, 1))
        with pytest.raises(ValueError):
            zigzag_margin(params, (2, 3))


class TestMultisetLayers:
    def test_reference_vector(self):
        assert multiset_layer_sizes([1, 2, 3]) == [1, 3, 5, 6, 5, 3, 1]

    def test_empty_and_validation(self):
        assert multiset_layer_sizes([]) == [1]
        with pytest.raises(ValueError):
            multiset_layer_sizes([2, 0])

    @given(st.lists(st.integers(1, 6), max_size=6))
    def test_matches_enumeration_oracle(self, mus):
        assert multiset_layer_sizes(mus) == poly_layer_counts(mus)

    @given(st.lists(st.integers(1, 6), max_size=6))
    def test_symmetric_and_total(self, mus):
        sizes = multiset_layer_sizes(mus)
        assert sizes == sizes[::-1]
        assert sum(sizes) == math.prod(mu + 1 for mu in mus)

    def test_all_ones_gives_binomials(self):
        for n in range(9):
            assert multiset_layer_sizes([1] * n) == [
                pascal_binomial(n, k) for k in range(n + 1)
            ]

    @settings(max_examples=60)
    @given(st.permutations([1, 2, 2, 3, 4]))
    def test_order_invariant(self, mus):
        assert multiset_layer_sizes(mus) == multiset_layer_sizes([1, 2, 2, 3, 4])


class TestMultisetRatioMonotone:
    @given(st.lists(st.integers(1, 5), max_size=5))
    def test_holds_on_small_vectors(self, mus):
        verdict = check_multiset_ratio_monotone(mus)
        assert verdict.holds and verdict.violation is None
