import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballwidth.combinatorics import GroundParams
from ballwidth.matching import hopcroft_karp
from ballwidth.poset import build_ball, build_sphere, load_custom_poset

from helpers import (
    full_scan_hopcroft_karp,
    konig_independent,
    kuhn_matching_size,
    top_first,
)

# (size, sha256 of json.dumps(pair_left)) of the matching over each order's
# comparability relation; any change to the search order moves the digest
PINNED = [
    ("ball(6,6,3)", lambda: build_ball(GroundParams(6, 6, 3)), 203,
     "ad55fe4242837de7af11c3e23da804483efa88438291603a30e5861faf2316aa"),
    ("ball(9,9,5)", lambda: build_ball(GroundParams(9, 9, 5)), 9259,
     "0d8a91f6cb8947b7af0d16acf7b28f9cad7072ba8b6042f7cf85f59dca878878"),
    ("sphere(12,12,4;4)", lambda: build_sphere(GroundParams(12, 12, 4), 4), 6270,
     "069c598e7570e1b0ab9b0617411e99f75d6ca5f47895489d21f0c023d8a1419c"),
]


@pytest.mark.parametrize(
    "build,size,digest", [case[1:] for case in PINNED], ids=[case[0] for case in PINNED]
)
def test_matching_is_pinned(build, size, digest):
    pair_l, pair_r, got, _ = hopcroft_karp(build().up_masks())
    assert got == size
    assert hashlib.sha256(json.dumps(pair_l).encode()).hexdigest() == digest
    assert all(pair_r[v] == u for u, v in enumerate(pair_l) if v is not None)


def bipartite_graphs():
    return st.integers(0, 40).flatmap(
        lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    )


@settings(max_examples=200, deadline=None)
@given(bipartite_graphs())
def test_matching_is_valid_and_maximum(adj):
    n = len(adj)
    pair_l, pair_r, size, konig = hopcroft_karp(top_first(adj, n))
    assert len(pair_l) == len(pair_r) == n
    edges = [(u, v) for u, v in enumerate(pair_l) if v is not None]
    assert len(edges) == size
    assert all(adj[u] >> v & 1 and pair_r[v] == u for u, v in edges)
    assert sum(u is not None for u in pair_r) == size
    assert size == kuhn_matching_size(adj)
    assert (pair_l, pair_r, size) == full_scan_hopcroft_karp(adj)
    assert konig == konig_independent(adj, pair_l, pair_r)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_konig_gives_an_antichain_of_the_width(data):
    n = data.draw(st.integers(2, 30))
    below = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda uv: uv[0] < uv[1]
    )
    pairs = data.draw(st.lists(below, max_size=3 * n))
    perm = data.draw(st.permutations(range(n)))
    relations = [[perm[u], perm[v]] for u, v in pairs]
    instance = load_custom_poset({"elements": n, "relations": relations})
    pair_l, pair_r, size, members = hopcroft_karp(instance.up_masks())
    up = top_first(instance.up_masks(), n)
    assert members == konig_independent(up, pair_l, pair_r)
    assert len(members) == n - size
    assert instance.is_antichain(members)
    assert size == kuhn_matching_size(up)
    assert (pair_l, pair_r, size) == full_scan_hopcroft_karp(up)


def test_konig_set_equals_the_reference_walk_on_small_balls():
    # every ball with p + q <= 10 at every radius: the König set read off
    # the last layering is the reference walk's, vertex for vertex
    balls = 0
    for p in range(1, 11):
        for q in range(11 - p):
            for r in range(p + q + 1):
                ball = build_ball(GroundParams(p, q, r))
                pair_l, pair_r, size, konig = hopcroft_karp(ball.up_masks())
                up = top_first(ball.up_masks(), len(ball))
                assert konig == konig_independent(up, pair_l, pair_r), (p, q, r)
                assert len(konig) == len(up) - size
                balls += 1
    assert balls == 440
