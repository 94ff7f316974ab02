"""Every skew diagram of at most 6 boxes: the engines against their references, exhaustively."""

import functools

from skewchar import Partition, decompose_skew, durfee, max_hl_characters, normalize, principal_hook_lengths
from skewchar.lr import brute_decompose
from skewchar.ribbons import nw_layers

from helpers import flood_fill_profiles, skew_diagrams

# the 3 303 normalized diagrams of 1 to 6 boxes
SMALL = [a for n in range(1, 7) for a in skew_diagrams(n)]

oracle = functools.cache(brute_decompose)


def test_diagram_counts():
    assert [sum(1 for _ in skew_diagrams(n)) for n in range(8)] == [1, 1, 3, 13, 70, 427, 2789, 19044]
    assert len(SMALL) == 3303


def test_each_diagram_is_normalized_and_listed_once():
    for n in range(7):
        diagrams = list(skew_diagrams(n))
        assert len(set(diagrams)) == len(diagrams)
        for a in diagrams:
            assert a.size == n and normalize(a) == a
            assert a.num_rows <= n and a.num_cols <= n


def test_decompose_skew_equals_the_oracle():
    assert [a for a in SMALL if decompose_skew(a) != oracle(a)] == []


def test_nw_layers_equal_the_flood_fill():
    for a in SMALL:
        _, sizes, profiles = flood_fill_profiles(a)
        assert nw_layers(a) == (Partition(sizes), profiles), a


def test_max_hl_characters_equal_the_oracle():
    for a in SMALL:
        terms = oracle(a)
        hooks = {nu: principal_hook_lengths(nu) for nu in terms}
        hl = max(hooks.values())
        top = [(nu, mult) for nu, mult in terms.items() if hooks[nu] == hl]
        report = max_hl_characters(a)
        assert report.hl == hl, a
        # gamma is the intersection of the hl-maximal constituents
        assert report.gamma == Partition(map(min, zip(*(nu.parts for nu, _ in top)))), a
        assert [(w.nu, w.mult) for w in report.witnesses] == top, a
        assert report.distinct_count == len(top), a
        assert report.min_durfee == min(map(durfee, terms)), a
