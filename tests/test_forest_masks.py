"""The class-level passes on edge masks against the edge-by-edge references
in `oracles`: per-forest profiles and class histograms, pendant statistics
of sampled forests, the bridge-addability verdict with its witness, and
random closures."""

import random

import pytest

from bridgeforest import forestlab as fl
from bridgeforest import treekit as tk

import oracles

CATALOGS = {(t, u): tk.Catalog.standard(t, u) for t, u in ((2, 1), (3, 2), (4, 3))}


def _check_profiles(n, catalog):
    cls = fl.all_forests(n)
    expected = []
    for f in cls:
        want = oracles.forest_profile(n, f.edges, catalog)
        assert fl._profile(n, fl._mask_of(f, n), catalog) == want, sorted(f.edges)
        expected.append(want)
    hist = cls.histogram(catalog)
    assert hist == fl.ClassHistogram(n, len(cls), *oracles.class_histogram(expected))


@pytest.mark.parametrize("catalog", CATALOGS.values(), ids=[f"{t}-{u}" for t, u in CATALOGS])
@pytest.mark.parametrize("n", range(1, 7))
def test_profiles_and_histograms(n, catalog):
    # even n gives equal-size components and edges that split a tree evenly
    _check_profiles(n, catalog)


def test_profiles_and_histogram_n7():
    _check_profiles(7, CATALOGS[4, 3])


def test_pendant_stats_of_samples():
    rng = random.Random(5)
    for _ in range(50):
        f = fl.sample_forest(12, rng=rng)
        for catalog in CATALOGS.values():
            want = oracles.forest_profile(12, f.edges, catalog)[1]
            assert fl.pendant_stats(f, catalog).vector == want, sorted(f.edges)


@pytest.mark.parametrize("n", [5, 6])
def test_bridge_witness_on_subclasses(n):
    forests = sorted(fl.enumerate_forests(n), key=fl.LabeledForest.sort_key)
    verdicts = set()
    for seed in range(20):
        rng = random.Random(seed)
        drop = (0.0, 0.001, 0.01, 0.1, 0.5)[seed % 5]
        kept = [f for f in forests if rng.random() >= drop]
        cls = fl.ForestClass(n, kept)
        chk = fl.is_bridge_addable(cls)
        assert cls._bridge_addable is chk.ok  # the box checks reuse the verdict
        want = oracles.bridge_addable_witness(n, [f.edges for f in kept])
        if want is None:
            assert chk == fl.BridgeAddableCheck(True, None, None)
        else:
            assert (chk.ok, chk.witness_forest.edges, chk.witness_edge) == (False, *want)
        verdicts.add(chk.ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", range(1, 7))
def test_random_closures(n):
    for seed in range(10):
        # the seed forests random_closure draws
        rng = random.Random(seed)
        seeds = []
        for _ in range(3):
            f = fl.sample_forest(n, rng=rng)
            seeds.append(frozenset(e for e in sorted(f.edges) if rng.random() < 0.5))
        got = {f.edges for f in fl.random_closure(n, seed)}
        assert got == oracles.bridge_addable_closure(n, seeds)


def test_masks_round_trip():
    for f in fl.enumerate_forests(5):
        assert fl._forest_of(5, fl._mask_of(f, 5)) == f
    cls = fl.all_forests(4)
    assert sorted(f.sort_key() for f in cls) == [f.sort_key() for f in cls.sorted_members()]
    assert fl.LabeledForest.make(4, [(1, 2)]) in cls
    assert fl.LabeledForest.make(5, [(1, 2)]) not in cls


def test_equal_sizes_reference_and_small_component_coincide():
    # at equal sizes the reference component and the distinguished small
    # component are one and the same: the component holding vertex 1
    f = fl.LabeledForest.make(6, [(1, 2), (2, 3), (4, 5), (4, 6)])
    assert f.largest_component() == f.smallest_component() == {1, 2, 3}
    # with non-isomorphic halves the profile shows which one it read: the
    # path on 1..4, not the star on 5..8
    path = [(1, 2), (2, 3), (3, 4)]
    f = fl.LabeledForest.make(8, path + [(5, 6), (5, 7), (5, 8)])
    catalog = CATALOGS[4, 3]
    alone = fl.LabeledForest.make(4, path)
    assert fl._profile(8, fl._mask_of(f, 8), catalog) == (
        2, fl.pendant_stats(alone, catalog).vector, tk.canonicalize_unrooted(path).code
    )
