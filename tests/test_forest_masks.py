"""The class-level passes on edge masks against the edge-by-edge references
in `oracles`: per-forest profiles and class histograms, pendant statistics
of sampled forests, the bridge-addability verdict with its witness, and
random closures.  The all-forests histogram, counted from free trees, is
checked against the enumerated one."""

import itertools
import json
import random
from math import comb, factorial

import pytest

from bridgeforest import cli
from bridgeforest import forestlab as fl
from bridgeforest import treekit as tk

import oracles

# (6, 2) has t0 trees as large as the halves of a central edge up to n = 12
CATALOGS = {(t, u): tk.Catalog.standard(t, u) for t, u in ((2, 1), (3, 2), (4, 3), (6, 2))}


def _profile(n, mask, catalog):
    """The forest's shape key with its reference code read as an alpha:
    (component count, alpha, small code or None), the form of
    `oracles.forest_profile`."""
    ncomp, code, ucode = fl._shape_key(n, mask)
    return ncomp, fl._pendant_alpha(code, catalog), ucode


def _check_profiles(n, catalog):
    cls = fl.ForestClass(n, fl._forest_masks(n))  # every forest, enumerated
    expected = []
    for f in cls:
        want = oracles.forest_profile(n, f.edges, catalog)
        assert _profile(n, fl._mask_of(f, n), catalog) == want, sorted(f.edges)
        expected.append(want)
    hist = cls.histogram(catalog)
    comps, a_alpha, b_alpha, b_totals = oracles.class_histogram(expected)
    assert hist == fl.ClassHistogram(n, len(cls), comps, a_alpha, b_alpha)
    assert hist.b_totals == b_totals
    # the same class counted from free-tree shapes
    assert fl.all_forests(n).histogram(catalog) == hist


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
            assert _profile(12, fl._mask_of(f, 12), catalog)[1] == want, sorted(f.edges)


@pytest.mark.parametrize("n", [5, 6])
def test_bridge_witness_on_subclasses(n):
    forests = fl.all_forests(n).sorted_members()
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


def test_components_match_bitwise_decoder():
    masks = [(n, m) for n in range(1, 7) for m in fl._forest_masks(n)]
    masks += [(8, m) for m in fl.random_closure(8, seed=1).masks]
    for n, mask in masks:
        assert fl._components(n, mask) == oracles.mask_components(n, mask)


def test_neighbour_tables_past_one_chunk():
    # from n = 10 on a vertex has more incident pairs than one table covers
    rng = random.Random(2)
    for n in (10, 17):
        for _ in range(200):
            mask = fl._mask_of(fl.sample_forest(n, rng=rng), n)
            assert fl._components(n, mask) == oracles.mask_components(n, mask)


def test_masks_round_trip():
    for f in fl.all_forests(5):
        assert fl._forest_of(5, fl._mask_of(f, 5)) == f
    cls = fl.all_forests(4)
    assert sorted(f.sort_key() for f in cls) == [f.sort_key() for f in cls.sorted_members()]
    assert fl.LabeledForest.make(4, [(1, 2)]) in cls
    assert fl.LabeledForest.make(5, [(1, 2)]) not in cls


def test_equal_sizes_reference_and_small_component_coincide():
    # at equal sizes the reference component and the distinguished small
    # component are one and the same: the component holding vertex 1
    f = fl.LabeledForest.make(6, [(1, 2), (2, 3), (4, 5), (4, 6)])
    assert f.components() == ({1, 2, 3}, {4, 5, 6})
    assert _profile(6, fl._mask_of(f, 6), CATALOGS[4, 3]) == oracles.forest_profile(
        6, f.edges, CATALOGS[4, 3]
    )
    # with non-isomorphic halves the profile shows which one it read: the
    # path on 1..4, not the star on 5..8
    path = [(1, 2), (2, 3), (3, 4)]
    f = fl.LabeledForest.make(8, path + [(5, 6), (5, 7), (5, 8)])
    catalog = CATALOGS[4, 3]
    alone = fl.LabeledForest.make(4, path)
    assert _profile(8, fl._mask_of(f, 8), catalog) == (
        2, _profile(4, fl._mask_of(alone, 4), catalog)[1], tk.canonicalize_unrooted(path).code
    )


@pytest.mark.parametrize("n", range(9, 13))
def test_shape_histogram_totals(n):
    hist = fl.all_forests(n).histogram(CATALOGS[4, 3])
    assert hist.size == fl.forest_total(n)
    assert hist.component_counts == {i: fl.forest_count(n, i) for i in range(1, n + 1)}
    assert sum(hist.a_alpha.values()) == tk.labeled_tree_count(n)
    assert sum(hist.b_totals.values()) == fl.forest_count(n, 2)
    # by small component, counted from shapes without their alphas
    trees = list(tk.enumerate_unrooted(n))
    want = {}
    for u1, u2 in itertools.product(trees, repeat=2):
        r = u1.size
        if u2.size != n - r or 2 * r < n:
            continue
        sets, key = (comb(n, r), u2.code) if 2 * r > n else (comb(n - 1, r - 1), u1.code)
        want[key] = want.get(key, 0) + sets * factorial(r) // u1.aut_u * factorial(n - r) // u2.aut_u
    assert hist.b_totals == want


def _check_box_counts(cls, catalog, widths=(1, 2)):
    hist = cls.histogram(catalog)
    q = catalog.q_star
    boxes = [box for w in widths for box in fl._candidate_boxes(hist, catalog, w, q)]
    assert boxes
    codes = list(catalog.u0_index)
    for box in boxes:
        want = oracles.box_counts(hist.a_alpha, hist.b_alpha, box.lower, box.width, q, codes)
        assert hist.box_counts(box, codes) == want, box


def _check_candidate_boxes(cls, catalog):
    hist = cls.histogram(catalog)
    for w in (2, 3):
        want = oracles.candidate_boxes(hist.b_alpha, catalog.u0_index, w)
        assert [box.lower for box in fl._candidate_boxes(hist, catalog, w, catalog.q_star)] == want


@pytest.mark.parametrize("catalog", CATALOGS.values(), ids=[f"{t}-{u}" for t, u in CATALOGS])
@pytest.mark.parametrize("n", range(2, 9))
def test_box_counts_against_scans(n, catalog):
    for cls in (fl.all_forests(n), fl.random_closure(n, seed=n)):
        _check_box_counts(cls, catalog)
        _check_candidate_boxes(cls, catalog)


def test_box_counts_against_scans_n12():
    for catalog in CATALOGS.values():
        # at w = 2 the many boxes of (6, 2) take 20 s of scans
        _check_box_counts(fl.all_forests(12), catalog, (1, 2) if len(catalog.t0) <= 8 else (1,))


def test_centred_roots_at_the_far_centroid():
    # every rooted tree with at most 10 vertices; in preorder a child comes
    # after its parent, so of two centroids the far one has the larger index
    for t in tk.enumerate_rooted(10):
        adj = tk.code_to_adjacency(t.code)
        assert fl._centred(t.code) == oracles.encode(adj, max(oracles.centroids(adj)))[0], t.code


def _rootings(u):
    """The far-centroid codes of the labelings of the free tree u in the
    shape tally of every forest on u.size vertices, with their numbers of
    labelings."""
    tally = fl._shape_tally(fl.all_forests(u.size))
    return {code: k for (code, small), k in tally.items()
            if small is None and tk._unrooted_code(code) == u.code}


def test_two_centroid_tie_splits_the_labelings():
    catalog = CATALOGS[4, 3]
    # halves a path and a star on 4 vertices: the pendant side of the
    # central edge is the half holding vertex 1, in half of the labelings
    path, star = [(1, 2), (2, 3), (3, 4)], [(5, 6), (5, 7), (5, 8)]
    u = tk.canonicalize_unrooted(path + star + [(2, 5)])
    rootings = _rootings(u)
    assert len({fl._pendant_alpha(code, catalog) for code in rootings}) == 2
    assert set(rootings.values()) == {factorial(8) // u.aut_u // 2}
    # equal halves give one code, which keeps every labeling
    for edges in ([(1, 2)], path + [(5, 6), (6, 7), (7, 8), (3, 6)]):
        u = tk.canonicalize_unrooted(edges)
        alpha = oracles.forest_profile(u.size, edges, catalog)[1]
        assert _rootings(u) == {u.code: factorial(u.size) // u.aut_u}
        assert fl._pendant_alpha(u.code, catalog) == alpha


@pytest.mark.parametrize("n", range(1, 8))
def test_shape_tally_equals_mask_tally(n):
    # no catalog: the same keys and counts from free trees and from masks
    assert fl._shape_tally(fl.all_forests(n)) == fl.ForestClass(n, fl._forest_masks(n))._tally


def test_shape_tally_equals_reference():
    # the tally from both centroid rootings of each folded tree against the
    # first count, over enumerate_unrooted and a second encode
    for n in range(1, 15):
        assert fl._shape_tally(fl.all_forests(n)) == oracles.shape_tally_reference(n), n


def _path5_and_a_tree4():
    path5 = [(1, 2), (2, 3), (3, 4), (4, 5)]
    return fl.ForestClass(9, [fl.LabeledForest.make(9, path5 + tree) for tree in (
        [(6, 7), (7, 8), (8, 9)], [(6, 7), (6, 8), (6, 9)])])


# at n = 9 a reference code comes with small components of two shapes
@pytest.mark.parametrize("make", [lambda: fl.all_forests(9), _path5_and_a_tree4],
                         ids=["all-forests", "explicit"])
def test_second_catalog_reuses_the_tally(monkeypatch, make):
    first, second = CATALOGS[3, 2], CATALOGS[4, 3]
    want = make().histogram(second)
    cls = make()
    cls.histogram(first)

    def refuse(*args):
        raise AssertionError("tallied again")

    calls = []
    pendant_alpha = fl._pendant_alpha
    monkeypatch.setattr(fl, "_shape_key", refuse)
    monkeypatch.setattr(tk, "enumerate_unrooted", refuse)
    monkeypatch.setattr(fl, "_pendant_alpha",
                        lambda code, catalog: calls.append(code) or pendant_alpha(code, catalog))
    assert cls.histogram(second) == want
    # one alpha per distinct code, fewer than the tally's keys
    assert sorted(calls) == sorted({code for code, _ in cls._tally})
    assert len(calls) < len(cls._tally)


def test_all_forests_are_counted_not_enumerated(monkeypatch):
    def refuse(n):
        raise AssertionError("enumerated")

    monkeypatch.setattr(fl, "_forest_masks", refuse)
    cls = fl.all_forests(16)
    assert len(cls) == fl.forest_total(16)
    assert fl.LabeledForest.make(16, [(1, 16)]) in cls
    assert fl.LabeledForest.make(15, [(1, 15)]) not in cls
    rep = fl.verify_simple_counting(cls)
    assert rep.ok and rep.comparisons[0] == (1, fl.forest_count(16, 2), tk.labeled_tree_count(16))
    small = fl.all_forests(9)
    assert fl.verify_local_double_counting(small, CATALOGS[3, 2]).checks > 0


def test_all_forests_caps():
    with pytest.raises(tk.CapacityError):
        list(fl.all_forests(9))  # members are enumerated only up to n = 8
    with pytest.raises(tk.CapacityError, match="all-forests"):
        fl.all_forests(tk.DEFAULT_MAX_SIZE + 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerated_forests_are_bridge_addable(n):
    assert fl.is_bridge_addable(fl.ForestClass(n, fl._forest_masks(n))).ok


def test_closure_member_cap(monkeypatch):
    assert len(fl.random_closure(5, 3)) > 20
    monkeypatch.setattr(fl, "CLOSURE_MAX_MEMBERS", 20)
    with pytest.raises(tk.CapacityError, match="20 members"):
        fl.random_closure(5, 3)


@pytest.mark.parametrize(
    "suite,checked",
    [
        ("simple-counting", lambda rep: len(rep["comparisons"])),
        ("local-double-counting", lambda rep: rep["checks"]),
        ("sum-bound", lambda rep: rep["boxes_checked"]),
        ("boxing", lambda rep: sum(total for _, total in rep["capture"].values())),
    ],
    ids=["simple-counting", "local-double-counting", "sum-bound", "boxing"],
)
def test_verify_all_forests_n12(capsys, suite, checked):
    # past the enumeration cap; a missed boxing target exits 0 when the
    # averaging guarantee does not apply, so the exit code is the verdict
    assert cli.main(["verify", "--suite", suite, "--n", "12"]) == 0
    assert checked(json.loads(capsys.readouterr().out)["report"]) > 0


def test_verify_all_forests_past_cap(capsys):
    assert cli.main(["verify", "--suite", "simple-counting", "--n", "17"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: class all-forests is capped at n=16\n"
