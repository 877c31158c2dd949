import bisect
import hashlib
import itertools
import math
import random
import re
import types
from fractions import Fraction

import pytest

from bridgeforest import forestlab as fl
from bridgeforest import forests
from bridgeforest import treekit as tk

import oracles


@pytest.fixture(scope="module")
def cat32():
    return tk.Catalog.standard(3, 2)


@pytest.fixture(scope="module")
def cat21():
    return tk.Catalog.standard(2, 1)


def _alpha(f, catalog):
    """Pendant statistics of f's reference component, over catalog.t0."""
    return fl._pendant_alpha(fl._shape_key(f.n, fl._mask_of(f, f.n))[1], catalog)


def _alpha_counts(f, catalog):
    return {t.code: c for t, c in zip(catalog.t0, _alpha(f, catalog))}


class TestLabeledForest:
    def test_validation(self):
        with pytest.raises(ValueError):
            fl.LabeledForest.make(3, [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(ValueError):
            fl.LabeledForest.make(2, [(1, 3)])
        # a repeated edge, which normalizing would merge into another forest
        with pytest.raises(ValueError, match=r"edge \(2, 3\) is given twice"):
            fl.LabeledForest.make(3, [(2, 3), (1, 2), (3, 2)])

    def test_bool_endpoints_rejected(self):
        # a bool equals 1 or 0, and would be written as true or false
        for edge in [(True, 2), (1, True), (False, 2)]:
            with pytest.raises(ValueError, match="bad edge"):
                fl.LabeledForest(n=3, edges=frozenset({edge}))
        assert fl.LabeledForest(n=3, edges=frozenset({(1, 2)})).edges == {(1, 2)}

    @pytest.mark.parametrize("n", [0, -1, True, False, 2.5, "3", None])
    def test_n_must_be_an_int_at_least_one(self, n):
        with pytest.raises(ValueError, match=r"^n must be an int >= 1, got "):
            fl.LabeledForest(n=n, edges=frozenset())

    def test_bad_n_with_edges_is_refused_first(self):
        with pytest.raises(ValueError, match=r"^n must be an int >= 1, got 2\.5$"):
            fl.LabeledForest(n=2.5, edges=frozenset({(1, 2)}))
        with pytest.raises(ValueError, match=r"^n must be an int >= 1, got True$"):
            forests.sample_forest(True)

    def test_components(self):
        f = fl.LabeledForest.make(5, [(1, 2), (4, 5)])
        comps = f.components()
        assert sorted(map(len, comps)) == [1, 2, 2]
        assert f.component_count == 3
        assert comps == tuple(oracles.forest_components(5, f.edges))

    def test_largest_tie_smallest_vertex(self):
        # the first component is the largest, ties to the smallest vertex
        f = fl.LabeledForest.make(4, [(2, 3), (1, 4)])
        assert f.components()[0] == frozenset({1, 4})

    def test_smallest_tie_contains_vertex_one(self):
        # equal sizes sit in smallest-vertex order, so the first of the
        # smallest size holds vertex 1 when any of them does
        f = fl.LabeledForest.make(4, [(2, 3), (1, 4)])
        assert f.components() == ({1, 4}, {2, 3})
        f = fl.LabeledForest.make(5, [(2, 3), (3, 4)])
        assert f.components() == ({2, 3, 4}, {1}, {5})


class TestEnumerateForests:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 7), (4, 38), (5, 291)])
    def test_counts(self, n, count):
        assert len(fl.all_forests(n).sorted_members()) == count

    def test_no_duplicates(self):
        masks = fl._forest_masks(4)  # the list a class of all forests enumerates
        assert len(set(masks)) == len(masks)
        assert len({f.edges for f in fl.all_forests(4)}) == len(masks)

    def test_matches_subset_filter_oracle(self):
        for n in range(1, 5):
            mine = {f.edges for f in fl.all_forests(n)}
            assert mine == set(oracles.acyclic_edge_subsets(n))

    def test_capacity(self):
        with pytest.raises(tk.CapacityError):
            list(fl.all_forests(9))
        with pytest.raises(tk.CapacityError):
            fl.all_forests(9).sorted_members()


class TestCounts:
    def test_examples(self):
        assert fl.forest_count(4, 2) == 15
        assert fl.forest_count(5, 2) == 110
        assert fl.forest_count(5, 5) == 1

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            fl.forest_count(4, 0)
        with pytest.raises(ValueError):
            fl.forest_count(4, 5)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_recurrence_vs_enumeration(self, n):
        forests = list(fl.all_forests(n))
        by_k = {}
        for f in forests:
            by_k[f.component_count] = by_k.get(f.component_count, 0) + 1
        for k in range(1, n + 1):
            assert fl.forest_count(n, k) == by_k.get(k, 0)
        assert fl.forest_total(n) == len(forests)

    def test_connected_count_is_cayley(self):
        for n in range(1, 31):
            assert fl.forest_count(n, 1) == fl.labeled_tree_count(n)

    def test_cross_check_with_treekit(self):
        for n in range(1, 9):
            chk = tk.cayley_identity_check(n)
            assert chk.unrooted_sum == fl.forest_count(n, 1)

    def test_many_components_no_deep_recursion(self):
        # a recurrence on vertex 1's component would go k = 500 levels deep;
        # the closed form must not recurse at all
        assert fl.forest_count(500, 500) == 1
        assert fl.forest_count(500, 499) == math.comb(500, 2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts_vs_subset_filter_oracle(self, n):
        # a forest with e edges on n vertices has n - e components
        by_k = {}
        for edges in oracles.acyclic_edge_subsets(n):
            by_k[n - len(edges)] = by_k.get(n - len(edges), 0) + 1
        assert [fl.forest_count(n, k) for k in range(1, n + 1)] == [
            by_k.get(k, 0) for k in range(1, n + 1)
        ]
        assert fl.forest_total(n) == sum(by_k.values())


class TestClosedFormsAgainstRecurrences:
    # the closed forms against the quadratic recurrences they replaced

    def test_totals(self):
        assert [fl.forest_total(n) for n in range(601)] == oracles.forest_totals(600)

    def test_counts(self):
        for n in range(1, 61):
            for k in range(1, n + 1):
                assert fl.forest_count(n, k) == oracles.forest_count(n, k), (n, k)

    def test_logfloat_is_the_rounded_exact_value(self):
        for n in range(1, 1001):
            assert fl.connectivity_prob(n, mode="logfloat") == float(fl.connectivity_prob(n)), n

    def test_log_space_recurrence_at_2000(self):
        n = 2000
        log_space = math.exp((n - 2) * math.log(n) - oracles.log_forest_totals(n)[n])
        value = fl.connectivity_prob(n, mode="logfloat")
        assert abs(value - log_space) <= 1e-9 * value


class TestConnectivityProb:
    def test_examples(self):
        assert fl.connectivity_prob(3) == Fraction(3, 7)
        assert fl.connectivity_prob(2) == Fraction(1, 2)
        assert fl.connectivity_prob(7) == Fraction(16807, 36961)

    def test_logfloat_matches_exact(self):
        for n in (5, 20, 100, 300):
            exact = float(fl.connectivity_prob(n, mode="exact"))
            approx = fl.connectivity_prob(n, mode="logfloat")
            assert abs(exact - approx) <= 1e-9 * exact

    def test_ratio_examples(self):
        assert fl.two_component_ratio(4) == Fraction(15, 16)
        assert fl.two_component_ratio(5) == Fraction(110, 125)
        assert fl.two_component_ratio(3) == 1

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            fl.connectivity_prob(5, mode="float")


class TestSampler:
    def test_deterministic(self):
        a = fl.sample_forest(8, seed=42)
        b = fl.sample_forest(8, seed=42)
        assert a == b

    def test_valid_forests(self):
        rng = random.Random(3)
        for _ in range(50):
            f = fl.sample_forest(12, rng=rng)
            assert f.n == 12  # construction validates acyclicity

    @pytest.mark.parametrize("n", [0, -1, True, False, 2.5, "3", None])
    def test_bad_n_is_refused_before_any_draw(self, n):
        rng = random.Random(0)
        state = rng.getstate()
        for sample in (forests.sample_forest, forests.sample_component_sizes):
            with pytest.raises(ValueError, match=rf"^n must be an int >= 1, got {re.escape(repr(n))}$"):
                sample(n, rng=rng)
        assert rng.getstate() == state

    def test_past_the_forest_total_cap_is_refused_before_any_draw(self):
        rng = random.Random(0)
        state = rng.getstate()
        n = forests.FOREST_TOTAL_MAX_N + 1
        for sample in (forests.sample_forest, forests.sample_component_sizes):
            with pytest.raises(tk.CapacityError, match=rf"^sampling capped at n={n - 1}$"):
                sample(n, rng=rng)
        assert rng.getstate() == state

    def test_component_sizes_match_forest_stage(self):
        # Both samplers draw the size of vertex 1's component first, so on
        # the same seed that size agrees.  Later sizes need not agree:
        # sample_forest draws companions and a tree between size draws.
        for seed in range(20):
            sizes = fl.sample_component_sizes(9, seed=seed)
            assert sum(sizes) == 9 and all(m >= 1 for m in sizes)
            forest = fl.sample_forest(9, seed=seed)
            anchor = next(c for c in forest.components() if 1 in c)
            assert sizes[0] == len(anchor)

    def test_anchor_draw_matches_cumulative_bisection(self):
        # walking the suffix sums down from m = s picks the m that
        # bisect_right over the increasing cumulative weights would
        class Fixed:
            def randrange(self, stop):
                return self.r

        rng = Fixed()
        for s in range(1, 8):
            cum = list(
                itertools.accumulate(
                    math.comb(s - 1, m - 1) * fl.labeled_tree_count(m) * fl.forest_total(s - m)
                    for m in range(1, s + 1)
                )
            )
            assert cum[-1] == fl.forest_total(s)
            for r in range(cum[-1]):
                rng.r = r
                assert forests._draw_anchor_size(s, rng) == bisect.bisect_right(cum, r) + 1

    def test_anchor_draw_boundaries_match_the_walk(self):
        # a draw below forest_total(s - 1), the weight of m = 1, picks 1 at
        # once; at and past it the walk picks the same m as the full walk
        class Fixed:
            def randrange(self, stop):
                return self.r

        rng = Fixed()
        for s in range(1, 301):
            below, total = fl.forest_total(s - 1), fl.forest_total(s)
            for r in {0, below - 1, below, below + 1, total - 1}:
                if 0 <= r < total:
                    rng.r = r
                    m = forests._draw_anchor_size(s, rng)
                    assert m == oracles._anchor_size_walk(s, rng, fl.forest_total), (s, r)
                    assert (m == 1) == (r < below)

    def test_prufer_decoder_matches_heap_decoder(self):
        def check(seq, m):
            degree = [1] * m
            for x in seq:
                degree[x] += 1
            labels = [10 * v + 3 for v in range(m)]
            want = [(labels[min(e)], labels[max(e)]) for e in oracles.prufer_edges_heap(seq, m)]
            assert forests._prufer_edges(seq, degree, labels) == want

        for m in range(3, 8):  # every sequence: 18,247 in all
            for seq in itertools.product(range(m), repeat=m - 2):
                check(seq, m)
        rng = random.Random(5)
        for _ in range(2000):
            m = rng.randrange(3, 400)
            check([rng.randrange(m) for _ in range(m - 2)], m)

    @pytest.mark.parametrize("m", [3, 4, 5, 8, 9, 17, 64, 65, 299, 1000])
    def test_tree_draws_are_randrange_draws(self, m):
        ours, ref = random.Random(m), random.Random(m)
        for _ in range(5):
            seq = [ref.randrange(m) for _ in range(m - 2)]
            want = [(10 * min(e), 10 * max(e)) for e in oracles.prufer_edges_heap(seq, m)]
            assert forests._random_tree([10 * v for v in range(m)], ours) == want
            assert ours.getstate() == ref.getstate()

    # rng.sample keeps a pool while n <= 21 + 4**ceil(log4(3k)) (k > 5),
    # else a set: (298, 299), (21, 85) and (6, 22) take the pool, (3, 299),
    # (21, 86) and (5, 22) the set
    @pytest.mark.parametrize("k, n", [(298, 299), (299, 299), (21, 85), (6, 22), (0, 5),
                                      (3, 299), (21, 86), (5, 22), (40, 2000)])
    def test_companion_draws_are_rng_sample_draws(self, k, n):
        # the companions left out are the population minus rng.sample's picks
        population = [10 * v for v in range(n)]
        for seed in range(5):
            ours, ref = random.Random(seed), random.Random(seed)
            left = forests._left_out(population, k, ours)
            assert sorted(left) == sorted(set(population) - set(ref.sample(population, k)))
            assert ours.getstate() == ref.getstate()
        assert population == [10 * v for v in range(n)]

    @pytest.mark.parametrize("n", [*range(1, 41), 64, 65, 299, 300, 1000])
    def test_sample_forest_matches_reference_sampler(self, n):
        # the one-pass sampler against its first composition, forest by
        # forest on one stream: the same edges and the same rng state
        for seed in range(20):
            ours, ref = random.Random(seed), random.Random(seed)
            for _ in range(3):
                edges = forests.sample_forest(n, rng=ours).edges
                assert edges == oracles.sample_forest_reference(n, ref, fl.forest_total)
                assert ours.getstate() == ref.getstate()

    def test_small_n_distribution(self):
        # n=2: the two forests are equally likely
        rng = random.Random(0)
        hits = sum(1 for _ in range(4000) if fl.sample_forest(2, rng=rng).is_connected)
        assert abs(hits / 4000 - 0.5) < 0.03

    def test_n3_all_forests_reached_uniformly(self):
        rng = random.Random(1)
        counts = {}
        trials = 7000
        for _ in range(trials):
            f = fl.sample_forest(3, rng=rng)
            counts[f.edges] = counts.get(f.edges, 0) + 1
        assert len(counts) == 7
        for c in counts.values():
            assert abs(c - trials / 7) < 5 * math.sqrt(trials / 7)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestPinnedOutputs:
    # sha256 of repr(...) of fixed-seed samples, counts and a closure; a
    # change here changes every seeded report built from these paths

    def test_sample_forest_stream(self):
        rng = random.Random(1)
        value = [sorted(fl.sample_forest(300, rng=rng).edges) for _ in range(400)]
        assert _digest(value) == "ee238843025ddfa9ba86e44c6490271bc28206dc701522bf300c4279643fb4e7"

    def test_component_size_stream(self):
        rng = random.Random(7)
        value = [fl.sample_component_sizes(200, rng=rng) for _ in range(1000)]
        assert _digest(value) == "738b61a9245516e61e78b9ed8f65f4d281291f044e0f6e8921f75791cb29590a"

    def test_forest_counts(self):
        value = [fl.forest_count(n, k) for n in range(1, 41) for k in range(1, n + 1)]
        assert _digest(value) == "440accb860d31a436938f5641ce419eb2b08bf28ced2e1bfd3392bdd90e191d0"

    def test_forest_totals(self):
        value = [fl.forest_total(n) for n in range(0, 301)]
        assert _digest(value) == "6a39a69932b797d07da72acecf1bd367ab4cef182eb86465c32032b89c283c6a"

    def test_random_closure(self):
        cls = fl.random_closure(6, seed=3)
        assert len(cls) == 999
        value = sorted(f.sort_key() for f in cls.members)
        assert _digest(value) == "41707dc5cc1eeb065b26e658770277434eac59112258720753687ea0a0866fc1"

    def test_bridge_addable_witness(self):
        # with the 4-edge forests through (1, 2) gone, the first member in
        # sort order with a bridge out of the class is the star on 1..4 at
        # vertex 1, and its first bridge is (1, 5)
        members = [
            f for f in fl.all_forests(5).members
            if not (len(f.edges) == 4 and (1, 2) in f.edges)
        ]
        chk = fl.is_bridge_addable(fl.ForestClass(5, members))
        assert not chk.ok
        assert sorted(chk.witness_forest.edges) == [(1, 2), (1, 3), (1, 4)]
        assert chk.witness_edge == (1, 5)


class TestPendantTree:
    # the pendant tree of each edge from the reference in `oracles`, and the
    # package's pendant statistics, which count those trees over t0
    @staticmethod
    def _check_alpha(g):
        catalog = tk.Catalog.standard(g.n, 1)  # every pendant tree is in t0
        codes = [oracles.pendant_tree(g, e).code for e in g.edges]
        assert _alpha(g, catalog) == tuple(codes.count(t.code) for t in catalog.t0)

    def test_two_path_tie(self):
        g = fl.LabeledForest.make(2, [(1, 2)])
        p = oracles.pendant_tree(g, (1, 2))
        assert p.code == "()"
        self._check_alpha(g)

    def test_path3_strict(self):
        g = fl.LabeledForest.make(3, [(1, 2), (2, 3)])
        assert oracles.pendant_tree(g, (2, 3)).code == "()"
        assert oracles.pendant_tree(g, (1, 2)).code == "()"
        self._check_alpha(g)

    def test_star_center1(self):
        g = fl.LabeledForest.make(4, [(1, 2), (1, 3), (1, 4)])
        for e in g.edges:
            assert oracles.pendant_tree(g, e).code == "()"
        self._check_alpha(g)

    def test_tie_rooted_shape_depends_on_anchor_side(self):
        # 6 vertices, edge (3,4) splits into a star half and a path half;
        # the pendant side is the one holding vertex 1
        star_half = [(1, 2), (1, 3)]
        path_half = [(4, 5), (5, 6)]
        g = fl.LabeledForest.make(6, star_half + path_half + [(3, 4)])
        p = oracles.pendant_tree(g, (3, 4))
        expected = tk.canonicalize_rooted(star_half, root=3)
        assert p == expected
        self._check_alpha(g)
        # halves of different rooted shapes: a star on 1..4 hung from 4 and
        # a path on 5..8 hung from 5, then relabeled v -> 9 - v, which puts
        # vertex 1 in the path
        star, path = [(1, 2), (1, 3), (1, 4)], [(5, 6), (6, 7), (7, 8)]
        g = fl.LabeledForest.make(8, star + path + [(4, 5)])
        assert oracles.pendant_tree(g, (4, 5)) == tk.canonicalize_rooted(star, root=4)
        self._check_alpha(g)
        g = fl.LabeledForest.make(8, [(9 - u, 9 - v) for u, v in g.edges])
        assert oracles.pendant_tree(g, (4, 5)) == tk.canonicalize_rooted(path, root=5)
        self._check_alpha(g)

    def test_errors(self):
        g = fl.LabeledForest.make(3, [(1, 2)])
        with pytest.raises(ValueError):
            oracles.pendant_tree(g, (1, 2))  # not connected
        g2 = fl.LabeledForest.make(3, [(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            oracles.pendant_tree(g2, (1, 3))


class TestPendantStats:
    def test_path3(self, cat21):
        g = fl.LabeledForest.make(3, [(1, 2), (2, 3)])
        counts = _alpha_counts(g, cat21)
        assert counts["()"] == 2
        assert counts["(())"] == 0

    def test_single_vertex(self, cat21):
        g = fl.LabeledForest.make(1, [])
        assert _alpha(g, cat21) == (0, 0)

    def test_star4_center1(self, cat32):
        g = fl.LabeledForest.make(4, [(1, 2), (1, 3), (1, 4)])
        assert _alpha_counts(g, cat32)["()"] == 3

    def test_forest_uses_largest_component(self, cat21):
        g = fl.LabeledForest.make(5, [(2, 3), (3, 4)])
        expected = _alpha(fl.LabeledForest.make(3, [(1, 2), (2, 3)]), cat21)
        assert _alpha(g, cat21) == expected

    def test_sum_bounded(self, cat32):
        for f in fl.all_forests(5):
            assert sum(_alpha(f, cat32)) <= 4


class TestClasses:
    def test_all_forests_bridge_addable(self):
        assert fl.is_bridge_addable(fl.all_forests(4)).ok

    @pytest.mark.parametrize("n", [0, True, 2.5, "3"])
    def test_bad_n_is_refused_for_both_kinds_of_class(self, n):
        message = rf"^n must be an int >= 1, got {re.escape(repr(n))}$"
        with pytest.raises(ValueError, match=message):
            fl.all_forests(n)
        with pytest.raises(ValueError, match=message):
            fl.ForestClass(n, [])

    def test_singleton_not_bridge_addable(self):
        empty = fl.LabeledForest.make(3, [])
        chk = fl.is_bridge_addable(fl.ForestClass(3, [empty]))
        assert not chk.ok
        assert chk.witness_forest == empty and chk.witness_edge is not None

    def test_closure_of_empty_forest_is_everything(self):
        empty = fl.LabeledForest.make(3, [])
        clo = fl.bridge_addable_closure([empty])
        assert len(clo) == 7

    def test_closure_of_spanning_tree_is_itself(self):
        tree = fl.LabeledForest.make(4, [(1, 2), (2, 3), (3, 4)])
        assert len(fl.bridge_addable_closure([tree])) == 1

    def test_closures_are_bridge_addable(self):
        for seed in range(4):
            cls = fl.random_closure(5, seed=seed)
            assert fl.is_bridge_addable(cls).ok

    def test_mixed_n_rejected(self):
        with pytest.raises(ValueError):
            fl.bridge_addable_closure(
                [fl.LabeledForest.make(3, []), fl.LabeledForest.make(4, [])]
            )

    def test_file_with_a_repeated_edge_is_refused(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"n": 3, "forests": [[[1, 2], [2, 1]]]}')
        with pytest.raises(ValueError, match=r"^class file .*dup\.json: edge \(1, 2\) is given twice$"):
            fl.load_class(path)

    def test_explicit_classes_stop_past_the_cap(self, cat32):
        n = fl.EXPLICIT_MAX_N
        path = fl.LabeledForest.make(n, [(v, v + 1) for v in range(1, n)])
        rep = fl.verify_local_double_counting(fl.ForestClass(n, [path]), cat32)
        assert rep.ok and rep.boxes_checked == 0  # a tree class has no two-component mass
        with pytest.raises(fl.CapacityError, match=rf"^explicit forest classes are capped at n={n}$"):
            fl.ForestClass(n + 1, [fl.LabeledForest.make(n + 1, [])])

    def test_file_round_trip(self, tmp_path):
        cls = fl.random_closure(4, seed=9)
        path = tmp_path / "class.json"
        oracles.save_class(cls, path)
        loaded = fl.load_class(path)
        assert loaded.n == cls.n and loaded.members == cls.members


class TestHistogram:
    def test_all_forests_3(self, cat21):
        hist = fl.all_forests(3).histogram(cat21)
        assert hist.component_counts == {1: 3, 2: 3, 3: 1}

    def test_all_forests_4_two_components(self, cat21):
        hist = fl.all_forests(4).histogram(cat21)
        assert hist.component_counts[2] == 15

    def test_n2_b_star(self, cat21):
        hist = fl.all_forests(2).histogram(cat21)
        assert hist.b_totals == {"()": 1}

    def test_n4_smallest_component_split(self, cat21):
        # 12 of the 15 two-component forests have a singleton small side;
        # the three 2+2 splits have small component = the edge holding 1
        hist = fl.all_forests(4).histogram(cat21)
        assert hist.b_totals == {"()": 12, "(())": 3}

    def test_box_counting(self, cat21):
        hist = fl.all_forests(4).histogram(cat21)
        d = len(cat21.t0)
        box = fl.Box(lower=(0,) * d, width=4, q=cat21.q_star)
        assert hist.box_counts(box, ["()", "(())"]) == (16, {"()": 12, "(())": 3})


class TestBox:
    def test_membership_half_open(self):
        box = fl.Box(lower=(1, 0), width=2, q=1)
        assert box.contains((1, 0)) and box.contains((2, 1))
        assert not box.contains((3, 0)) and not box.contains((0, 0))
        assert box.contains((0, 0), margin=1) and box.contains((3, 2), margin=1)
        assert not box.contains((4, 0), margin=1) and not box.contains((1, 3), margin=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            fl.Box(lower=(0,), width=0, q=0)
        with pytest.raises(ValueError):
            fl.Box(lower=(-1,), width=1, q=0)


class TestRatioWeights:
    def test_n3_single_vertex_weight(self, cat21):
        c3 = fl.all_forests(3)
        d = len(cat21.t0)
        box = fl.Box(lower=(0,) * d, width=3, q=cat21.q_star)
        z = fl.ratio_weights(c3, cat21, box)
        assert z["()"] == Fraction(2, 3)

    def test_n4_single_vertex_weight(self, cat21):
        # B^(single vertex) = 12 (the 2+2 splits have a 2-path small side),
        # A = 16, so z = (12/16)(3/4) = 9/16
        c4 = fl.all_forests(4)
        d = len(cat21.t0)
        box = fl.Box(lower=(0,) * d, width=4, q=cat21.q_star)
        z = fl.ratio_weights(c4, cat21, box)
        assert z["()"] == Fraction(9, 16)

    def test_zero_convention(self, cat21):
        tree = fl.LabeledForest.make(3, [(1, 2), (2, 3)])
        cls = fl.ForestClass(3, [tree])
        d = len(cat21.t0)
        box = fl.Box(lower=(0,) * d, width=3, q=cat21.q_star)
        z = fl.ratio_weights(cls, cat21, box)
        assert all(v == 0 for _, v in z.entries)

    def test_box_of_the_wrong_dimension_is_refused(self, cat32):
        # the zip in Box.contains would drop the alpha's extra coordinates
        c6 = fl.all_forests(6)
        z = fl.ratio_weights(c6, cat32, fl.Box(lower=(2, 2, 0, 0), width=1, q=cat32.q_star))
        assert z["(())"] == 0
        with pytest.raises(ValueError, match=r"^box has 1 coordinates, the catalog's t0 has 4$"):
            fl.ratio_weights(c6, cat32, fl.Box(lower=(2,), width=1, q=cat32.q_star))

    def test_violation_detected(self, cat21):
        # a class with a 2-component member and no connected members
        f = fl.LabeledForest.make(3, [(1, 2)])
        cls = fl.ForestClass(3, [f])
        d = len(cat21.t0)
        box = fl.Box(lower=(0,) * d, width=3, q=cat21.q_star)
        with pytest.raises(fl.BridgeAddabilityViolation):
            fl.ratio_weights(cls, cat21, box)


class TestSimpleCounting:
    def test_all_forests_4(self):
        rep = fl.verify_simple_counting(fl.all_forests(4))
        assert rep.ok
        assert rep.comparisons[0] == (1, 15, 16)

    def test_all_forests_3_ratios(self):
        rep = fl.verify_simple_counting(fl.all_forests(3))
        assert rep.ok
        assert rep.ratios[0] == 1 and rep.ratios[1] == Fraction(1, 3)

    def test_rejects_non_bridge_addable(self):
        cls = fl.ForestClass(3, [fl.LabeledForest.make(3, [])])
        with pytest.raises(ValueError):
            fl.verify_simple_counting(cls)


class TestWidthBound:
    # a width below 1 leaves no box to check; it is refused rather than
    # reported as a pass
    def test_box_checks_refuse_width_zero(self, cat21):
        c4 = fl.all_forests(4)
        for check in (fl.verify_local_double_counting, fl.verify_weight_sum_bound):
            with pytest.raises(ValueError, match="width"):
                check(c4, cat21, w=0)
        with pytest.raises(ValueError, match="width"):
            fl.boxing_search(c4, cat21, w=0, epsilon=0.5)


class TestLocalDoubleCounting:
    def test_all_forests_5_sweep(self, cat32):
        rep = fl.verify_local_double_counting(fl.all_forests(5), cat32, w=1)
        assert rep.ok and rep.boxes_checked > 0 and not rep.failures

    def test_degenerate_rows_present(self, cat32):
        rows = fl._admissible_splits(cat32)
        kinds = {r[0] for r in rows}
        assert kinds == {"split", "degenerate"}

    def test_random_closures(self, cat32):
        for seed in range(3):
            cls = fl.random_closure(5, seed=seed)
            rep = fl.verify_local_double_counting(cls, cat32, w=1)
            assert rep.ok, cls.provenance


class TestWeightSumBound:
    def test_all_forests_7_small_catalog(self, cat21):
        rep = fl.verify_weight_sum_bound(fl.all_forests(7), cat21, w=1)
        assert rep.ok and not rep.failures

    def test_all_forests_6(self, cat32):
        rep = fl.verify_weight_sum_bound(fl.all_forests(6), cat32, w=1)
        assert rep.ok

    def test_constant_value(self, cat32):
        rep = fl.verify_weight_sum_bound(fl.all_forests(5), cat32, w=1)
        # (w+q)(2 t_max)^(t_max-1) |t0| = 3 * 6^2 * 4
        assert rep.bound_constant == 432

    def test_zero_weights_trivial(self, cat21):
        tree = fl.LabeledForest.make(4, [(1, 2), (2, 3), (3, 4)])
        cls = fl.ForestClass(4, [tree])
        cls._bridge_addable = True
        rep = fl.verify_weight_sum_bound(cls, cat21, w=1)
        assert rep.ok


class TestBoxingSearch:
    def test_empty_b_trivial(self, cat21):
        tree = fl.LabeledForest.make(4, [(1, 2), (2, 3), (3, 4)])
        cls = fl.ForestClass(4, [tree])
        cls._bridge_addable = True
        rep = fl.boxing_search(cls, cat21, w=2, epsilon=0.5)
        assert rep.ok

    def test_wide_box_full_capture(self, cat21):
        rep = fl.boxing_search(fl.all_forests(6), cat21, w=6, epsilon=0.01)
        assert rep.ok and rep.min_fraction == 1.0

    def test_spec_scale_example(self, cat21):
        rep = fl.boxing_search(fl.all_forests(7), cat21, w=2, epsilon=0.5)
        assert rep.ok
        assert rep.min_fraction >= 0.5
        # returned boxes pairwise far apart: neighborhoods disjoint
        for i, b1 in enumerate(rep.boxes):
            for b2 in rep.boxes[i + 1 :]:
                assert any(
                    abs(a - b) >= b1.width + 2 * b1.q
                    for a, b in zip(b1.lower, b2.lower)
                )

    def test_capture_accounting(self, cat21):
        rep = fl.boxing_search(fl.all_forests(6), cat21, w=2, epsilon=0.5)
        for code, (got, total) in rep.capture.items():
            assert 0 <= got <= total

    @staticmethod
    def search(monkeypatch, catalog, n, b_alpha, w, epsilon):
        """boxing_search on a class of n vertices whose histogram is b_alpha."""
        hist = fl.ClassHistogram(n=n, size=0, component_counts={}, a_alpha={}, b_alpha=b_alpha)
        monkeypatch.setattr(fl, "_box_setup", lambda c, cat, w: (cat.q_star, hist))
        return fl.boxing_search(types.SimpleNamespace(n=n), catalog, w=w, epsilon=epsilon)

    def test_capture_of_exactly_one_minus_epsilon_is_enough(self, cat21, monkeypatch):
        # 41 of 50 members in one box and 9 a box width away (w = 2 <= 2q):
        # no shift captures both, so the best capture is 41/50 = 1 - 0.18,
        # which the float test 41/50 >= 1.0 - 0.18 (0.8200000000000001) missed
        b_alpha = {"()": {(4, 4): 41, (6, 4): 9}}
        rep = self.search(monkeypatch, cat21, 8, b_alpha, w=2, epsilon=0.18)
        assert rep.ok and rep.capture == {"()": (41, 50)} and rep.min_fraction == 0.82
        assert not self.search(monkeypatch, cat21, 8, b_alpha, w=2, epsilon=0.17).ok

    def test_guarantee_at_equality(self, cat21, monkeypatch):
        # at n = 15, w = 4, q = 1, d = 2: 1 - (1 - 6/15)^2 / (1 + 2/4)^2 is
        # exactly 21/25 = 0.84, which float powers put above 0.84
        assert (cat21.q_star, len(cat21.t0), len(cat21.u0)) == (1, 2, 1)
        assert self.search(monkeypatch, cat21, 15, {}, w=4, epsilon=0.84).guarantee_applies
        assert not self.search(monkeypatch, cat21, 15, {}, w=4, epsilon=0.83).guarantee_applies
