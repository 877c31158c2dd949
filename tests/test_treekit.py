import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from bridgeforest import treekit as tk
from bridgeforest import weights

import oracles


def rooted_counts(k):
    out = {}
    for t in tk.enumerate_rooted(k):
        out[t.size] = out.get(t.size, 0) + 1
    return [out.get(s, 0) for s in range(1, k + 1)]


def unrooted_counts(k):
    out = {}
    for u in tk.enumerate_unrooted(k):
        out[u.size] = out.get(u.size, 0) + 1
    return [out.get(s, 0) for s in range(1, k + 1)]


def digest(trees):
    """sha256 over the repr of each tree's field tuple, in order."""
    h = hashlib.sha256()
    for t in trees:
        h.update(repr(tuple(getattr(t, f) for f in t.__dataclass_fields__)).encode())
    return h.hexdigest()


# Pinned from an independent generator that grew each rooted tree one leaf
# at a time: the fields, values and order of both enumerations.
ENUMERATION_DIGESTS = {
    12: (
        "142ec132d4ba600b9d8e1a8d13ec3a6f1aee6f5ed0d3c5b52545e50676b6fc45",
        "a925a68a7d9eaa686417dc8f266cebaa4309d19c065574cc37214ee7aac4278d",
    ),
    14: (
        "06cace38947e92530dafc012c2a90513a420c4b811579483b5e908ece744d003",
        "b5dae3a944f78bec8ce185b3e1c3644af743a88dc62c81b3071571965adfdd49",
    ),
}


class TestCanonicalizeRooted:
    def test_single_vertex(self):
        t = tk.canonicalize_rooted([], root=5)
        assert t.code == "()" and t.size == 1 and t.aut_r == 1

    def test_star3_center(self):
        t = tk.canonicalize_rooted([(1, 2), (1, 3)], root=1)
        assert t.aut_r == 2

    def test_star4_center(self):
        t = tk.canonicalize_rooted([(1, 2), (1, 3), (1, 4)], root=1)
        assert t.aut_r == 6

    def test_isomorphic_inputs_same_code(self):
        a = tk.canonicalize_rooted([(10, 20), (20, 30)], root=10)
        b = tk.canonicalize_rooted([(7, 1), (1, 9)], root=9)
        assert a == b

    def test_children_sorted_non_increasing(self):
        # root with a leaf child and a path child serializes leaf first
        t = tk.canonicalize_rooted([(1, 2), (1, 3), (3, 4)], root=1)
        assert t.code == "(()((≡)))".replace("≡", "")  # "(()(()))"

    def test_rejects_cycle(self):
        with pytest.raises(tk.NonTreeError):
            tk.canonicalize_rooted([(1, 2), (2, 3), (1, 3)], root=1)

    def test_rejects_disconnected(self):
        with pytest.raises(tk.NonTreeError):
            tk.canonicalize_rooted([(1, 2), (3, 4), (2, 3), (1, 4)], root=1)

    def test_rejects_missing_root(self):
        with pytest.raises(tk.NonTreeError):
            tk.canonicalize_rooted([(1, 2)], root=9)

    def test_missing_root_is_named(self):
        with pytest.raises(tk.NonTreeError, match=r"^root 5 is not a vertex of the input$"):
            tk.canonicalize_rooted([(1, 2)], root=5)


class TestCanonicalizeUnrooted:
    def test_path2(self):
        u = tk.canonicalize_unrooted([(1, 2)])
        assert u.aut_u == 2 and u.centroid_kind == "two-centroid"

    def test_path4(self):
        u = tk.canonicalize_unrooted([(1, 2), (2, 3), (3, 4)])
        assert u.aut_u == 2 and u.centroid_kind == "two-centroid"

    def test_star4(self):
        u = tk.canonicalize_unrooted([(1, 2), (1, 3), (1, 4)])
        assert u.aut_u == 6 and u.centroid_kind == "one-centroid"

    def test_single_vertex_via_vertices(self):
        u = tk.canonicalize_unrooted([], vertices=[3])
        assert u.code == "()" and u.aut_u == 1

    def test_equality_matches_isomorphism(self):
        a = tk.canonicalize_unrooted([(1, 2), (2, 3), (2, 4)])
        b = tk.canonicalize_unrooted([(9, 7), (7, 8), (7, 6)])
        c = tk.canonicalize_unrooted([(1, 2), (2, 3), (3, 4)])
        assert a == b and a != c


class TestEnumeration:
    def test_rooted_counts_small(self):
        assert rooted_counts(6) == [1, 1, 2, 4, 9, 20]

    def test_unrooted_counts_small(self):
        assert unrooted_counts(7) == [1, 1, 1, 2, 3, 6, 11]

    def test_size_one(self):
        assert [t.code for t in tk.enumerate_rooted(1)] == ["()"]
        assert [u.code for u in tk.enumerate_unrooted(1)] == ["()"]

    def test_capacity_error(self):
        with pytest.raises(tk.CapacityError):
            tk.enumerate_rooted(17)

    def test_counts_match_recurrence_oracle(self):
        assert rooted_counts(10) == [oracles.rooted_tree_count(s) for s in range(1, 11)]
        assert unrooted_counts(10) == [oracles.unrooted_tree_count(s) for s in range(1, 11)]

    def test_deterministic_order(self):
        first = [t.code for t in tk.enumerate_rooted(6)]
        second = [t.code for t in tk.enumerate_rooted(6)]
        assert first == second
        sizes = [t.size for t in tk.enumerate_rooted(6)]
        assert sizes == sorted(sizes)

    @pytest.mark.parametrize("k", sorted(ENUMERATION_DIGESTS))
    def test_pinned_digests(self, k):
        rooted, unrooted = ENUMERATION_DIGESTS[k]
        assert digest(tk.enumerate_rooted(k)) == rooted
        assert digest(tk.enumerate_unrooted(k)) == unrooted

    def test_codes_and_auts_match_labeled_trees(self):
        # the codes of all labeled trees on n vertices are exactly the
        # enumerated ones, and by orbit-stabilizer each unrooted code is hit
        # n!/aut_u times, each rooted code (rooted at vertex 0) (n-1)!/aut_r
        for n in range(1, 8):
            rooted: dict[str, int] = {}
            unrooted: dict[str, int] = {}
            for edges in oracles.all_labeled_trees(n):
                adj = oracles.adjacency_from_edges(edges, n)
                code = tk._encode(adj, 0)[0]
                rooted[code] = rooted.get(code, 0) + 1
                code = tk._unrooted_from_adj(adj).code
                unrooted[code] = unrooted.get(code, 0) + 1
            nf = math.factorial(n)
            assert rooted == {
                t.code: nf // n // t.aut_r for t in tk.enumerate_rooted(n) if t.size == n
            }
            assert unrooted == {
                u.code: nf // u.aut_u for u in tk.enumerate_unrooted(n) if u.size == n
            }

    def test_prufer_roundtrip_random_large(self):
        # seeded samples at sizes where full enumeration is too slow:
        # every rooting of every sampled labeled tree canonicalizes into
        # the enumerated set
        rng = random.Random(2024)
        for n in (8, 9):
            expected = {t.code for t in tk.enumerate_rooted(n) if t.size == n}
            for _ in range(800):
                seq = [rng.randrange(n) for _ in range(n - 2)]
                edges = [(u + 1, v + 1) for u, v in oracles.prufer_edges(seq, n)]
                for root in range(1, n + 1):
                    assert tk.canonicalize_rooted(edges, root).code in expected

    def test_prufer_roundtrip_small(self):
        # every labeled tree canonicalizes into the enumerated set, and the
        # distinct codes exhaust it
        for n in range(1, 7):
            expected = {t.code for t in tk.enumerate_rooted(n) if t.size == n}
            seen_rooted = set()
            seen_unrooted = set()
            expected_u = {u.code for u in tk.enumerate_unrooted(n) if u.size == n}
            for edges in oracles.all_labeled_trees(n):
                shifted = [(u + 1, v + 1) for u, v in edges]
                for root in range(1, n + 1):
                    seen_rooted.add(tk.canonicalize_rooted(shifted, root).code)
                seen_unrooted.add(tk.canonicalize_unrooted(shifted, vertices=range(1, n + 1)).code)
            assert seen_rooted == expected
            assert seen_unrooted == expected_u


class TestAutomorphismCounts:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_rooted_formula_vs_brute_force(self, n):
        for t in tk.enumerate_rooted(n):
            if t.size != n:
                continue
            adj = tk.code_to_adjacency(t.code)
            assert t.aut_r == oracles.brute_force_aut_rooted(adj, 0), t.code

    @pytest.mark.parametrize("n", range(1, 8))
    def test_unrooted_formula_vs_brute_force(self, n):
        for u in tk.enumerate_unrooted(n):
            if u.size != n:
                continue
            adj = tk.code_to_adjacency(u.code)
            assert u.aut_u == oracles.brute_force_aut_unrooted(adj), u.code


class TestSplits:
    def test_three_path_end_split(self):
        p3 = tk.canonicalize_rooted([(1, 2), (2, 3)], root=1)
        by_pendant = {s.u_plus.size: s for s in tk.splits(p3)}
        far = by_pendant[1]
        assert far.t_minus.size == 2 and far.m_edge == 1
        assert far.m_vminus == 1 and far.n_vplus == 1

    def test_star4_center_leaf_orbit(self):
        s4 = tk.canonicalize_rooted([(1, 2), (1, 3), (1, 4)], root=1)
        (split,) = tk.splits(s4)
        assert split.m_edge == 3
        assert split.t_minus.aut_r == 2 and split.u_plus.size == 1
        assert split.m_vminus == 1 and split.n_vplus == 1

    def test_path4_three_singleton_orbits(self):
        p4 = tk.canonicalize_rooted([(1, 2), (2, 3), (3, 4)], root=1)
        assert [s.m_edge for s in tk.splits(p4)] == [1, 1, 1]

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            tk.splits(tk.RootedTreeCode("()", 1, 1))

    def test_orbit_sizes_sum_to_edge_count(self):
        for t in tk.enumerate_rooted(9):
            if t.size < 2:
                continue
            assert sum(s.m_edge for s in tk.splits(t)) == t.size - 1

    def test_size_additivity(self):
        for t in tk.enumerate_rooted(7):
            if t.size < 2:
                continue
            for s in tk.splits(t):
                assert s.t_minus.size + s.u_plus.size == t.size


class TestAutIdentity:
    def test_three_path(self):
        p3 = tk.canonicalize_rooted([(1, 2), (2, 3)], root=1)
        for s in tk.splits(p3):
            assert tk.verify_aut_identity(s).ok

    def test_star4_values(self):
        s4 = tk.canonicalize_rooted([(1, 2), (1, 3), (1, 4)], root=1)
        (split,) = tk.splits(s4)
        chk = tk.verify_aut_identity(split)
        assert chk.ok and chk.lhs == Fraction(1, 2) == chk.rhs

    def test_exhaustive_up_to_9(self):
        for t in tk.enumerate_rooted(9):
            if t.size < 2:
                continue
            for s in tk.splits(t):
                chk = tk.verify_aut_identity(s)
                assert chk.ok, (t.code, s)


class TestAttach:
    def test_vertex_to_vertex(self):
        sv = tk.canonicalize_rooted([], root=1)
        usv = tk.canonicalize_unrooted([], vertices=[1])
        assert tk.attach(sv, 0, usv, 0).code == "(())"

    def test_path2_to_vertex(self):
        sv = tk.canonicalize_rooted([], root=1)
        p2 = tk.canonicalize_unrooted([(1, 2)])
        assert tk.attach(sv, 0, p2, 0).code == "((()))"

    def test_middle_vs_end_of_path3(self):
        p3 = tk.canonicalize_rooted([(1, 2), (2, 3)], root=1)
        usv = tk.canonicalize_unrooted([], vertices=[1])
        star = tk.attach(p3, 1, usv, 0)
        path = tk.attach(p3, 2, usv, 0)
        star_u = tk.canonicalize_unrooted([(1, 2), (2, 3), (2, 4)])
        assert tk._unrooted_from_adj(tk.code_to_adjacency(star.code)).code == star_u.code
        assert path.code == "(((())))"

    def test_index_out_of_range(self):
        sv = tk.canonicalize_rooted([], root=1)
        usv = tk.canonicalize_unrooted([], vertices=[1])
        with pytest.raises(IndexError):
            tk.attach(sv, 1, usv, 0)
        with pytest.raises(IndexError):
            tk.attach(sv, 0, usv, 2)

    def test_attach_inverts_splits(self):
        # reattaching the two sides of any split of a small tree restores
        # the unrooted isomorphism class
        for t in tk.enumerate_rooted(6):
            if t.size < 2:
                continue
            for s in tk.splits(t):
                # find matching attachment by trying all index pairs
                target = tk._unrooted_from_adj(tk.code_to_adjacency(t.code)).code
                found = False
                for vi in range(s.t_minus.size):
                    for ui in range(s.u_plus.size):
                        grown = tk.attach(s.t_minus, vi, s.u_plus, ui)
                        if tk._unrooted_from_adj(tk.code_to_adjacency(grown.code)).code == target:
                            found = True
                            break
                    if found:
                        break
                assert found, (t.code, s)


class TestCayley:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_identities(self, n):
        chk = tk.cayley_identity_check(n)
        assert chk.ok
        assert chk.rooted_sum == n ** (n - 1)
        assert chk.unrooted_sum == (1 if n == 1 else n ** (n - 2))

    def test_example_n3(self):
        chk = tk.cayley_identity_check(3)
        assert chk.rooted_sum == 9 and chk.unrooted_sum == 3


class TestCatalog:
    def test_standard_catalog(self):
        cat = tk.Catalog.standard(3, 2)
        assert len(cat.t0) == 4 and len(cat.u0) == 2
        assert cat.t_max == 3 and cat.u_max == 2 and cat.q_star == 2

    def test_rejects_missing_single_vertex(self):
        p2 = tk.canonicalize_unrooted([(1, 2)])
        with pytest.raises(tk.CatalogError):
            tk.Catalog(tk.enumerate_rooted(2), [p2])

    def test_rejects_non_inclusion_closed(self):
        t0 = [t for t in tk.enumerate_rooted(3) if t.size != 2]
        with pytest.raises(tk.CatalogError):
            tk.Catalog(t0, tk.enumerate_unrooted(1))

    def test_custom_downward_closed_subset(self):
        # single vertex, 2-path, 3-path rooted at an end: closed chain
        chain = [
            tk.canonicalize_rooted([], root=1),
            tk.canonicalize_rooted([(1, 2)], root=1),
            tk.canonicalize_rooted([(1, 2), (2, 3)], root=1),
        ]
        cat = tk.Catalog(chain, tk.enumerate_unrooted(1))
        assert cat.t_max == 3


def _brute_force_orbits(adj, root=None):
    """Orbit of every vertex under the automorphisms (fixing `root`, if
    given), by checking every permutation."""
    n = len(adj)
    edge_set = {(min(u, v), max(u, v)) for u in range(n) for v in adj[u]}
    orbit_of = {v: set() for v in range(n)}
    for perm in itertools.permutations(range(n)):
        if root is not None and perm[root] != root:
            continue
        if all((min(perm[a], perm[b]), max(perm[a], perm[b])) in edge_set for a, b in edge_set):
            for v in range(n):
                orbit_of[v].add(perm[v])
    return orbit_of


def _random_tree(rng, n):
    return [(u + 1, v + 1) for u, v in oracles.prufer_edges(
        [rng.randrange(n) for _ in range(max(0, n - 2))], n)]


class TestMarkedOrbits:
    def test_random_trees_orbit_counts_match_brute_force(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randrange(2, 8)
            adj, _ = tk._build_adjacency(_random_tree(rng, n))
            keys, _ = tk._rooted_vertex_orbit_keys(adj, 0)
            orbit_of = _brute_force_orbits(adj, root=0)
            for v in range(n):
                assert keys.count(keys[v]) == len(orbit_of[v])

    def test_unrooted_orbit_keys_match_brute_force(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randrange(1, 8)
            adj, _ = tk._build_adjacency(_random_tree(rng, n), extra_vertices=[1])
            keys = tk._reroot(adj)[2]
            orbit_of = _brute_force_orbits(adj)
            for v in range(n):
                assert {u for u in range(n) if keys[u] == keys[v]} == orbit_of[v]

    def test_keys_partition_like_marked_codes(self):
        # the orbit keys split the vertices exactly as the marked codes of
        # the first coding scheme do, on every labeled tree with n <= 6
        for n in range(1, 7):
            for edges in oracles.all_labeled_trees(n):
                adj = oracles.adjacency_from_edges(edges, n)
                for keys, marked in (
                    (tk._rooted_vertex_orbit_keys(adj, 0)[0],
                     [oracles.rooted_marked_code(adj, 0, v) for v in range(n)]),
                    (tk._reroot(adj)[2],
                     [oracles.unrooted_marked_code(adj, v) for v in range(n)]),
                ):
                    assert [keys.index(k) for k in keys] == [marked.index(m) for m in marked]


def test_orbit_record_holds_its_free_tree():
    for u in tk.enumerate_unrooted(11):
        assert tk._orbits(u.code)[0] == u


def test_every_pinned_rooted_code_decodes_to_itself():
    for t in tk.enumerate_rooted(12):
        assert tk._rooted_from_adj(tk.code_to_adjacency(t.code), 0) == t


@pytest.mark.parametrize("code", ["()()", "(())()"])
def test_code_with_two_top_level_blocks_is_refused(code):
    with pytest.raises(ValueError, match="unbalanced code"):
        tk.code_to_adjacency(code)
    catalog = tk.Catalog.standard(2, 2)
    with pytest.raises(ValueError, match="unbalanced code"):
        weights.max_weight(code, weights.WeightVector.zero(catalog), catalog)
    with pytest.raises(ValueError, match="unbalanced code"):
        weights._profiles(catalog.u0, 4).index(code)


def _one_block(s):
    """Whether s is one balanced block of parentheses, by depth counts."""
    depths = list(itertools.accumulate(1 if ch == "(" else -1 for ch in s))
    return set(s) <= set("()") and depths[-1] == 0 and min(depths[:-1], default=1) > 0


def test_blocks_match_code_parents():
    # every rooted tree with at most 10 vertices, and every T- code (mostly
    # not canonical) that splits cuts from the rooted trees on at most 8
    codes = [t.code for t in tk.enumerate_rooted(10)]
    for t in tk.enumerate_rooted(8):
        opens = [j for j, ch in enumerate(t.code) if ch == "("]
        for j in opens[1:]:
            e = next(e for e in range(j + 2, len(t.code) + 1, 2) if _one_block(t.code[j:e]))
            codes.append(t.code[:j] + t.code[e:])
    for code in codes:
        parent, start, end = tk._blocks(code)
        assert parent == oracles.code_parents(code)
        assert start == [j for j, ch in enumerate(code) if ch == "("]
        assert all(_one_block(code[s:e]) for s, e in zip(start, end))


def test_blocks_refuse_every_other_string():
    for n in range(7):
        for chars in itertools.product("()x", repeat=n):
            s = "".join(chars)
            if not (s and _one_block(s)):
                with pytest.raises(ValueError, match=None if "x" in s else "unbalanced code"):
                    tk._blocks(s)


def test_orbit_record_matches_brute_force():
    # each orbit's first preorder index and size in the canonical
    # representative, on every free tree with at most 7 vertices
    for u in tk.enumerate_unrooted(7):
        adj = tk.code_to_adjacency(u.code)
        orbits = {frozenset(o) for o in _brute_force_orbits(adj).values()}
        record = tk._orbits(u.code)[1]
        assert sorted(record.values()) == sorted((min(o), len(o)) for o in orbits)
        for key, (first, _) in record.items():
            assert tk._encode(adj, first)[0] == key


class TestAgainstFirstCodingScheme:
    def test_unrooted_from_adj_equals_reference(self):
        # every labeled tree with n <= 7, two-centroid trees included
        for n in range(1, 8):
            for edges in oracles.all_labeled_trees(n):
                adj = oracles.adjacency_from_edges(edges, n)
                u = tk._unrooted_from_adj(adj)
                assert (u.code, u.aut_u, u.centroid_kind) == oracles.unrooted_code(adj), edges

    def test_centroids_nearest_and_farthest_from_vertex_0(self):
        # every labeled tree with n <= 7: the rootings at the reference's
        # centroids, the nearer to vertex 0 first, and aut_r at that one
        for n in range(1, 8):
            for edges in oracles.all_labeled_trees(n):
                adj = oracles.adjacency_from_edges(edges, n)
                depth, queue = {0: 0}, [0]
                for v in queue:  # breadth first from vertex 0
                    for u in adj[v]:
                        if u not in depth:
                            depth[u] = depth[v] + 1
                            queue.append(u)
                cents = sorted(oracles.centroids(adj), key=depth.get)
                near, near_aut = oracles.encode(adj, cents[0])
                far = oracles.encode(adj, cents[-1])[0]
                assert tk._centroid_rootings(adj) == (near, far, near_aut, len(cents) == 2), edges


class TestFoldAgainstCentroidPass:
    """The fold's halves against the centroid pass they replaced in
    enumerate_unrooted and forestlab._shape_tally: each fold code decoded
    and its centroids found again."""

    def test_halves_give_the_other_centroid_rooting(self):
        kinds = set()
        for n, _, code, halves in tk.fold_unrooted(14, tk.SINGLE_VERTEX_CODE, tk._hang):
            near, far, _, two = tk._centroid_rootings(tk.code_to_adjacency(code))
            assert (code, tk._hang(*halves) if halves else code) == (near, far), code
            assert (halves is not None) == two and code.count("(") == n, code
            kinds.add(two)
        assert kinds == {False, True}

    def test_enumerate_unrooted_equals_decoded_fold_codes(self):
        for k in range(1, 13):
            codes = [c for _, _, c, _ in tk.fold_unrooted(k, tk.SINGLE_VERTEX_CODE, tk._hang)]
            want = sorted(tk._unrooted_from_adj(tk.code_to_adjacency(c)) for c in codes)
            assert tk.enumerate_unrooted(k) == want, k


def _catalog_error(check, family):
    try:
        check(family)
    except tk.CatalogError as exc:
        return str(exc)
    return None


class TestAgainstEdgeCutByRelabeling:
    """Cuts and joins made by editing code strings, against the first move
    builder, which relabeled each side into a fresh adjacency list."""

    def test_splits_of_every_rooted_tree_up_to_10(self):
        trees = [t for t in tk.enumerate_rooted(10) if t.size >= 2]
        assert len(trees) == 1204
        for t in trees:
            assert tk.splits(t) == oracles.splits_reference(t), t.code

    def test_moves_and_attachments_of_every_free_tree_up_to_11(self):
        trees = tk.enumerate_unrooted(11)
        assert len(trees) == 436
        for u in trees:
            moves, ref = weights._moves(u.code), oracles.moves_reference(u.code)
            assert [m[:2] for m in moves] == [m[:2] for m in ref], u.code
            for move, ref_move in zip(moves, ref):
                assert weights._attachments((move,)) == oracles.attachments_reference(
                    u.code, (ref_move,)
                ), (u.code, move)
            assert weights._attachments(moves) == oracles.attachments_reference(u.code, ref)

    def test_attach_at_every_pair_of_ends(self):
        for t in tk.enumerate_rooted(5):
            for u in tk.enumerate_unrooted(4):
                for vi in range(t.size):
                    for ui in range(u.size):
                        expected = oracles.attach_reference(t, vi, u, ui)
                        assert tk.attach(t, vi, u, ui) == expected, (t.code, vi, u.code, ui)

    def test_inclusion_messages_with_each_tree_left_out(self):
        family = tk.enumerate_rooted(7)
        assert len(family) == 85
        assert _catalog_error(tk.check_inclusion_closed, family) is None
        for i in range(len(family)):
            rest = family[:i] + family[i + 1 :]
            assert _catalog_error(tk.check_inclusion_closed, rest) == _catalog_error(
                oracles.inclusion_closed_reference, rest
            ), family[i].code


class TestProperties:
    def test_codes_equal_iff_isomorphic(self):
        hypothesis = pytest.importorskip("hypothesis")
        nx = pytest.importorskip("networkx")
        st = hypothesis.strategies
        sizes = st.integers(min_value=1, max_value=12)

        @st.composite
        def labeled_trees(draw):
            n = draw(sizes)
            seq = draw(st.lists(st.integers(0, n - 1), min_size=max(0, n - 2), max_size=max(0, n - 2)))
            return n, oracles.prufer_edges(seq, n)

        @hypothesis.settings(max_examples=80, deadline=None, database=None, derandomize=True)
        @hypothesis.given(labeled_trees(), labeled_trees(), st.randoms(use_true_random=False))
        def check(a, b, rng):
            (na, ea), (nb, eb) = a, b
            perm = list(range(na))
            rng.shuffle(perm)
            relabeled = [(perm[u], perm[v]) for u, v in ea]
            code_a = tk.canonicalize_unrooted(ea, vertices=range(na))
            assert tk.canonicalize_unrooted(relabeled, vertices=range(na)) == code_a
            code_b = tk.canonicalize_unrooted(eb, vertices=range(nb))
            ga, gb = nx.empty_graph(na), nx.empty_graph(nb)
            ga.add_edges_from(ea)
            gb.add_edges_from(eb)
            assert (code_a.code == code_b.code) == nx.is_isomorphic(ga, gb)

        check()

    def test_aut_counts_match_brute_force(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
        @hypothesis.given(st.integers(1, 7).flatmap(lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, n - 1), min_size=max(0, n - 2), max_size=max(0, n - 2)),
            st.integers(0, n - 1),
        )))
        def check(drawn):
            n, seq, root = drawn
            edges = oracles.prufer_edges(seq, n)
            adj = oracles.adjacency_from_edges(edges, n)
            assert tk.canonicalize_rooted(edges, root).aut_r == oracles.brute_force_aut_rooted(adj, root)
            u = tk.canonicalize_unrooted(edges, vertices=range(n))
            assert u.aut_u == oracles.brute_force_aut_unrooted(adj)

        check()
