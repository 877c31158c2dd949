"""Differential tests of the free-tree series path against the rooted path.

The partition functions sum over unrooted trees only: treekit.fold_unrooted
visits each unrooted tree once, and weights.layers groups the trees by
decomposition profile.  The reference here is the rooted path that the
free-tree path replaced: every rooted tree from treekit.enumerate_rooted,
valued by the move recursion of weights.MaxWeightTable and weighted by
1/aut_r.  The two agree because the rootings of an unrooted tree U
contribute sum 1/aut_r = |U|/aut_u.
"""

import math
import random
from fractions import Fraction

import pytest

from bridgeforest import treekit as tk
from bridgeforest import weights as wt

import oracles

K_MAX = 12
U_MAXES = (1, 2, 3, 4)
SAMPLES = 3


def random_exact_weights(catalog, seed):
    rng = random.Random(seed)
    return wt.WeightVector.over(
        catalog, {u.code: Fraction(rng.randrange(0, 25), 24) for u in catalog.u0}
    )


def rooted_path_layers(z, k, catalog):
    """Per-size sums of maxweight(T)/aut_r(T) over every rooted tree."""
    table = wt.MaxWeightTable(catalog, z)
    out = [Fraction(0)] * (k + 1)
    for t in tk.enumerate_rooted(k):
        code = tk._unrooted_from_adj(tk.code_to_adjacency(t.code)).code
        out[t.size] += table.value(code) / t.aut_r
    return out


def nested_adjacency(node):
    """Adjacency of a rooted tree given as nested tuples of children."""
    adj = [[]]
    stack = [(node, 0)]
    while stack:
        children, v = stack.pop()
        for child in children:
            w = len(adj)
            adj.append([v])
            adj[v].append(w)
            stack.append((child, w))
    return adj


@pytest.fixture(scope="module", params=U_MAXES, ids=lambda u: f"u_max={u}")
def case(request):
    catalog = tk.Catalog.standard(1, request.param)
    samples = []
    for i in range(SAMPLES):
        z = random_exact_weights(catalog, seed=100 * request.param + i)
        samples.append((z, rooted_path_layers(z, K_MAX, catalog)))
    return catalog, samples


def test_fold_visits_each_unrooted_tree_once_with_its_aut():
    def attach(node, child):
        return tuple(sorted(node + (child,)))

    seen = []
    for size, aut, node, _ in tk.fold_unrooted(K_MAX, (), attach):
        u = tk._unrooted_from_adj(nested_adjacency(node))
        assert u.size == size
        seen.append((u.code, aut))
    assert sorted(seen) == sorted((u.code, u.aut_u) for u in tk.enumerate_unrooted(K_MAX))


def test_rootings_identity_up_to_the_free_tree_limit():
    # sum over unrooted U of size n of n/aut_u(U) is the rooted sum n^(n-1)/n!
    k = tk.FREE_TREE_MAX_SIZE
    sums = dict.fromkeys(range(1, k + 1), Fraction(0))
    counts = dict.fromkeys(range(1, k + 1), 0)
    for n, aut, _, _ in tk.fold_unrooted(k, None, lambda node, child: None):
        sums[n] += Fraction(n, aut)
        counts[n] += 1
    for n in range(1, k + 1):
        assert sums[n] == Fraction(n ** (n - 1), math.factorial(n)), n
        assert counts[n] == oracles.unrooted_tree_count(n), n


def test_capacity():
    with pytest.raises(tk.CapacityError):
        tk.fold_unrooted(tk.FREE_TREE_MAX_SIZE + 1, None, lambda node, child: None)
    with pytest.raises(tk.CapacityError):
        wt.TruncatedSeriesEvaluator(tk.Catalog.standard(1, 1), tk.FREE_TREE_MAX_SIZE + 1)


def test_exact_layers_match_rooted_path(case):
    catalog, samples = case
    for z, ref in samples:
        table = wt.MaxWeightTable(catalog, z)
        unrooted = Fraction(0)
        unrooted_by_size = {}
        for u in tk.enumerate_unrooted(K_MAX):
            unrooted_by_size[u.size] = unrooted_by_size.get(u.size, 0) + table.value(u.code) / u.aut_u
        for k in range(1, K_MAX + 1):
            unrooted += unrooted_by_size[k]
            assert wt.layers(z, k, catalog) == ref[: k + 1]
            assert wt.rooted_series(z, k, catalog) == sum(ref[: k + 1])
            assert wt.unrooted_series(z, k, catalog) == unrooted


def test_evaluator_matches_rooted_path(case):
    catalog, samples = case
    for z, ref in samples:
        table = wt.MaxWeightTable(catalog, z)
        for k in range(catalog.u_max, K_MAX + 1):
            ev = wt.TruncatedSeriesEvaluator(catalog, k)
            om, y = ev.evaluate(z.to_floats())
            assert len(y) == k + 1
            for s in range(1, k + 1):
                assert math.isclose(y[s], float(ref[s]), rel_tol=1e-12, abs_tol=0.0), (k, s)
            for u in tk.enumerate_unrooted(k):
                want = float(table.value(u.code))
                assert math.isclose(om[ev.index(u.code)], want, rel_tol=1e-12, abs_tol=0.0)
