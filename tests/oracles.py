"""Independent oracles used by the tests.

Everything here is deliberately written from scratch rather than imported
from the package: labeled-tree enumeration decodes linear sequence codes
with a plain scan, unlabeled-tree counts come from the classical counting
recurrences (OEIS A000081 / A000055), and automorphism counts come from
explicit permutation checking.  The canonical-code references (`encode`,
`unrooted_code` and the marked codes) keep the package's first coding
scheme: one full re-encode per centroid and per marked vertex.  The
forest-class references (profiles, histograms, bridge-addability,
closures) work on edge frozensets and walk every edge one by one; only the
profiles borrow treekit's canonical codes, which the treekit tests check on
their own.  The forest-count references keep the package's first counting
scheme: the quadratic recurrence on the component of vertex 1, in integers
and in log-space floats.  The scale projection references keep the
optimizer's first two projections: 80 numpy bisection steps
(`scale_to_cap`), and a Horner bisection of [0, 1] run until no float
splits the bracket (`scale_to_cap_bisect`), written out here apart from
the optimizer's shared `_bisect`, whose float the optimizer's projection
must return exactly.  `project_scale` is the optimizer's former
projection of a whole weight vector, exact or float, which no command
calls; it borrows the optimizer's bisections and the package's series
layers.  The float feasibility reference keeps the optimizer's first
float check: the package's float evaluator (passed in) with numpy sums,
reading the u0 slots it checks from the catalog.
`TruncatedSeriesEvaluatorReference` keeps the first float evaluator, a
numpy scan of every (class, count vector) row, and
`layers_reference` the first layered sum, which scans the same rows and
compares exact monomials as (numerator, denominator) pairs by
cross-multiplying; both borrow `weights._profiles`.  `knapsack_floor`
and `grid_maximum` check the optimizer's box search in Fractions over
`layers_reference`: the lower bound on the series that its knapsack cut
uses, and the best closed feasible point of a brute-force grid.  The
report reference keeps the first serializer: project onto plain JSON
types, then `json.dumps(..., sort_keys=True, indent=2)`.
`mask_components` decodes forest edge masks bit by bit, as forestlab
first did, and `prufer_edges_heap` keeps the sampler's first Prüfer
decoder, a heap of leaves.  `sample_forest_reference` keeps the
sampler's first composition: the anchor size by a walk over every size,
the companions picked as `Random.sample` picks them, a tree on the sorted
component decoded by that heap, and the edges normalized into a set at the
end; it takes the package's forest totals, which the count tests check
against the recurrences here.  `ProfilesReference` keeps the first
profile build: each state maps a root part to a Python set of count
vectors packed 16 bits to a piece, and each sum of two sets adds every
pair; it borrows treekit's tree fold, codes and `_hang`.  The
decomposition references (`enumerate_decompositions`, `replay_trace`,
`verify_supermultiplicativity`) list every decomposition by reverse
search, rebuild a tree from a trace with `treekit.attach`, and compare
the package's max weights across each edge; they borrow the edge-removal
tables `weights._moves` and `_attachments` and the trace types.
`code_parents` reads every vertex's parent from a code with its own stack
scan, so `PieceStatesReference` and the references below walk each tree
parents first without treekit's traversal.
`split_edge` keeps the package's first edge cut, which relabels both sides
into fresh adjacency lists, and the `*_reference` functions after it keep
the first bodies built on it: `treekit.splits`, `weights._moves` (with the
(vertex, below) edges it first listed), `weights._attachments`,
`treekit.check_inclusion_closed`, and `treekit.attach`, which joined two
adjacency lists by an index offset.  `splits_reference` borrows only
treekit's decoder: it codes both sides with `encode` and `unrooted_code`
and finds every orbit by comparing marked codes.  The others borrow
treekit's encoders and orbit keys, and find an attachment index as the
first vertex of the side's canonical representative whose rooted code is
the side's orbit key.
`box_counts` keeps forestlab's first box reads, one scan of every alpha
for the connected count and one per small-component code.
`candidate_boxes` keeps forestlab's first box sweep: every corner offset
from each alpha, negative corners dropped afterwards.
`shape_tally_reference` keeps forestlab's first count of the tally of all
forests, over `treekit.enumerate_unrooted` with a second encode of every
two-centroid tree at its other centroid.
`save_class` writes the class files that `forestlab.load_class` reads.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import json
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, factorial, log, prod
from operator import getitem

import numpy as np


def prufer_edges(seq, n):
    """Decode a length-(n-2) sequence over 0..n-1 into tree edges by the
    smallest-leaf rule, with a plain scan instead of a heap."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(i for i in range(n) if degree[i] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [i for i in range(n) if degree[i] == 1]
    edges.append((u, v))
    return edges


def prufer_edges_heap(seq, m):
    """The sampler's first decoder: the smallest-leaf rule with a heap of
    the current leaves, for m >= 3."""
    degree = [1] * m
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(m) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _anchor_size_walk(s, rng, forest_total):
    """The size of the smallest vertex's component: one draw r below
    forest_total(s), then a walk down from m = s to the first m whose
    suffix weight reaches forest_total(s) - r."""
    total = forest_total(s)
    left = total - rng.randrange(total)
    companions = 1  # C(s-1, m-1)
    for m in range(s, 0, -1):
        left -= companions * (1 if m == 1 else m ** (m - 2)) * forest_total(s - m)
        if left <= 0:
            return m
        companions = companions * (m - 1) // (s - m + 1)


def _sample(population, k, rng):
    """rng.sample(population, k), draw for draw: a shrinking pool, or a set
    of the indices picked, with each randbelow written out."""
    n, getrandbits = len(population), rng.getrandbits
    result = []
    setsize = 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0)
    if n <= setsize:
        pool = list(population)
        for i in range(k):
            left = n - i
            bits = left.bit_length()
            j = getrandbits(bits)
            while j >= left:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[left - 1]
    else:
        bits, selected = n.bit_length(), set()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected.add(j)
            result.append(population[j])
    return result


def _random_labeled_tree(verts, rng):
    m = len(verts)
    if m == 1:
        return []
    if m == 2:
        return [(verts[0], verts[1])]
    bits = m.bit_length()
    seq = []
    for _ in range(m - 2):
        x = rng.getrandbits(bits)
        while x >= m:
            x = rng.getrandbits(bits)
        seq.append(x)
    return [(verts[a], verts[b]) for a, b in prufer_edges_heap(seq, m)]


def sample_forest_reference(n, rng, forest_total):
    """The edge set of the sampler's uniform forest on 1..n, drawn from rng
    as the sampler draws it, by its first composition."""
    remaining = list(range(1, n + 1))
    edges = []
    while remaining:
        m = _anchor_size_walk(len(remaining), rng, forest_total)
        comp = [remaining[0]]
        if m > 1:
            comp.extend(_sample(remaining[1:], m - 1, rng))
        comp.sort()
        edges.extend(_random_labeled_tree(comp, rng))
        chosen = set(comp)
        remaining = [v for v in remaining if v not in chosen]
    return frozenset((u, v) if u < v else (v, u) for u, v in edges)


def all_labeled_trees(n):
    """Edge lists of all n^(n-2) labeled trees on 0..n-1."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield prufer_edges(seq, n)


@lru_cache(maxsize=None)
def rooted_tree_count(n: int) -> int:
    """OEIS A000081 by the Euler-transform convolution."""
    if n <= 1:
        return n
    total = 0
    for j in range(1, n):
        s = sum(d * rooted_tree_count(d) for d in range(1, j + 1) if j % d == 0)
        total += s * rooted_tree_count(n - j)
    return total // (n - 1)


@lru_cache(maxsize=None)
def unrooted_tree_count(n: int) -> int:
    """OEIS A000055 from A000081 via the dissymmetry relation."""
    if n == 0:
        return 1
    paired = sum(rooted_tree_count(k) * rooted_tree_count(n - k) for k in range(n + 1))
    if n % 2 == 0:
        paired -= rooted_tree_count(n // 2)
    return rooted_tree_count(n) - paired // 2


def adjacency_from_edges(edges, n):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def brute_force_aut_rooted(adj, root) -> int:
    """Count permutations fixing `root` that preserve the edge set."""
    n = len(adj)
    edges = {(min(u, v), max(u, v)) for u in range(n) for v in adj[u]}
    others = [v for v in range(n) if v != root]
    count = 0
    for perm in itertools.permutations(others):
        mapping = {root: root}
        mapping.update(zip(others, perm))
        if all((min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) in edges for u, v in edges):
            count += 1
    return count


def brute_force_aut_unrooted(adj) -> int:
    n = len(adj)
    edges = {(min(u, v), max(u, v)) for u in range(n) for v in adj[u]}
    count = 0
    for perm in itertools.permutations(range(n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in edges for u, v in edges):
            count += 1
    return count


def encode(adj, root, marked=-1, blocked=-1):
    """Canonical code and root-fixing automorphism count of the tree rooted
    at `root`, recursively, without crossing to vertex `blocked`.  The block
    of the `marked` vertex opens with "(*", so marked codes are canonical
    for trees with one marked vertex."""

    def rec(v, parent):
        pairs = sorted((rec(u, v) for u in adj[v] if u not in (parent, blocked)), reverse=True)
        aut = 1
        for _, kid_aut in pairs:
            aut *= kid_aut
        for code in set(p[0] for p in pairs):
            aut *= factorial(sum(1 for p in pairs if p[0] == code))
        head = "(*" if v == marked else "("
        return head + "".join(p[0] for p in pairs) + ")", aut

    return rec(root, -1)


def centroids(adj):
    """The vertices minimizing the largest component left by removing them."""
    n = len(adj)

    def side(start, cut):
        seen, stack = {start, cut}, [start]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) - 1

    weight = [max((side(u, v) for u in adj[v]), default=0) for v in range(n)]
    return [v for v in range(n) if weight[v] == min(weight)]


def unrooted_code(adj):
    """(code, aut_u, centroid kind) the way the package first computed them:
    encode at each centroid and keep the smaller code; for a central edge,
    aut_u is the product of the halves' aut_r, doubled for equal halves."""
    cents = centroids(adj)
    if len(cents) == 1:
        code, aut = encode(adj, cents[0])
        return code, aut, "one-centroid"
    c1, c2 = cents
    h1, a1 = encode(adj, c1, blocked=c2)
    h2, a2 = encode(adj, c2, blocked=c1)
    code = min(encode(adj, c1)[0], encode(adj, c2)[0])
    return code, a1 * a2 * (2 if h1 == h2 else 1), "two-centroid"


def unrooted_marked_code(adj, v):
    """Canonical code of the unrooted tree with vertex v marked: equal codes
    mean the same orbit under all automorphisms."""
    return min(encode(adj, c, marked=v)[0] for c in centroids(adj))


def rooted_marked_code(adj, root, v):
    """Code of the tree rooted at `root` with vertex v marked: equal codes
    mean the same orbit under root-fixing automorphisms."""
    return encode(adj, root, marked=v)[0]


def _anchor_weights(s):
    """(m, C(s-1, m-1) m^(m-2)) for m = 1..s: the ways to make the component
    of the smallest of s vertices a tree on m of them."""
    return [(m, comb(s - 1, m - 1) * (1 if m == 1 else m ** (m - 2))) for m in range(1, s + 1)]


@lru_cache(maxsize=None)
def forest_count(n, k):
    """Labeled forests on n vertices with k components: pick the component
    of vertex 1, then k - 1 components on the rest."""
    if n == 0 or k == 0:
        return int(n == k)
    return sum(w * forest_count(n - m, k - 1) for m, w in _anchor_weights(n) if n - m >= k - 1)


def forest_totals(n):
    """[f(0), ..., f(n)], labeled forests on j vertices, by the same
    recurrence summed over the component count."""
    totals = [1]
    for j in range(1, n + 1):
        totals.append(sum(w * totals[j - m] for m, w in _anchor_weights(j)))
    return totals


def log_forest_totals(n):
    """The natural logs of forest_totals(n), by the same recurrence in
    floats with a log-sum-exp over each row."""
    logfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    m_all = np.arange(0, n + 1)
    log_trees = np.zeros(n + 1)
    log_trees[2:] = (m_all[2:] - 2) * np.log(m_all[2:])
    lf = np.zeros(n + 1)
    for j in range(1, n + 1):
        m = m_all[1 : j + 1]
        terms = logfact[j - 1] - logfact[m - 1] - logfact[j - m] + log_trees[m] + lf[j - m]
        top = terms.max()
        lf[j] = top + np.log(np.exp(terms - top).sum())
    return lf


def acyclic_edge_subsets(n):
    """All forests on vertices 1..n as frozensets of (u, v) edges, by
    direct filtering of edge subsets (independent of the package's
    pruned enumeration)."""
    all_edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    out = []
    for r in range(len(all_edges) + 1):
        for subset in itertools.combinations(all_edges, r):
            parent = list(range(n + 1))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            ok = True
            for u, v in subset:
                ru, rv = find(u), find(v)
                if ru == rv:
                    ok = False
                    break
                parent[ru] = rv
            if ok:
                out.append(frozenset(subset))
    return out


def forest_components(n, edges):
    """Vertex sets of the components of the forest on 1..n, ordered by
    (size descending, smallest vertex)."""
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, comps = set(), []
    for start in range(1, n + 1):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for y in adj[stack.pop()]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.append(frozenset(comp))
    return sorted(comps, key=lambda c: (-len(c), min(c)))


@lru_cache(maxsize=None)
def _lex_pairs(n):
    return list(itertools.combinations(range(1, n + 1), 2))


def mask_components(n, mask):
    """forestlab's first `_components`: neighbour masks decoded from the
    edge mask bit by bit (bit i is the i-th pair u < v of 1..n in
    lexicographic order), then the component vertex masks in order of their
    smallest vertex."""
    pairs = _lex_pairs(n)
    nbr = [0] * (n + 1)
    while mask:
        low = mask & -mask
        u, v = pairs[low.bit_length() - 1]
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
        mask ^= low
    comps, seen = [], 0
    for start in range(1, n + 1):
        if seen >> start & 1:
            continue
        comp, stack = 1 << start, [start]
        while stack:
            new = nbr[stack.pop()] & ~comp
            comp |= new
            stack += [y for y in range(1, n + 1) if new >> y & 1]
        seen |= comp
        comps.append(comp)
    return nbr, comps


def pendant_side(vertices, edges, cut, anchor):
    """Edge list and root of the pendant side of `cut` inside the tree on
    `vertices`: the smaller side of the tree minus `cut`, ties to the side
    holding `anchor`, rooted at its endpoint of `cut`."""
    u, v = cut
    adj = {x: [] for x in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    side_u, stack = {u}, [u]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if (x, y) not in ((u, v), (v, u)) and y not in side_u:
                side_u.add(y)
                stack.append(y)
    side_v = set(vertices) - side_u
    if len(side_u) < len(side_v):
        pend, root = side_u, u
    elif len(side_v) < len(side_u):
        pend, root = side_v, v
    else:
        pend, root = (side_u, u) if anchor in side_u else (side_v, v)
    return [e for e in edges if e[0] in pend and e[1] in pend], root


def forest_profile(n, edges, catalog):
    """(component count, pendant-copy counts over the catalog's t0 of the
    largest component, unrooted code of the smallest component or None) of
    the forest on 1..n: one side walk and one canonical code per edge."""
    from bridgeforest import treekit

    comps = forest_components(n, edges)
    ref = comps[0]
    ref_edges = [e for e in edges if e[0] in ref]
    counts = [0] * len(catalog.t0)
    for cut in ref_edges:
        side, root = pendant_side(ref, ref_edges, cut, min(ref))
        slot = catalog.t0_index.get(treekit.canonicalize_rooted(side, root).code)
        if slot is not None:
            counts[slot] += 1
    ucode = None
    if len(comps) == 2:
        small = next(c for c in comps if len(c) == len(comps[-1]))
        small_edges = [e for e in edges if e[0] in small]
        ucode = treekit.canonicalize_unrooted(small_edges, vertices=small).code
    return len(comps), tuple(counts), ucode


def pendant_tree(forest, e):
    """Pendant tree of edge e in the connected LabeledForest `forest`: the
    smaller side of the tree minus e, ties to the side holding vertex 1,
    rooted at its endpoint of e, as a canonical rooted code."""
    from bridgeforest import treekit

    if len(forest_components(forest.n, forest.edges)) != 1:
        raise ValueError("pendant_tree needs a connected tree")
    cut = tuple(sorted(e))
    if cut not in forest.edges:
        raise ValueError(f"edge {cut} is not in the tree")
    side, root = pendant_side(range(1, forest.n + 1), sorted(forest.edges), cut, 1)
    return treekit.canonicalize_rooted(side, root)


def class_histogram(profiles):
    """(component counts, connected alpha counts, two-component alpha counts
    by small code, two-component totals by small code) over profiles."""
    comps, a_alpha, b_alpha, b_totals = {}, {}, {}, {}
    for ncomp, alpha, ucode in profiles:
        comps[ncomp] = comps.get(ncomp, 0) + 1
        if ncomp == 1:
            a_alpha[alpha] = a_alpha.get(alpha, 0) + 1
        elif ncomp == 2:
            amap = b_alpha.setdefault(ucode, {})
            amap[alpha] = amap.get(alpha, 0) + 1
            b_totals[ucode] = b_totals.get(ucode, 0) + 1
    return comps, a_alpha, b_alpha, b_totals


def box_counts(a_alpha, b_alpha, lower, width, q, codes):
    """(A, {code: B}) by scanning every alpha: A counts the connected
    members with each coordinate in [l - q, l + width + q), B the
    two-component members with small component `code` and each coordinate
    in [l, l + width)."""
    for alpha in itertools.chain(a_alpha, *b_alpha.values()):
        assert len(alpha) == len(lower), (alpha, lower)
    a = sum(c for alpha, c in a_alpha.items()
            if all(l - q <= x < l + width + q for l, x in zip(lower, alpha)))
    b = {code: sum(c for alpha, c in b_alpha.get(code, {}).items()
                   if all(l <= x < l + width for l, x in zip(lower, alpha)))
         for code in codes}
    return a, b


def candidate_boxes(b_alpha, codes, w):
    """Sorted lower corners of the width-w boxes holding a two-component
    alpha with small component in `codes`: every offset in [0, w) from each
    alpha, negative corners dropped afterwards.  A coordinate that is 0 in
    every alpha takes only offset 0, which keeps wide catalogs finite."""
    alphas = [alpha for code, amap in b_alpha.items() if code in codes for alpha in amap]
    used = [any(alpha[i] for alpha in alphas) for i in range(len(alphas[0]))] if alphas else []
    lowers = set()
    for alpha in alphas:
        for offs in itertools.product(*(range(w) if u else (0,) for u in used)):
            lower = tuple(a - o for a, o in zip(alpha, offs))
            if all(x >= 0 for x in lower):
                lowers.add(lower)
    return sorted(lowers)


def shape_tally_reference(n):
    """The tally of every forest on n vertices as forestlab first counted
    it: each free tree from `treekit.enumerate_unrooted`, and for a
    two-centroid tree its code and its rooting at the other centroid, which
    split its labelings, or one code for both that keeps them all."""
    from collections import Counter

    from bridgeforest import treekit

    def far_rooting(code):
        # in preorder a child follows its parent, so the far centroid has the larger index
        adj = treekit.code_to_adjacency(code)
        return encode(adj, max(centroids(adj)))[0]

    by_size: dict = {}
    for u in treekit.enumerate_unrooted(n):
        by_size.setdefault(u.size, []).append(u)
    rootings = {}
    for r in range((n + 1) // 2, n + 1):
        for u in by_size[r]:
            codes = [u.code, far_rooting(u.code)] if u.centroid_kind == "two-centroid" else [u.code]
            labelings = factorial(r) // u.aut_u
            rootings[u.code] = {code: labelings * k // len(codes) for code, k in Counter(codes).items()}
    tally = Counter()
    for u in by_size[n]:
        for code, k in rootings[u.code].items():
            tally[code, None] += k
    for r in range((n + 1) // 2, n):
        for u1, u2 in itertools.product(by_size[r], by_size[n - r]):
            if 2 * r > n:
                label_sets, key = comb(n, r), u2.code
            else:  # the component holding vertex 1 is the reference and the small one
                label_sets, key = comb(n - 1, r - 1), u1.code
            ways = label_sets * factorial(n - r) // u2.aut_u
            for code, k in rootings[u1.code].items():
                tally[code, key] += ways * k
    return tally


def bridges(n, edges):
    """Every pair joining two components: component pairs in
    `forest_components` order, then endpoints in increasing label order."""
    comps = [sorted(c) for c in forest_components(n, edges)]
    for i, first in enumerate(comps):
        for second in comps[i + 1 :]:
            for u in first:
                for v in second:
                    yield (min(u, v), max(u, v))


def bridge_addable_witness(n, members):
    """None if every member plus any bridge is a member, else the first
    (member, bridge) that is not, members in sorted-edge-list order."""
    members = set(members)
    for edges in sorted(members, key=sorted):
        for e in bridges(n, edges):
            if edges | {e} not in members:
                return edges, e
    return None


def bridge_addable_closure(n, seeds):
    """Smallest set of edge frozensets holding the seeds and closed under
    adding bridges."""
    seen, queue = set(seeds), list(seeds)
    while queue:
        edges = queue.pop()
        for e in bridges(n, edges):
            if edges | {e} not in seen:
                seen.add(edges | {e})
                queue.append(edges | {e})
    return seen


def save_class(cls, path):
    """Write a forestlab class file: {"n": n, "forests": [[[u, v], ...], ...]},
    members in sort order."""
    forests = [[list(e) for e in f.sort_key()] for f in cls.sorted_members()]
    with open(path, "w") as fh:
        json.dump({"n": cls.n, "forests": forests}, fh, sort_keys=True)


def scale_to_cap(layers, cap: float) -> float:
    """Largest lam in (0, 1] with sum lam^s layers[s] <= cap, to within
    bracket width ~1e-16 (80 bisection steps, each summing with numpy)."""
    sizes = np.arange(len(layers))

    def value(lam):
        return float(np.sum(layers * lam**sizes))

    if value(1.0) <= cap:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if value(mid) <= cap:
            lo = mid
        else:
            hi = mid
    return lo


def scale_to_cap_bisect(layers, cap: float) -> float:
    """Largest float lam in [0, 1) with float Horner sum lam^s layers[s] <=
    cap, by bisecting [0, 1] until lo and hi are adjacent floats; neither
    0 nor 1.0 is evaluated."""
    cs = [float(c) for c in layers]
    lo, hi = 0.0, 1.0
    while lo < (lo + hi) / 2 < hi:
        mid = (lo + hi) / 2
        val = 0.0
        for c in reversed(cs):
            val = val * mid + c
        if val <= cap:
            lo = mid
        else:
            hi = mid
    return lo


def project_scale(z, config):
    """Scale the weight vector z by the lam making rooted_series(lam*z, k)
    equal to the cap (lam = 1 if already within it): the optimizer's
    projection for exact and float vectors.  The scaled series is
    sum lam^s y_s with y_s the per-size contributions, a strictly
    increasing polynomial in lam, solved by the optimizer's Horner
    bisection.  Exact vectors bisect in Fractions until the series is
    within config.tol below the cap; float vectors take the optimizer's
    float bisection of [0, 1].  Either way the scaled series stays
    at or below the cap."""
    from bridgeforest import optimizer, weights

    if all(v == 0 for _, v in z.entries):
        raise ValueError("cannot project the zero vector")
    layers = weights.layers(z, config.k, config.catalog)
    cap = Fraction(config.y_cap) if z.exact else config.y_cap
    if weights._total(layers) <= cap:
        return z
    if z.exact:
        tol = Fraction(config.tol)
        lam, _ = optimizer._bisect(layers, cap, Fraction(1), lambda lo, hi, val_lo: cap - val_lo <= tol)
    else:
        lam = optimizer._scale_to_cap(layers, cap)
    return weights.scale_weights(lam, z)


def float_feasibility(ev, z, config):
    """(feasible, violations, y, objective) of a float weight vector, from
    the float evaluator `ev` built for (config.catalog, config.k), whose
    om and layers are lists: the cap and closure constraints checked
    within config.tol."""
    zv = [float(v) for _, v in z.entries]
    om, layers = ev.evaluate(zv)
    y = float(np.sum(layers[1:]))
    violations = []
    zslots = [j for j, u in enumerate(config.catalog.u0) if u.size <= config.k]
    gaps = [abs(om[c] - zv[j]) for c, j in zip(ev.u0_positions, zslots)]
    if y > config.y_cap + config.tol:
        violations.append(f"rooted series {y:.12g} exceeds cap {config.y_cap}")
    if not max(gaps) <= config.tol:
        violations.append("not a closure fixed point (beyond tol)")
    objective = float(sum(zv[j] / u.aut_u for j, u in enumerate(config.catalog.u0)))
    return not violations, violations, y, objective


class TruncatedSeriesEvaluatorReference:
    """The package's first float evaluator, vectorized with numpy over every
    (class, count vector) row of the profile classes: each row's monomial
    is gathered from a table of powers, a class's max weight is
    `np.maximum.reduceat` over its rows (NaN if any row is NaN), and the
    size layers are a `np.bincount`.  Powers that overflow are inf, as
    numpy's are; a row with a positive power of a zero weight and none of
    a NaN one is 0 (inf times a zero power is not NaN here).  Built on the
    package's `weights._profiles`."""

    def __init__(self, catalog, k):
        from bridgeforest import weights

        self.k = k
        self._profiles = weights._profiles(catalog.u0, k)
        self.sizes = np.array(self._profiles.sizes, dtype=np.int64)
        self.rooted_coeff = np.array([float(c) for c in self._profiles.coeff])
        counts = self._profiles.counts
        row_class = np.array([c for c, vecs in enumerate(counts) for _ in vecs], dtype=np.int64)
        row_counts = np.array(
            [vec for vecs in counts for vec in vecs], dtype=np.int64
        ).reshape(len(row_class), len(catalog.u0))
        # row r's monomial is the product over pieces j of
        # powers[j, row_counts[r, j]], gathered from the flattened table
        self.gathers = (row_counts + (k + 1) * np.arange(len(catalog.u0))).T.copy()
        self.row_counts = row_counts
        self.starts = np.searchsorted(row_class, np.arange(len(counts)))
        self.rows = len(row_class)
        self._exponents = np.arange(k + 1)

    def index(self, code):
        return self._profiles.index(code)

    def evaluate(self, zvec):
        with np.errstate(over="ignore", invalid="ignore"):
            powers = (np.asarray(zvec, dtype=float)[:, None] ** self._exponents).ravel()
            monomials = powers[self.gathers[0]]
            for gather in self.gathers[1:]:
                monomials = monomials * powers[gather]
            # a row with a positive power of a zero weight has a 0 factor, so
            # its monomial is 0 where an overflowed power made it inf * 0;
            # a row that also takes a NaN weight stays NaN
            z = np.asarray(zvec, dtype=float)
            takes = self.row_counts > 0
            zeroed = takes[:, z == 0.0].any(axis=1) & ~takes[:, np.isnan(z)].any(axis=1)
            monomials = np.where(zeroed, 0.0, monomials)
            om = np.maximum.reduceat(monomials, self.starts)
            y = np.bincount(self.sizes, weights=self.rooted_coeff * om, minlength=self.k + 1)
        return om, y


def layers_reference(z, k, catalog):
    """The package's first `weights.layers`: entry s is the sum of
    maxweight(T)/aut_r(T) over the rooted trees T with s vertices, each
    profile class's max weight the largest monomial over its rows, found
    as (numerator, denominator) pairs compared by cross-multiplying.
    Exact for exact z; float powers that overflow raise, and NaN
    monomials never win."""
    from bridgeforest import weights

    if k < 1:
        raise ValueError("truncation order must be >= 1")
    weights._check_domain(z, catalog)
    table = weights._profiles(catalog.u0, k)
    if z.exact:
        ratios = [Fraction(value).as_integer_ratio() for _, value in z.entries]
    else:
        ratios = [(float(value), 1) for _, value in z.entries]
    nums = [[n**e for e in range(k + 1)] for n, _ in ratios]
    dens = [[d**e for e in range(k + 1)] for _, d in ratios]
    out = [Fraction(0) if z.exact else 0.0] * (k + 1)
    for size, coeff, counts in zip(table.sizes, table.coeff, table.counts):
        best_n, best_d = 0, 1
        for vec in counts:
            n = prod(map(getitem, nums, vec))
            d = prod(map(getitem, dens, vec))
            if n * best_d > best_n * d:
                best_n, best_d = n, d
        out[size] += coeff * Fraction(best_n, best_d) if z.exact else float(coeff) * best_n
    return out


def knapsack_floor(c, z, k, catalog):
    """(R, R + sum_j w_j z_j) in Fractions, where w_j = |U_j|/aut_u(U_j) is
    piece U_j's own share of the rooted series Y and R = Y(c) - sum_j w_j
    c_j: the lower bound on Y(z) for z >= a closed c that the optimizer's
    box search cuts with.  Y is summed from `layers_reference`."""
    w = [Fraction(u.size, u.aut_u) for u in catalog.u0]
    r = sum(layers_reference(c, k, catalog)) - sum(wj * v for wj, (_, v) in zip(w, c.entries))
    return r, r + sum(wj * v for wj, (_, v) in zip(w, z.entries))


def grid_maximum(catalog, k, cap, steps):
    """A lower bound on the maximum by brute force, in Fractions: over the
    grid points z_j = (i_j/steps) cap aut_u(U_j)/|U_j|, i_j = 0..steps,
    whose rooted series is at most cap, the closure c of z scaled by the
    largest lam = m/2^40 with sum lam^s y_s <= cap (y the layers of z,
    which are those of c), and the largest objective sum lam^|U| c_U/aut_u
    found.  Every such point is closed and feasible.  Closure is the
    package's removal recursion (`weights.closure`), the layers
    `layers_reference`, and lam is found by doubling and 40 halvings."""
    from bridgeforest import weights

    cap = Fraction(cap)
    axes = [[cap * u.aut_u / u.size * Fraction(i, steps) for i in range(steps + 1)] for u in catalog.u0]
    best = Fraction(0)
    for values in itertools.product(*axes):
        z = weights.WeightVector(tuple((u.code, v) for u, v in zip(catalog.u0, values)))
        layers = layers_reference(z, k, catalog)
        if not 0 < sum(layers) <= cap:
            continue

        def series(lam):
            return sum(y * lam**s for s, y in enumerate(layers))

        lo, hi = Fraction(1), Fraction(2)
        while series(hi) <= cap:
            lo, hi = hi, 2 * hi
        for _ in range(40):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if series(mid) <= cap else (lo, mid)
        closed = weights.closure(z, catalog)
        objective = sum(lo**u.size * Fraction(v, u.aut_u) for u, (_, v) in zip(catalog.u0, closed.entries))
        best = max(best, objective)
    return best


def jsonable(obj):
    """obj projected onto plain JSON types: Fractions to {"num", "den"}
    digit strings, sequences and sets to lists (sets sorted), dicts and
    dataclass instances to dicts keyed by str(key)."""
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, float, str)):
        return obj
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def report_dumps(obj) -> str:
    """The report text of obj, through the standard library's indenting encoder."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2)


# count vectors packed into ints, one 16-bit digit per u0 piece
_COUNT_BITS = 16


class PieceStatesReference:
    """Decomposition states of rooted trees over u0: a state maps each
    root part (a rooted code of at most u_max vertices) to the set of
    packed count vectors of the finished u0 pieces, interned as ints."""

    def __init__(self, u0):
        from bridgeforest import treekit

        self.tk = treekit
        self.u_max = max(u.size for u in u0)
        self._unit = {u.code: 1 << (_COUNT_BITS * j) for j, u in enumerate(u0)}
        self._states = []
        self._ids = {}
        self._attached = {}
        self._profile = {}
        self.root = self._intern({treekit.SINGLE_VERTEX_CODE: {0}})

    def _intern(self, parts):
        key = frozenset((part, frozenset(vs)) for part, vs in parts.items())
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = len(self._states)
            self._states.append(key)
        return sid

    def _piece_unit(self, part):
        return self._unit.get(self.tk._unrooted_code(part))

    def attach(self, a, c):
        key = (a, c)
        sid = self._attached.get(key)
        if sid is None:
            parts = {}
            for part, vs in self._states[a]:
                room = self.u_max - part.count("(")
                for child, ws in self._states[c]:
                    sums = {v + w for v in vs for w in ws}
                    unit = self._piece_unit(child)
                    if unit is not None:
                        parts.setdefault(part, set()).update(s + unit for s in sums)
                    if child.count("(") <= room:
                        parts.setdefault(self.tk._hang(part, child), set()).update(sums)
            sid = self._attached[key] = self._intern(parts)
        return sid

    def profile(self, sid):
        if sid not in self._profile:
            self._profile[sid] = frozenset(
                v + self._piece_unit(part)
                for part, vs in self._states[sid]
                if self._piece_unit(part) is not None
                for v in vs
            )
        return self._profile[sid]

    def state_of(self, code):
        parent = code_parents(code)
        state = [self.root] * len(parent)
        for v in reversed(range(1, len(parent))):
            state[parent[v]] = self.attach(state[parent[v]], state[v])
        return state[0]


class ProfilesReference:
    """The trees with 1..k vertices grouped by (size, profile), in the
    order (size, sorted packed vectors): sizes, exact coeff (the sum of
    size/aut_u over a class) and counts (tuples over u0) per class."""

    def __init__(self, u0, k):
        from bridgeforest import treekit

        states = PieceStatesReference(u0)
        labelings = {}
        for n, aut, sid, _ in treekit.fold_unrooted(k, states.root, states.attach):
            key = (n, states.profile(sid))
            labelings[key] = labelings.get(key, 0) + factorial(n) // aut
        order = sorted(labelings, key=lambda key: (key[0], sorted(key[1])))
        mask = (1 << _COUNT_BITS) - 1
        self.states = states
        self.k = k
        self.sizes = tuple(n for n, _ in order)
        self.coeff = tuple(Fraction(n * labelings[(n, p)], factorial(n)) for n, p in order)
        self.counts = tuple(
            tuple(tuple((v >> (_COUNT_BITS * j)) & mask for j in range(len(u0))) for v in sorted(p))
            for _, p in order
        )
        self._class = {key: c for c, key in enumerate(order)}

    def index(self, code):
        return self._class[(code.count("("), self.states.profile(self.states.state_of(code)))]


def enumerate_decompositions(t, catalog):
    """Every decomposition of the tree `t` (a tree code) over catalog.u0,
    as weights.DecompositionTrace objects, by exhaustive reverse search
    over piece removals; inputs of at most 8 vertices."""
    from bridgeforest import treekit, weights
    from bridgeforest.weights import DecompositionStep, DecompositionTrace

    code = weights._as_unrooted_code(t)
    size = code.count("(")
    if size > 8:
        raise treekit.CapacityError(f"tree of size {size} exceeds oracle bound 8")

    @lru_cache(maxsize=None)
    def search(w):
        found = []
        if w in catalog.u0_index:
            found.append((DecompositionStep(piece=w, attach_from=None, attach_to=None),))
        for piece, p_idx, rest, r_idx in weights._attachments(weights._moves(w)):
            if piece in catalog.u0_index:
                step = DecompositionStep(piece=piece, attach_from=r_idx, attach_to=p_idx)
                found += [prefix + (step,) for prefix in search(rest)]
        return tuple(found)

    return tuple(DecompositionTrace(steps=steps) for steps in search(code))


def replay_trace(trace):
    """The unrooted tree a decomposition trace builds: its steps applied
    with treekit.attach, re-canonicalizing the partial tree after each."""
    from bridgeforest import treekit

    if not trace.steps:
        raise ValueError("cannot replay an empty trace")
    cur = trace.steps[0].piece
    for step in trace.steps[1:]:
        base = treekit._rooted_from_adj(treekit.code_to_adjacency(cur), 0)
        piece = treekit._unrooted_from_adj(treekit.code_to_adjacency(step.piece))
        grown = treekit.attach(base, step.attach_from, piece, step.attach_to)
        cur = treekit._unrooted_code(grown.code)
    return treekit._unrooted_from_adj(treekit.code_to_adjacency(cur))


@dataclasses.dataclass(frozen=True)
class SupermultCheck:
    ok: bool
    code: str
    failures: tuple


def verify_supermultiplicativity(u, z, catalog):
    """For every edge of the tree `u`, removing the edge leaves two trees
    whose max weights multiply to at most the max weight of `u`."""
    from bridgeforest import weights

    code = weights._as_unrooted_code(u)
    if code.count("(") < 2:
        raise ValueError("need a tree with at least one edge")
    table = weights.MaxWeightTable(catalog, z)
    whole = table.value(code)
    failures = []
    for piece, rest, _ in weights._moves(code):
        parts = table.value(piece) * table.value(rest)
        if whole < parts:
            failures.append({"piece": piece, "rest": rest, "whole": whole, "parts": parts})
    return SupermultCheck(ok=not failures, code=code, failures=tuple(failures))


# ---------------------------------------------------------------------------
# the first move builder: edge cuts by relabeling


def code_parents(code):
    """Parent of each vertex of a code's representative (-1 for the root),
    read with a plain stack scan.  Vertices are numbered in the order their
    "(" appear, as `treekit.code_to_adjacency` numbers them, so every parent
    comes before its children."""
    parent, stack = [], []
    for ch in code:
        if ch == "(":
            parent.append(stack[-1] if stack else -1)
            stack.append(len(parent) - 1)
        else:
            stack.pop()
    return parent


def split_edge(adj, parent, v):
    """The two trees left by removing the edge from v to parent[v], each as
    (relabeled adjacency, index of its endpoint of the removed edge): v's
    side first.  Relabeling keeps vertex order, so vertex 0, when on the
    parent's side, stays vertex 0 there."""
    below, stack = {v}, [v]
    while stack:
        for u in adj[stack.pop()]:
            if u != parent[v] and u not in below:
                below.add(u)
                stack.append(u)
    sides = []
    for part, end in ((below, v), (set(range(len(adj))) - below, parent[v])):
        index = {x: i for i, x in enumerate(sorted(part))}
        sides.append(([[index[u] for u in adj[x] if u in part] for x in index], index[end]))
    return tuple(sides)


def splits_reference(t):
    """treekit.splits with both sides of each edge cut by split_edge, coded
    by `encode` and `unrooted_code`, and every orbit found by comparing
    marked codes."""
    from bridgeforest import treekit as tk

    adj, parent = tk.code_to_adjacency(t.code), code_parents(t.code)
    orbits = {}
    for v in range(1, len(adj)):
        orbits.setdefault(rooted_marked_code(adj, 0, v), []).append(v)
    out = []
    for members in orbits.values():
        v = members[0]
        (sub_u, v_in_u), (sub_t, p_in_t) = split_edge(adj, parent, v)
        t_marked = [rooted_marked_code(sub_t, 0, x) for x in range(len(sub_t))]
        u_marked = [unrooted_marked_code(sub_u, x) for x in range(len(sub_u))]
        t_code, t_aut = encode(sub_t, 0)
        u_code, u_aut, kind = unrooted_code(sub_u)
        out.append(
            tk.EdgeSplit(
                parent=t,
                t_minus=tk.RootedTreeCode(t_code, len(sub_t), t_aut),
                u_plus=tk.UnrootedTreeCode(u_code, len(sub_u), u_aut, kind),
                m_edge=len(members),
                m_vminus=t_marked.count(t_marked[p_in_t]),
                n_vplus=u_marked.count(u_marked[v_in_u]),
            )
        )
    return out


def moves_reference(code):
    """weights._moves as first built: sorted (piece_code, rest_code, edges),
    where edges lists the (v, below) realizing the pair: removing the edge
    from v to its parent leaves the piece on v's side when below is true."""
    from bridgeforest import treekit as tk

    adj, parent = tk.code_to_adjacency(code), code_parents(code)
    found = {}
    for v in range(1, len(adj)):
        (sub_a, _), (sub_b, _) = split_edge(adj, parent, v)
        ca = tk._unrooted_from_adj(sub_a).code
        cb = tk._unrooted_from_adj(sub_b).code
        found.setdefault((ca, cb), []).append((v, True))
        found.setdefault((cb, ca), []).append((v, False))
    return tuple((*key, tuple(found[key])) for key in sorted(found))


def attachments_reference(code, moves):
    """weights._attachments as first built, from moves_reference(code): each
    side of each edge cut again and encoded at its endpoint for its orbit
    key, whose first vertex in the side's canonical representative is the
    attachment index: the first vertex at which that representative encodes
    to the key."""
    from bridgeforest import treekit as tk

    adj, parent = tk.code_to_adjacency(code), code_parents(code)

    def orbit_index(side_code, side):
        key = tk._encode(*side)[0]
        rep = tk.code_to_adjacency(side_code)
        return key, next(i for i in range(len(rep)) if tk._encode(rep, i)[0] == key)

    oriented = {}
    for piece, rest, edges in moves:
        for v, below in edges:
            side_v, side_p = split_edge(adj, parent, v)
            pm, pi = orbit_index(piece, side_v if below else side_p)
            rm, ri = orbit_index(rest, side_p if below else side_v)
            oriented.setdefault((pm, rm), (piece, pi, rest, ri))
    return tuple(oriented[key] for key in sorted(oriented))


def attach_reference(t_minus, v_index, u, u_index):
    """treekit.attach as first built: the two representatives' adjacency
    lists joined by an index offset, plus the new edge, encoded at 0."""
    from bridgeforest import treekit as tk

    base = tk.code_to_adjacency(t_minus.code)
    piece = tk.code_to_adjacency(u.code)
    offset = len(base)
    joined = [list(nbrs) for nbrs in base]
    joined.extend([w + offset for w in nbrs] for nbrs in piece)
    joined[v_index].append(u_index + offset)
    joined[u_index + offset].append(v_index)
    return tk._rooted_from_adj(joined, 0)


def inclusion_closed_reference(rooted_family):
    """treekit.check_inclusion_closed as first built: each non-root leaf
    found by an adjacency walk and cut off with split_edge."""
    from bridgeforest import treekit as tk

    codes = {t.code for t in rooted_family}
    for t in rooted_family:
        if t.size == 1:
            continue
        adj, parent = tk.code_to_adjacency(t.code), code_parents(t.code)
        for v in range(1, len(adj)):
            if len(adj[v]) == 1:
                code, _ = tk._encode(split_edge(adj, parent, v)[1][0], 0)
                if code not in codes:
                    raise tk.CatalogError(
                        f"family is not closed under rooted inclusion: removing a "
                        f"leaf from {t.code} gives {code}, which is missing"
                    )
