"""Bridge-addable classes of labeled forests at desk scale: pendant-tree
statistics, and exhaustive verification of the counting inequalities that
relate connected and two-component members of a class.  Single forests,
their exact counts and the uniform sampler are in `forests`, and are
re-exported here.

Conventions, applied literally everywhere:

* the pendant side of an edge of a tree is the smaller component left by
  removing the edge, with ties going to the component containing the
  smallest vertex of the tree;
* the reference component of a forest (the one whose pendant statistics
  the forest inherits) is the largest component, ties to the one
  containing the smallest vertex among the largest;
* the distinguished small component of a two-component forest is the
  smallest one, ties to the one containing vertex 1.

Statistics vectors ("alpha" vectors) are tuples of pendant-copy counts in
the coordinate order of the catalog's rooted family t0.  They are read
from one rooting: a tree is rooted at its centroid farther from its
smallest vertex (its only centroid, when it has one).  Every subtree
below that root has at most half of the vertices, and one with exactly
half holds the smallest vertex, so the subtrees below the non-root
vertices are exactly the pendant sides, and alpha counts the balanced
blocks of the rooted code, the root's own aside, that lie in t0.

A class's tally, built once, counts its connected and two-component
members by (code of the reference component rooted at its far centroid,
unrooted code of the small component or None); a catalog only maps each
code to its alpha.  The class of all forests on n vertices is counted, not
enumerated: its tally (`_shape_tally`) depends only on shapes.  A free
tree U on n vertices has n!/aut_u labelings, and its key is its code
rooted at the centroid far from its smallest label.  Its near and far
centroid rootings (the same one, when it has one centroid) get half of the
labelings each, so a code that is both gets all: no automorphism swaps two
unequal halves, and the smallest label lies in each in half of the
labelings.  A two-component forest with trees U1 on r > n/2 vertices and
U2 on n - r has C(n, r) r!/aut(U1) (n-r)!/aut(U2) labelings, with its code
from U1 and small component U2.  At r = n/2 the component holding vertex 1
is both the reference and the small component; calling it U1 leaves
C(n-1, r-1) label sets for it, and its code is the small-component key.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb, factorial

from . import CapacityError, labeled_tree_count, treekit
from .forests import (  # single forests, counts and sampler, re-exported
    LabeledForest, _check_n, _is_int, connectivity_prob, forest_count, forest_total,
    sample_component_sizes, sample_forest, two_component_ratio,
)
from .treekit import Catalog

__all__ = [
    "LabeledForest",
    "ForestClass",
    "Box",
    "ClassHistogram",
    "BridgeAddabilityViolation",
    "forest_count",
    "forest_total",
    "labeled_tree_count",
    "connectivity_prob",
    "two_component_ratio",
    "sample_forest",
    "sample_component_sizes",
    "all_forests",
    "is_bridge_addable",
    "bridge_addable_closure",
    "random_closure",
    "ratio_weights",
    "verify_simple_counting",
    "verify_local_double_counting",
    "verify_weight_sum_bound",
    "boxing_search",
    "load_class",
]

# Exhaustive forest enumeration stops here.  The class of all forests is
# counted from free trees instead, up to treekit.DEFAULT_MAX_SIZE.
DEFAULT_EXHAUSTIVE_N = 8
# A bridge-addable closure stops past this many members.  Random closures
# at n = 9 reach about 715,000 (7 s); at n = 10 one reaches 7.7 million in
# 91 s, and at n >= 11 memory runs out first.
CLOSURE_MAX_MEMBERS = 1_000_000
# Explicit classes build pair tables of O(n^2) entries (`_pairs` and those from it):
# a one-tree class checks in 0.07 s and 45 MB at n = 64, 0.7 s and 355 MB at n = 128.
EXPLICIT_MAX_N = 64


class BridgeAddabilityViolation(ValueError):
    """A two-component count is positive while the matching connected
    count is zero, which cannot happen for a bridge-addable class."""


# ---------------------------------------------------------------------------
# edge masks
#
# A class stores each forest as an int edge mask: bit i stands for the i-th
# pair (u, v), u < v, of 1..n in lexicographic order, which is the order in
# which _forest_masks decides edges.  A vertex set is an int with bit v
# for vertex v.  Sorted edge lists compare as the increasing lists of their
# bit indices, so `_sort_key` orders masks as `LabeledForest.sort_key`
# orders forests.


@cache
def _pairs(n: int):
    if n > EXPLICIT_MAX_N:
        raise CapacityError(f"explicit forest classes are capped at n={EXPLICIT_MAX_N}")
    return tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))


@cache
def _pair_bits(n: int):
    return {e: 1 << i for i, e in enumerate(_pairs(n))}


def _mask_of(f: LabeledForest, n: int) -> int:
    if f.n != n:
        raise ValueError(f"member with n={f.n} in class with n={n}")
    bits = _pair_bits(n)
    return sum(bits[e] for e in f.edges)


def _bit_indices(mask: int) -> list:
    """Indices of the set bits of mask, highest first."""
    out = []
    while mask:
        i = mask.bit_length() - 1
        out.append(i)
        mask ^= 1 << i
    return out


def _sort_key(mask: int) -> list:
    return _bit_indices(mask)[::-1]


def _forest_of(n: int, mask: int) -> LabeledForest:
    pairs = _pairs(n)
    return LabeledForest(n=n, edges=frozenset(pairs[i] for i in _bit_indices(mask)))


# A neighbour table covers at most this many of a vertex's edges, so it has
# at most 256 entries; up to n = 9 one table per vertex covers them all.
_NEIGHBOUR_CHUNK = 8


@cache
def _neighbour_tables(n: int):
    """(v, edge bits, table) triples: the table maps each subset of those
    bits, all of them pairs holding vertex v, to the neighbours of v that
    they join it to, as a vertex mask."""
    incident = [[] for _ in range(n + 1)]
    for i, (u, v) in enumerate(_pairs(n)):
        incident[u].append((1 << i, 1 << v))
        incident[v].append((1 << i, 1 << u))
    out = []
    for v, edges in enumerate(incident):
        for start in range(0, len(edges), _NEIGHBOUR_CHUNK):
            chunk = edges[start : start + _NEIGHBOUR_CHUNK]
            table = {0: 0}
            for bit, nb in chunk:
                table.update([(key | bit, m | nb) for key, m in table.items()])
            out.append((v, sum(bit for bit, _ in chunk), table))
    return tuple(out)


def _components(n: int, mask: int):
    """Neighbour masks (entry v has bit u for each neighbour u of v) and
    the vertex masks of the components, in order of their smallest vertex."""
    nbr = [0] * (n + 1)
    for v, bits, table in _neighbour_tables(n):
        nbr[v] |= table[mask & bits]
    comps = []
    left = (1 << (n + 1)) - 2
    for _ in range(n - mask.bit_count() - 1):  # the last one is what is left
        comp = reach = left & -left
        while reach:
            for v in _bit_indices(reach):
                reach |= nbr[v]
            reach &= ~comp
            comp |= reach
        comps.append(comp)
        left ^= comp
    comps.append(left)
    return nbr, comps


@cache
def _pairs_inside(n: int, verts: int) -> int:
    """Edge mask of every pair of vertices in the vertex set `verts`."""
    return sum(1 << i for i, (u, v) in enumerate(_pairs(n)) if verts >> u & verts >> v & 1)


def _bridge_bits(n: int, mask: int):
    """Bit indices of the pairs joining two components of the forest `mask`."""
    inside = 0
    for comp in _components(n, mask)[1]:
        inside |= _pairs_inside(n, comp)
    return _bit_indices(((1 << len(_pairs(n))) - 1) ^ inside)


def _forest_masks(n: int):
    """The edge mask of every labeled forest on vertices 1..n, once each."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > DEFAULT_EXHAUSTIVE_N:
        raise CapacityError(f"exhaustive enumeration capped at n={DEFAULT_EXHAUSTIVE_N}")
    pairs = _pairs(n)
    out = []
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(i, mask):
        if i == len(pairs):
            out.append(mask)
            return
        rec(i + 1, mask)
        u, v = pairs[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            rec(i + 1, mask | 1 << i)
            parent[ru] = ru

    rec(0, 0)
    return out


# ---------------------------------------------------------------------------
# pendant statistics


def _rooted_code(nbr, v: int, away: int) -> str:
    """Canonical rooted code of the side of v away from its neighbour
    `away` (0 for the whole tree), rooted at v."""
    codes = [_rooted_code(nbr, x, v) for x in _bit_indices(nbr[v] & ~(1 << away))]
    return "(" + "".join(sorted(codes, reverse=True)) + ")"


@cache
def _centred(code: str) -> str:
    """The rooted code `code` rerooted at the centroid farther from its root."""
    return treekit._centroid_rootings(treekit.code_to_adjacency(code))[1]


def _pendant_alpha(code: str, catalog: Catalog) -> tuple:
    """Pendant-copy counts over t0 of a tree rooted at its far centroid:
    its proper balanced blocks with codes in t0, one per non-root vertex."""
    t0_index, longest = catalog.t0_index, 2 * catalog.t_max
    counts = [0] * len(catalog.t0)
    _, start, end = treekit._blocks(code)
    for i, j in zip(start[1:], end[1:]):
        slot = t0_index.get(code[i:j]) if j - i <= longest else None
        if slot is not None:
            counts[slot] += 1
    return tuple(counts)


def _shape_key(n: int, mask: int):
    """(component count, code of the reference component rooted at its far
    centroid, unrooted code of the small component or None) of the forest
    `mask`; the small code is given for two-component forests only."""
    nbr, comps = _components(n, mask)
    # comps are in min-vertex order, so max and min keep the first of
    # equal sizes: the conventions' ties to the smallest vertex
    ref = max(comps, key=int.bit_count)
    code = _centred(_rooted_code(nbr, (ref & -ref).bit_length() - 1, 0))
    if len(comps) != 2:
        return len(comps), code, None
    small = min(comps, key=int.bit_count)
    return 2, code, treekit._unrooted_code(_rooted_code(nbr, (small & -small).bit_length() - 1, 0))


# ---------------------------------------------------------------------------
# classes


class ForestClass:
    """A set of labeled forests on a common vertex count.

    Members are stored as edge masks (see `_pairs`); `members`, iteration
    and `sorted_members` give `LabeledForest` views, built on each call.
    The constructor takes LabeledForests or edge masks, or None for every
    forest on n vertices (n <= treekit.DEFAULT_MAX_SIZE).  That class is
    counted: its size, membership, component counts and histograms need no
    masks, which are enumerated only on first use of `masks`.
    """

    def __init__(self, n: int, members, provenance: str = "explicit"):
        _check_n(n)
        self.n = n
        self.provenance = provenance
        self._every = members is None
        self._hists: dict = {}
        if self._every:
            if n > treekit.DEFAULT_MAX_SIZE:
                raise CapacityError(f"class all-forests is capped at n={treekit.DEFAULT_MAX_SIZE}")
            self._masks = None
            self._bridge_addable = True  # a forest plus a bridge is a forest
        else:
            self._masks = frozenset(f if isinstance(f, int) else _mask_of(f, n) for f in members)
            self._bridge_addable = None

    @property
    def masks(self) -> frozenset:
        if self._masks is None:
            self._masks = frozenset(_forest_masks(self.n))
        return self._masks

    @property
    def members(self):
        return frozenset(self)

    def __len__(self):
        return forest_total(self.n) if self._every else len(self.masks)

    def __iter__(self):
        return (_forest_of(self.n, m) for m in self.masks)

    def __contains__(self, f):
        return f.n == self.n and (self._every or _mask_of(f, self.n) in self.masks)

    def sorted_members(self):
        return [_forest_of(self.n, m) for m in sorted(self.masks, key=_sort_key)]

    def _component_counts(self) -> Counter:
        """Number of members with i components, for each i that occurs."""
        if self._every:
            return Counter({i: forest_count(self.n, i) for i in range(1, self.n + 1)})
        return Counter(self.n - mask.bit_count() for mask in self.masks)

    @cached_property
    def _tally(self) -> Counter:
        """(far-centroid code, small code or None) -> members; see the module docstring."""
        if self._every:
            return _shape_tally(self)
        return Counter(_shape_key(self.n, m)[1:] for m in self.masks if self.n - m.bit_count() <= 2)

    def histogram(self, catalog: Catalog) -> "ClassHistogram":
        """The tally with each code mapped to its alpha under `catalog`."""
        if catalog.key not in self._hists:
            alphas = {code: _pendant_alpha(code, catalog) for code in {code for code, _ in self._tally}}
            a_alpha, b_alpha = Counter(), {}
            for (code, ucode), k in self._tally.items():
                amap = a_alpha if ucode is None else b_alpha.setdefault(ucode, Counter())
                amap[alphas[code]] += k
            self._hists[catalog.key] = ClassHistogram(
                self.n, len(self), self._component_counts(), a_alpha, b_alpha)
        return self._hists[catalog.key]

    def __repr__(self):
        return f"ForestClass(n={self.n}, members={len(self)}, provenance={self.provenance!r})"


def all_forests(n: int) -> ForestClass:
    """Every labeled forest on n vertices, counted from free trees."""
    return ForestClass(n, None, provenance="all-forests")


@dataclass(frozen=True)
class BridgeAddableCheck:
    ok: bool
    witness_forest: LabeledForest | None
    witness_edge: tuple | None


def _bridges(f: LabeledForest):
    """Every edge joining two components of f: component pairs in
    `components()` order, then endpoints in increasing label order."""
    comps = [sorted(c) for c in f.components()]
    for i, first in enumerate(comps):
        for second in comps[i + 1 :]:
            for u in first:
                for v in second:
                    yield (u, v) if u < v else (v, u)


def is_bridge_addable(c: ForestClass) -> BridgeAddableCheck:
    """True iff adding any edge between two components of a member lands in
    the class; otherwise a witness (member, missing edge) is returned: the
    first member in sort order with a bridge out of the class, and its
    first such bridge in `_bridges` order."""
    n, masks = c.n, c.masks
    failing = [  # a connected member has no bridge
        m for m in masks
        if m.bit_count() < n - 1 and any(m | 1 << i not in masks for i in _bridge_bits(n, m))
    ]
    c._bridge_addable = not failing
    if not failing:
        return BridgeAddableCheck(True, None, None)
    mask = min(failing, key=_sort_key)
    f, bits = _forest_of(n, mask), _pair_bits(n)
    edge = next(e for e in _bridges(f) if mask | bits[e] not in masks)
    return BridgeAddableCheck(False, f, edge)


def _class_is_bridge_addable(c: ForestClass) -> bool:
    if c._bridge_addable is None:
        c._bridge_addable = is_bridge_addable(c).ok
    return c._bridge_addable


def bridge_addable_closure(seeds) -> ForestClass:
    """Smallest bridge-addable class containing the seed forests; past
    CLOSURE_MAX_MEMBERS members it raises CapacityError."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed forest")
    n = seeds[0].n
    if any(f.n != n for f in seeds):
        raise ValueError("seed forests have mixed n")
    seen = {_mask_of(f, n) for f in seeds}
    queue = list(seen)
    while queue:
        mask = queue.pop()
        for i in _bridge_bits(n, mask):
            if mask | 1 << i not in seen:
                seen.add(mask | 1 << i)
                queue.append(mask | 1 << i)
        if len(seen) > CLOSURE_MAX_MEMBERS:
            raise CapacityError(f"bridge-addable closure capped at {CLOSURE_MAX_MEMBERS} members")
    cls = ForestClass(n, seen, provenance="closure")
    cls._bridge_addable = True
    return cls


def random_closure(n: int, seed: int) -> ForestClass:
    """Bridge-addable closure of three random forests.

    Seeds are uniform forests with each edge then kept with probability
    1/2, which spreads the component counts (uniform forests alone are
    almost always near-trees and give tiny closures).
    """
    _pairs(n)  # refuses an n past EXPLICIT_MAX_N before the draws
    rng = random.Random(seed)
    seeds = []
    for _ in range(3):
        f = sample_forest(n, rng=rng)
        kept = [e for e in sorted(f.edges) if rng.random() < 0.5]
        seeds.append(LabeledForest.make(n, kept))
    cls = bridge_addable_closure(seeds)
    cls.provenance = f"random-closure(seed={seed}, num_seeds=3)"
    return cls


# ---------------------------------------------------------------------------
# histograms and boxes


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in statistics space: coordinates in
    [lower, lower + width), with a radius-q neighbourhood
    [lower - q, lower + width + q).  Half-open on the upper side."""

    lower: tuple
    width: int
    q: int

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.q < 0:
            raise ValueError("q must be >= 0")
        if any(x < 0 for x in self.lower):
            raise ValueError("lower corner must be non-negative")

    def contains(self, alpha, margin: int = 0) -> bool:
        """alpha lies in the box grown by `margin` on every side; margin=q
        gives the neighbourhood."""
        return all(l - margin <= a < l + self.width + margin for l, a in zip(self.lower, alpha))


@dataclass
class ClassHistogram:
    """Exact per-statistics tallies of a class under a catalog."""

    n: int
    size: int
    component_counts: dict
    a_alpha: dict  # alpha tuple -> count of connected members
    b_alpha: dict  # small-component code -> alpha tuple -> count

    @property
    def b_totals(self) -> dict:
        """Small-component code -> count of two-component members."""
        return {code: sum(amap.values()) for code, amap in self.b_alpha.items()}

    def box_counts(self, box: Box, codes):
        """(A, {code: B}): A counts the connected members with statistics in
        the box's q-neighbourhood, and B, for each small-component code in
        `codes`, the two-component members with statistics in the box."""
        a = sum(k for alpha, k in self.a_alpha.items() if box.contains(alpha, box.q))
        return a, {
            code: sum(k for alpha, k in self.b_alpha.get(code, {}).items() if box.contains(alpha))
            for code in codes
        }


def _shape_tally(c: ForestClass) -> Counter:
    """The tally of every forest on c.n vertices, counted from free trees
    as the module docstring describes."""
    n = c.n
    by_size: dict = {}  # size -> (unrooted code, aut_u, {centroid rooting: labelings})
    for r, aut_u, code, halves in treekit.fold_unrooted(n, treekit.SINGLE_VERTEX_CODE, treekit._hang):
        far = treekit._hang(*halves) if halves else code
        # each rooting gets half the labelings, a code that is both gets all
        rootings = {key: factorial(r) // aut_u * k // 2 for key, k in Counter((code, far)).items()}
        by_size.setdefault(r, []).append((min(code, far), aut_u, rootings))
    tally = Counter()
    for _, _, rootings in by_size[n]:
        for code, k in rootings.items():
            tally[code, None] += k
    for r in range((n + 1) // 2, n):
        for (u1, _, rootings), (u2, aut2, _) in itertools.product(by_size[r], by_size[n - r]):
            if 2 * r > n:
                label_sets, key = comb(n, r), u2
            else:  # the component holding vertex 1 is the reference and the small one
                label_sets, key = comb(n - 1, r - 1), u1
            ways = label_sets * factorial(n - r) // aut2
            for code, k in rootings.items():
                tally[code, key] += ways * k
    return tally


def _box_setup(c: ForestClass, catalog: Catalog, w: int):
    """Refuse a width below 1 or a class that is not bridge-addable; give
    the radius q (catalog.q_star) and the class histogram."""
    if w < 1:
        raise ValueError(f"box width w must be >= 1, got {w}")
    if not _class_is_bridge_addable(c):
        raise ValueError("class is not bridge-addable")
    return catalog.q_star, c.histogram(catalog)


def _candidate_boxes(hist: ClassHistogram, catalog: Catalog, w: int, q: int):
    """Lower corners of every width-w box holding at least one
    two-component member with small component in u0.  All other boxes
    satisfy the counting inequalities vacuously (their two-component
    counts are zero)."""
    lowers = set()
    for ucode, amap in hist.b_alpha.items():
        if ucode not in catalog.u0_index:
            continue
        for alpha in amap:  # offsets past a coordinate would give negative corners
            for offs in itertools.product(*(range(min(w, a + 1)) for a in alpha)):
                lowers.add(tuple(a - o for a, o in zip(alpha, offs)))
    return [Box(lower=l, width=w, q=q) for l in sorted(lowers)]


# ---------------------------------------------------------------------------
# class-derived weight vectors


def ratio_weights(c: ForestClass, catalog: Catalog, box: Box):
    """The `weights.WeightVector` of two-component/connected count ratios
    on a box:

        z[U] = aut_u(U) * B_box(U) / A_boxq * (1 - |U|/n)

    where B_box(U) counts two-component members with small component U and
    statistics in the box, and A_boxq counts connected members with
    statistics in the box's q-neighbourhood.  Coordinates with B_box(U)=0
    are 0 regardless of A_boxq.  A box whose dimension is not |t0| raises
    ValueError.
    """
    from .weights import WeightVector  # weights loads only where ratio weights are built

    if len(box.lower) != len(catalog.t0):
        raise ValueError(f"box has {len(box.lower)} coordinates, the catalog's t0 has {len(catalog.t0)}")
    a_count, b_counts = c.histogram(catalog).box_counts(box, catalog.u0_index)
    entries = {}
    for u in catalog.u0:
        b_count = b_counts[u.code]
        if b_count and not a_count:
            raise BridgeAddabilityViolation(
                f"B^{u.code} is {b_count} on {box} but the connected count is 0"
            )
        entries[u.code] = Fraction(u.aut_u * b_count, a_count or 1) * Fraction(c.n - u.size, c.n)
    return WeightVector.over(catalog, entries)


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class SimpleCountingReport:
    ok: bool
    n: int
    comparisons: list  # (i, i*count(i+1), count(i))
    ratios: list  # count(i+1)/count(i) as Fraction, or None when count(i)=0


def verify_simple_counting(c: ForestClass) -> SimpleCountingReport:
    """Check i * |members with i+1 components| <= |members with i
    components| for every i, which double counting on edge deletion
    guarantees for bridge-addable classes."""
    if not _class_is_bridge_addable(c):
        raise ValueError("class is not bridge-addable")
    counts = c._component_counts()
    comparisons = [(i, i * counts[i + 1], counts[i]) for i in range(1, c.n)]
    ratios = [Fraction(counts[i + 1], counts[i]) if counts[i] else None for i in range(1, c.n)]
    ok = all(lhs <= rhs for _, lhs, rhs in comparisons)
    return SimpleCountingReport(ok=ok, n=c.n, comparisons=comparisons, ratios=ratios)


@cache
def _admissible_splits(catalog: Catalog):
    """Splits of t0 trees usable in the local counting inequality: regular
    splits need the root side in t0 and the pendant side in u0; the
    degenerate rows cover whole trees of t0 that belong to u0 as unrooted
    trees (the removed piece is the entire tree).  Built once per catalog object."""
    rows = []
    for t in catalog.t0:
        if t.size >= 2:
            for s in treekit.splits(t):
                if s.t_minus.code in catalog.t0_index and s.u_plus.code in catalog.u0_index:
                    rows.append(("split", t.code, s.t_minus.code, s.u_plus.code,
                                 s.m_edge, s.m_vminus, s.n_vplus))
        u_code = treekit._unrooted_code(t.code)
        if u_code in catalog.u0_index:
            rows.append(("degenerate", t.code, None, u_code, 1, None, treekit._orbits(u_code)[1][t.code][1]))
    return tuple(rows)


@dataclass
class LocalCountingReport:
    ok: bool
    n: int
    w: int
    q: int
    boxes_checked: int
    checks: int
    failures: list
    grid_size: int  # total number of grid boxes, checked ones included


def verify_local_double_counting(c: ForestClass, catalog: Catalog, w: int = 1) -> LocalCountingReport:
    """Exact check of the box-local double counting inequality

        m_edge * (alpha[T] + w + q) * A_boxq
            >= n_vplus * m_vminus * alpha[T_minus] * B_box(U_plus)

    for every admissible split (plus its degenerate whole-tree form, where
    the right side is n_root * (n - |T|) * B_box(T)), with alpha the box's
    lower corner, on every grid box that holds two-component mass; all
    remaining grid boxes have B_box = 0 and pass vacuously.
    """
    q, hist = _box_setup(c, catalog, w)
    boxes = _candidate_boxes(hist, catalog, w, q)
    rows = _admissible_splits(catalog)
    t0_at = catalog.t0_index
    failures = []
    for bx in boxes:
        a_count, b_counts = hist.box_counts(bx, catalog.u0_index)
        alpha = bx.lower
        # a degenerate row has m_edge = 1, and n_root where a split has n_vplus
        for kind, parent, t_minus, u_plus, m_edge, m_vminus, n_vplus in rows:
            lhs = m_edge * (alpha[t0_at[parent]] + w + q) * a_count
            if kind == "split":
                rhs = n_vplus * m_vminus * alpha[t0_at[t_minus]] * b_counts[u_plus]
            else:
                rhs = n_vplus * (c.n - parent.count("(")) * b_counts[u_plus]
            if lhs < rhs:
                failures.append(
                    {"box": bx, "kind": kind, "parent": parent, "t_minus": t_minus,
                     "u_plus": u_plus, "lhs": lhs, "rhs": rhs}
                )
    return LocalCountingReport(
        ok=not failures,
        n=c.n,
        w=w,
        q=q,
        boxes_checked=len(boxes),
        checks=len(boxes) * len(rows),
        failures=failures,
        grid_size=c.n ** len(catalog.t0),
    )


@dataclass
class SumBoundReport:
    ok: bool
    n: int
    w: int
    q: int
    bound_constant: int
    boxes_checked: int
    failures: list
    precondition_violations: list
    max_value: Fraction | None


def verify_weight_sum_bound(c: ForestClass, catalog: Catalog, w: int = 1) -> SumBoundReport:
    """Check that the t0 partition function of the class's ratio weights
    stays below 1 + C/n with C = (w+q) * (2 t_max)^(t_max-1) * |t0|, on
    every box whose lower corner satisfies sum(alpha) <= n-1.

    Corners violating that constraint are reported separately (the bound
    is not claimed there).  Boxes without two-component mass have zero
    weights and pass trivially.
    """
    from . import weights

    q, hist = _box_setup(c, catalog, w)
    boxes = _candidate_boxes(hist, catalog, w, q)
    t_max = catalog.t_max
    const = (w + q) * (2 * t_max) ** (t_max - 1) * len(catalog.t0)
    bound = 1 + Fraction(const, c.n)
    failures = []
    precondition_violations = []
    max_value = None
    for bx in boxes:
        if sum(bx.lower) > c.n - 1:
            precondition_violations.append(bx)
            continue
        z = ratio_weights(c, catalog, bx)
        y = weights.rooted_series_family(z, catalog.t0, catalog)
        if max_value is None or y > max_value:
            max_value = y
        if y > bound:
            failures.append({"box": bx, "value": y, "bound": bound})
    return SumBoundReport(
        ok=not failures,
        n=c.n,
        w=w,
        q=q,
        bound_constant=const,
        boxes_checked=len(boxes),
        failures=failures,
        precondition_violations=precondition_violations,
        max_value=max_value,
    )


# ---------------------------------------------------------------------------
# box partitioning search


@dataclass
class BoxingReport:
    ok: bool
    n: int
    w: int
    q: int
    epsilon: float
    shift: tuple | None
    boxes: list
    capture: dict  # small-component code -> (captured, total)
    min_fraction: float
    search_mode: str
    guarantee_applies: bool  # the averaging size condition held


def boxing_search(c: ForestClass, catalog: Catalog, w: int, epsilon: float) -> BoxingReport:
    """Deterministic search for a family of width-w boxes, pairwise 2q
    apart, capturing at least a (1-epsilon) fraction of the two-component
    members for every small-component type in u0.

    Candidate families come from shifting a fixed grid whose good region
    is a union of width-w boxes separated by 2q in every coordinate; the
    shift only matters modulo the period w + 2q, so all distinct patterns
    are covered by the
    (w+2q)^d shift classes.  When that space is too large the search
    degrades to diagonal shifts and reports it.  If no shift reaches the
    target the best one found is returned with ok=False.
    """
    q, hist = _box_setup(c, catalog, w)
    period = w + 2 * q
    d = len(catalog.t0)
    b_totals = hist.b_totals
    totals = {u.code: b_totals.get(u.code, 0) for u in catalog.u0}
    relevant = {code: amap for code, amap in hist.b_alpha.items() if code in catalog.u0_index}

    if period**d <= 200_000:
        shift_space = itertools.product(range(period), repeat=d)
        search_mode = "full"
    else:
        shift_space = ((t,) * d for t in range(period))
        search_mode = "diagonal"

    def good(alpha, shift):
        """alpha lies in a box of the grid shifted by `shift`."""
        return all(a >= b and (a - b) % period < w for a, b in zip(alpha, shift))

    eps = Fraction(str(epsilon))  # read decimally: 0.18 means 9/50
    best_min, ok = -1, False
    for shift in shift_space:
        cap = {
            code: sum(cnt for alpha, cnt in amap.items() if good(alpha, shift))
            for code, amap in relevant.items()
        }
        fracs = [Fraction(cap[code], totals[code]) for code in cap if totals[code] > 0]
        min_frac = min(fracs, default=Fraction(1))
        if min_frac > best_min:
            best_min, best_shift, best_capture = min_frac, tuple(shift), cap
        if min_frac >= 1 - eps:
            ok = True
            break

    boxes = {
        tuple(b + period * ((a - b) // period) for a, b in zip(alpha, best_shift))
        for amap in relevant.values()
        for alpha in amap
        if good(alpha, best_shift)
    }
    box_list = [Box(lower=l, width=w, q=q) for l in sorted(boxes)]

    n = c.n
    lhs = 1 - (1 - Fraction(w + 2 * q, n)) ** d / (1 + Fraction(2 * q, w)) ** d
    guarantee = lhs <= eps / len(catalog.u0)

    return BoxingReport(
        ok=ok,
        n=n,
        w=w,
        q=q,
        epsilon=epsilon,
        shift=best_shift,
        boxes=box_list,
        capture={code: (best_capture.get(code, 0), totals[code]) for code in totals},
        min_fraction=float(best_min),
        search_mode=search_mode,
        guarantee_applies=guarantee,
    )


# ---------------------------------------------------------------------------
# file formats


def _is_edge_list(edges) -> bool:
    return isinstance(edges, list) and all(
        isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges
    )


def load_class(path) -> ForestClass:
    """Read a class file, {"n": n, "forests": [[[u, v], ...], ...]} with
    one edge list per member.  A file that is not JSON, whose n is not an
    int >= 1, whose forests are not a non-empty list of edge lists of int
    pairs, or whose edge lists are not forests on 1..n (an edge given twice
    included) raises ValueError naming the file."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            payload = {}
        n, forests = payload.get("n"), payload.get("forests")
        if not (_is_int(n) and n >= 1 and isinstance(forests, list) and forests
                and all(map(_is_edge_list, forests))):
            raise ValueError("expected {\"n\": an int >= 1, "
                             "\"forests\": a non-empty list of edge lists [[u, v], ...]}")
        members = [LabeledForest.make(n, [tuple(e) for e in edges]) for edges in forests]
    except ValueError as exc:
        raise ValueError(f"class file {path}: {exc}") from None
    return ForestClass(n, members, provenance=f"file:{path}")
