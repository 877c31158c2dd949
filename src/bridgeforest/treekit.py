"""Canonical forms, enumeration, automorphism counts, and edge splits for
unlabeled trees.

A rooted tree is encoded as a balanced-parentheses string: a vertex is
``"(" + <child codes> + ")"`` with the child codes concatenated in
non-increasing lexicographic order.  Two rooted trees are isomorphic as
rooted trees iff their codes are equal.  An unrooted tree is encoded by
rooting it at its weight centroid (the lexicographically smaller of the
two codes when the tree has a centroid pair), which again makes string
equality coincide with isomorphism.  `_centroid_rootings` gives both
centroid rootings from one size pass and one encode.

Vertex indices accepted by `attach` and reported by `splits` refer to the
depth-first preorder of the canonical representative, i.e. the order in
which the ``"("`` characters appear in the code string.  `_blocks` is the
one place that reads the code format and numbers the vertices so: it gives
each one's parent and balanced block, and refuses any other string.
`code_to_adjacency` recovers the representative from it, canonical or not.
A subtree is one balanced block of the code, so cutting an edge and hanging
a subtree are string edits that keep the index of every earlier vertex.

Vertex orbits come from the same codes, with no re-encoding per vertex.
Under root-fixing automorphisms a vertex's orbit key is the subtree codes
along its path from the root, joined; under all automorphisms it is the
code of the tree rooted at that vertex.  Two vertices share an orbit iff
their keys are equal.  `_orbits` records each free tree and its orbit sizes
and first vertices from one decode, for `splits`, `weights` and `forestlab`.

Trees are generated in one place: `_fold_rooted` builds every rooted tree
as a root plus a multiset of smaller rooted trees, and `fold_unrooted`
builds every unrooted tree from a centroid the same way.  Folding `_hang`
over the child codes gives the canonical codes that `enumerate_rooted` and
`enumerate_unrooted` list; the fold hands out a two-centroid tree's halves,
which give its code at the other centroid without re-encoding.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from . import CapacityError, labeled_tree_count  # in the package, so cli and forests skip treekit

__all__ = [
    "CapacityError",
    "NonTreeError",
    "CatalogError",
    "check_inclusion_closed",
    "RootedTreeCode",
    "UnrootedTreeCode",
    "EdgeSplit",
    "Catalog",
    "IdentityCheck",
    "CayleyCheck",
    "canonicalize_rooted",
    "canonicalize_unrooted",
    "enumerate_rooted",
    "enumerate_unrooted",
    "fold_unrooted",
    "splits",
    "verify_aut_identity",
    "attach",
    "cayley_identity_check",
    "labeled_tree_count",
    "code_to_adjacency",
    "SINGLE_VERTEX_CODE",
]

# enumerate_rooted/enumerate_unrooted build a code object per tree and are
# meant for desk-scale work; sizes past this bound are refused rather than
# silently attempted.
DEFAULT_MAX_SIZE = 16

# fold_unrooted with cheap values reaches further: the 205,004 trees with
# at most 18 vertices take about half a second.
FREE_TREE_MAX_SIZE = 18

SINGLE_VERTEX_CODE = "()"


class NonTreeError(ValueError):
    """Input edge list is not a tree (cycle, multi-edge, or disconnected)."""


class CatalogError(ValueError):
    """Tree catalog violates a structural requirement."""


@dataclass(frozen=True)
class RootedTreeCode:
    """Canonical code of an unlabeled rooted tree.

    aut_r is the number of automorphisms fixing the root, exact.
    Instances are produced by the canonicalization and enumeration
    functions in this module; the fields are mutually consistent.
    """

    code: str
    size: int
    aut_r: int

    def __lt__(self, other: "RootedTreeCode") -> bool:
        return (self.size, self.code) < (other.size, other.code)


@dataclass(frozen=True)
class UnrootedTreeCode:
    """Canonical code of an unlabeled unrooted tree.

    The code is the rooted code at the canonical centroid.  aut_u counts
    all automorphisms.  centroid_kind is "one-centroid" or "two-centroid".
    """

    code: str
    size: int
    aut_u: int
    centroid_kind: str

    def __lt__(self, other: "UnrootedTreeCode") -> bool:
        return (self.size, self.code) < (other.size, other.code)


@dataclass(frozen=True)
class EdgeSplit:
    """One edge orbit of a rooted tree, split into root side and pendant side.

    m_edge is the size of the edge orbit in `parent` under root-fixing
    automorphisms, m_vminus the orbit size of the attachment vertex in
    `t_minus` (rooted), n_vplus the orbit size of the attachment vertex in
    `u_plus` (unrooted).
    """

    parent: RootedTreeCode
    t_minus: RootedTreeCode
    u_plus: UnrootedTreeCode
    m_edge: int
    m_vminus: int
    n_vplus: int


@dataclass(frozen=True)
class IdentityCheck:
    """Certificate for the edge/vertex multiplicity identity of a split."""

    ok: bool
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class CayleyCheck:
    ok: bool
    n: int
    rooted_sum: int
    rooted_expected: int
    unrooted_sum: int
    unrooted_expected: int


# ---------------------------------------------------------------------------
# adjacency plumbing


def _build_adjacency(edges, extra_vertices=()):
    """Build an index-labeled adjacency list from an edge list.

    Returns (adj, labels) where labels[i] is the original label of vertex i.
    Raises NonTreeError on self-loops, repeated edges, or when the edge
    count does not match a tree on the touched vertex set.
    """
    labels = sorted({v for e in edges for v in e} | set(extra_vertices))
    if not labels:
        raise NonTreeError("empty input: no vertices")
    index = {v: i for i, v in enumerate(labels)}
    adj = [[] for _ in labels]
    seen = set()
    for u, v in edges:
        if u == v:
            raise NonTreeError(f"self-loop at {u}")
        key = (index[u], index[v]) if index[u] < index[v] else (index[v], index[u])
        if key in seen:
            raise NonTreeError(f"repeated edge {u}-{v}")
        seen.add(key)
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    if len(seen) != len(labels) - 1:
        raise NonTreeError(
            f"{len(labels)} vertices need {len(labels) - 1} edges, got {len(seen)}"
        )
    return adj, labels


def _tree_order(adj, root):
    """Breadth-first order (every parent before its children) and parent
    array of the tree rooted at root (parent[root] is -1).  Raises
    NonTreeError if the traversal misses a vertex."""
    parent = [-2] * len(adj)
    parent[root] = -1
    order = [root]
    for v in order:
        for u in adj[v]:
            if parent[u] == -2:
                parent[u] = v
                order.append(u)
    if len(order) != len(adj):
        raise NonTreeError("edge list is disconnected")
    return order, parent


def _subtree_codes(adj, root):
    """Breadth-first order and parents (`_tree_order`), and the rooted code
    and aut_r of every vertex's subtree in the tree rooted at root."""
    order, parent = _tree_order(adj, root)
    codes = [""] * len(adj)
    auts = [1] * len(adj)
    for v in reversed(order):
        p = parent[v]
        pairs = [(codes[u], auts[u]) for u in adj[v] if u != p]
        if not pairs:  # a leaf
            codes[v] = "()"
            continue
        pairs.sort(reverse=True)
        aut = 1
        run = 0
        prev = None
        for code, kid_aut in pairs:
            run = run + 1 if code == prev else 1
            aut *= kid_aut * run
            prev = code
        codes[v] = "(" + "".join([code for code, _ in pairs]) + ")"
        auts[v] = aut
    return order, parent, codes, auts


def _encode(adj, root):
    """Canonical code and aut_r of the tree rooted at root."""
    _, _, codes, auts = _subtree_codes(adj, root)
    return codes[root], auts[root]


def _blocks(code: str):
    """Parent (-1 for the root), start and end of every vertex of a code's
    representative in preorder: v's subtree is code[start[v]:end[v]].
    Raises ValueError unless code is one balanced block."""
    parent, start, end, v = [], [], [0] * code.count("("), -1  # v: the innermost open vertex
    for j, ch in enumerate(code):
        if ch == "(" and (v >= 0 or not start):  # not a second root
            parent.append(v)
            v = len(start)
            start.append(j)
        elif ch == ")" and v >= 0:
            end[v] = j + 1
            v = parent[v]
        elif ch in "()":
            raise ValueError(f"unbalanced code {code!r}")
        else:
            raise ValueError(f"unexpected character {ch!r} in code {code!r}")
    if v >= 0 or not start:
        raise ValueError(f"unbalanced code {code!r}")
    return parent, start, end


def code_to_adjacency(code: str):
    """Adjacency list of the canonical representative of a code string, in
    the vertex numbering of `_blocks`."""
    parent = _blocks(code)[0]
    adj = [[p] for p in parent]  # each vertex's parent first, then its children
    adj[0].pop()
    for v in range(1, len(parent)):
        adj[parent[v]].append(v)
    return adj


def _rooted_from_adj(adj, root) -> RootedTreeCode:
    code, aut = _encode(adj, root)
    return RootedTreeCode(code=code, size=len(adj), aut_r=aut)


def _centroid_rootings(adj):
    """The codes of the tree rooted at its centroid c nearest vertex 0 and
    at the one farthest from it (the same code when it has one centroid),
    aut_r at c, and whether it has two centroids.  Rooted at 0, the vertices
    with more than half of the tree below them form a path down from 0; c is
    the deepest, the last breadth-first (every parent before its children).
    A child d of c with exactly half below it is the other centroid; rooted
    at d, the tree is d's subtree with the rest of c hung below it."""
    n = len(adj)
    order, parent = _tree_order(adj, 0)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    c = [v for v in order if 2 * size[v] > n][-1]
    d = next((v for v in order if 2 * size[v] == n), c)
    _, _, codes, auts = _subtree_codes(adj, c)
    if c == d:
        return codes[c], codes[c], auts[c], False
    rest = sorted((codes[u] for u in adj[c] if u != d), reverse=True)
    return codes[c], _hang(codes[d], "(" + "".join(rest) + ")"), auts[c], True


def _unrooted_from_adj(adj) -> UnrootedTreeCode:
    """Canonical unrooted code and aut_u from both centroid rootings: the
    smaller code, and aut_r at a centroid, doubled when an automorphism
    swaps two centroids."""
    near, far, aut, two = _centroid_rootings(adj)
    kind = "two-centroid" if two else "one-centroid"
    return UnrootedTreeCode(min(near, far), len(adj), aut * (2 if two and near == far else 1), kind)


@cache
def _unrooted_code(rooted_code: str) -> str:
    """Unrooted code of the tree with this rooted code."""
    return _unrooted_from_adj(code_to_adjacency(rooted_code)).code


def _rooted_vertex_orbit_keys(adj, root):
    """Orbit key of every vertex under root-fixing automorphisms (the
    subtree codes along its path from the root, joined; equal keys mean
    the same orbit), and aut_r.  The root's key is the tree's code."""
    order, parent, codes, auts = _subtree_codes(adj, root)
    keys = [""] * len(adj)
    keys[root] = codes[root]
    for v in order[1:]:
        keys[v] = keys[parent[v]] + codes[v]
    return keys, auts[root]


def _reroot(adj):
    """Rooted at vertex 0, the codes of v's side of the edge to its parent
    rooted at v (down[v]), of the parent's side rooted at the parent (up[v],
    "" for vertex 0) and of the tree rooted at v (keys[v]).  One pass down
    gives down; one pass back down gives each child its up, the rest of
    the tree hung at its parent."""
    order, parent, down, _ = _subtree_codes(adj, 0)
    up, keys = [""] * len(adj), [""] * len(adj)
    for v in order:
        kids = [u for u in adj[v] if u != parent[v]]
        blocks = sorted([down[u] for u in kids] + [up[v]] * (v != 0), reverse=True)
        keys[v] = "(" + "".join(blocks) + ")"
        for u in kids:
            rest = list(blocks)
            rest.remove(down[u])
            up[u] = "(" + "".join(rest) + ")"
    return down, up, keys


@cache
def _orbits(code: str):
    """The unrooted tree `code` and its orbit map, from one decode: orbit
    key -> (preorder index of the orbit's first vertex, orbit size) in the
    canonical representative."""
    adj = code_to_adjacency(code)
    keys = _reroot(adj)[2]  # v's key under all automorphisms: the tree rooted at v
    return _unrooted_from_adj(adj), {key: (keys.index(key), keys.count(key)) for key in dict.fromkeys(keys)}


# ---------------------------------------------------------------------------
# canonicalization


def canonicalize_rooted(edges, root) -> RootedTreeCode:
    """Canonical code of the tree given by `edges`, rooted at `root`.

    Isomorphic rooted inputs yield identical codes; the root-fixing
    automorphism count is computed in the same pass.
    """
    adj, labels = _build_adjacency(edges, extra_vertices=() if edges else (root,))
    if root not in labels:
        raise NonTreeError(f"root {root} is not a vertex of the input")
    return _rooted_from_adj(adj, labels.index(root))


def canonicalize_unrooted(edges, vertices=()) -> UnrootedTreeCode:
    """Canonical code of the unrooted tree given by `edges`.

    `vertices` can name isolated vertices (needed only for the
    single-vertex tree, which has no edges).
    """
    adj, _ = _build_adjacency(edges, extra_vertices=vertices)
    return _unrooted_from_adj(adj)


# ---------------------------------------------------------------------------
# enumeration

def _hang(parent: str, child: str) -> str:
    """Rooted code of `parent` with `child` hung below its root: the child's
    block goes among the root's child blocks in non-increasing order."""
    depth, start = 0, 1
    for j in range(1, len(parent) - 1):
        depth += 1 if parent[j] == "(" else -1
        if depth == 0:
            if parent[start : j + 1] < child:
                break
            start = j + 1
    return parent[:start] + child + parent[start:]


def _check_enumeration_size(k: int) -> None:
    if k < 1:
        raise ValueError("size bound must be >= 1")
    if k > DEFAULT_MAX_SIZE:
        raise CapacityError(f"size bound {k} exceeds exhaustive limit {DEFAULT_MAX_SIZE}")


def enumerate_rooted(k: int):
    """All rooted unlabeled trees with 1..k vertices, one code per
    isomorphism class, ordered by (size, code)."""
    _check_enumeration_size(k)
    sizes, auts, codes = _fold_rooted(k, SINGLE_VERTEX_CODE, _hang)
    return sorted(RootedTreeCode(c, n, a) for n, a, c in zip(sizes, auts, codes))


def enumerate_unrooted(k: int):
    """All unrooted unlabeled trees with 1..k vertices, ordered by
    (size, code)."""
    _check_enumeration_size(k)
    return sorted(
        UnrootedTreeCode(min(code, _hang(*halves)), n, aut, "two-centroid")
        if halves
        else UnrootedTreeCode(code, n, aut, "one-centroid")
        for n, aut, code, halves in fold_unrooted(k, SINGLE_VERTEX_CODE, _hang)
    )


def _child_multisets(sizes, auts, vals, hi, budget, root, attach):
    """Every non-empty multiset of the rooted trees 0..hi (parallel lists
    ordered by size) with at most `budget` vertices in total, as (total,
    largest member size, value, aut): value folds attach over the members
    starting from root, aut is the product of the members' aut_r times m!
    for each member taken m times.  Members are taken in non-increasing
    index order, so each multiset is produced once."""
    stack = [(hi, 0, 0, root, 1, -1, 0)]
    while stack:
        top, total, largest, val, aut, last, run = stack.pop()
        # start at the largest member that still fits the budget
        for i in range(min(top, bisect_right(sizes, budget - total) - 1), -1, -1):
            t = total + sizes[i]
            r = run + 1 if i == last else 1
            v = attach(val, vals[i])
            a = aut * auts[i] * r
            f = largest or sizes[i]
            yield t, f, v, a
            stack.append((i, t, f, v, a, i, r))


def _fold_rooted(m, root, attach):
    """Parallel lists (sizes, aut_r, values) of the rooted trees with 1..m
    vertices, each a root plus a multiset of smaller rooted trees."""
    sizes, auts, vals = [1], [1], [root]
    for s in range(2, m + 1):
        grown = [
            (a, v)
            for t, _, v, a in _child_multisets(sizes, auts, vals, len(sizes) - 1, s - 1, root, attach)
            if t == s - 1
        ]
        for a, v in grown:
            sizes.append(s)
            auts.append(a)
            vals.append(v)
    return sizes, auts, vals


def fold_unrooted(k: int, root, attach):
    """Fold `attach` over every unrooted tree with 1..k vertices without
    building codes: an iterator of (size, aut_u, value, halves), one per
    isomorphism class, in no fixed order.

    The value of a rooted tree is `root` folded with attach over the values
    of its child subtrees, taken in no fixed order, so attach(attach(x, a),
    b) must equal attach(attach(x, b), a).  An unrooted tree is rooted at a
    centroid, either one when it has two.  One-centroid trees are a root
    with a multiset of branches of fewer than n/2 vertices each, and
    two-centroid trees an unordered pair of rooted halves of n/2 vertices
    joined at their roots; aut_u is the product of the branches' aut_r
    times m! for each branch repeated m times (times 2 for equal halves).
    halves is None, or for a two-centroid tree of value attach(a, b) it is
    (b, a), so that attach(*halves) is the value at the other centroid.
    """
    if k < 1:
        raise ValueError("size bound must be >= 1")
    if k > FREE_TREE_MAX_SIZE:
        raise CapacityError(f"size bound {k} exceeds free-tree limit {FREE_TREE_MAX_SIZE}")
    sizes, auts, vals = _fold_rooted(k // 2, root, attach)

    def trees():
        yield 1, 1, root, None
        hi = sum(1 for s in sizes if 2 * s < k) - 1
        for total, largest, val, aut in _child_multisets(sizes, auts, vals, hi, k - 1, root, attach):
            if 2 * largest <= total:
                yield total + 1, aut, val, None
        for i, si in enumerate(sizes):
            if 2 * si > k:
                break
            for j in range(sizes.index(si), i + 1):
                aut = auts[i] * auts[j] * (2 if i == j else 1)
                yield 2 * si, aut, attach(vals[i], vals[j]), (vals[j], vals[i])

    return trees()


# ---------------------------------------------------------------------------
# edge splits


def splits(t: RootedTreeCode):
    """One EdgeSplit per edge orbit of `t` under root-fixing automorphisms.

    An edge is identified with its endpoint farther from the root, so edge
    orbits are exactly the orbits of non-root vertices.  The orbit sizes
    m_edge over all splits sum to size-1.
    """
    if t.size < 2:
        raise ValueError("single-vertex tree has no edges to split")
    code = t.code
    parent, start, end = _blocks(code)
    keys = [code]
    for v in range(1, t.size):  # root-fixing orbit keys, in preorder
        keys.append(keys[parent[v]] + code[start[v] : end[v]])
    out = []
    for key in dict.fromkeys(keys[1:]):  # in order of their first vertex
        v = keys.index(key)
        # U+ is v's block, also v's orbit key in U+; in T-, v's parent keeps its index
        block = code[start[v] : end[v]]
        u_plus, u_orbits = _orbits(_unrooted_code(block))
        sub_t = code_to_adjacency(code[: start[v]] + code[end[v] :])
        t_keys, t_aut = _rooted_vertex_orbit_keys(sub_t, 0)
        out.append(
            EdgeSplit(
                parent=t,
                t_minus=RootedTreeCode(code=t_keys[0], size=len(sub_t), aut_r=t_aut),
                u_plus=u_plus,
                m_edge=keys.count(key),
                m_vminus=t_keys.count(t_keys[parent[v]]),
                n_vplus=u_orbits[block][1],
            )
        )
    return out


def verify_aut_identity(s: EdgeSplit) -> IdentityCheck:
    """Exact check of m_edge / aut_r(parent) ==
    m_vminus * n_vplus / (aut_r(t_minus) * aut_u(u_plus))."""
    lhs = Fraction(s.m_edge, s.parent.aut_r)
    rhs = Fraction(s.m_vminus * s.n_vplus, s.t_minus.aut_r * s.u_plus.aut_u)
    return IdentityCheck(ok=lhs == rhs, lhs=lhs, rhs=rhs)


def attach(
    t_minus: RootedTreeCode, v_index: int, u: UnrootedTreeCode, u_index: int
) -> RootedTreeCode:
    """Join `u` to `t_minus` by an edge between the addressed vertices and
    return the canonical code of the result, rooted at t_minus's root.

    Indices address the canonical representatives (depth-first preorder).
    """
    if not 0 <= v_index < t_minus.size:
        raise IndexError(f"v_index {v_index} out of range for size {t_minus.size}")
    if not 0 <= u_index < u.size:
        raise IndexError(f"u_index {u_index} out of range for size {u.size}")
    hung = _encode(code_to_adjacency(u.code), u_index)[0]
    at = _blocks(t_minus.code)[1][v_index] + 1
    return _rooted_from_adj(code_to_adjacency(t_minus.code[:at] + hung + t_minus.code[at:]), 0)


# ---------------------------------------------------------------------------
# catalogs


def check_inclusion_closed(rooted_family) -> None:
    """Raise CatalogError unless the family of rooted trees is closed under
    rooted inclusion (equivalently, under removing any single non-root
    leaf, a "()" after the root's "(")."""
    codes = {t.code for t in rooted_family}
    for t in rooted_family:
        _, start, end = _blocks(t.code)
        for j, e in zip(start[1:], end[1:]):
            if e - j == 2:
                code, _ = _encode(code_to_adjacency(t.code[:j] + t.code[e:]), 0)
                if code not in codes:
                    raise CatalogError(
                        f"family is not closed under rooted inclusion: removing a "
                        f"leaf from {t.code} gives {code}, which is missing"
                    )


class Catalog:
    """A pair of finite tree families: rooted trees t0 (closed under rooted
    inclusion) and unrooted trees u0 (containing the single-vertex tree).

    Families are kept in (size, code) order; `t0_index`/`u0_index` map code
    strings to positions, which is also the coordinate order of statistics
    vectors and weight vectors built over the catalog.
    """

    def __init__(self, t0, u0):
        self.t0 = tuple(sorted(t0))
        self.u0 = tuple(sorted(u0))
        if not self.t0 or not self.u0:
            raise CatalogError("catalog families must be non-empty")
        self.t_max = max(t.size for t in self.t0)
        self.u_max = max(u.size for u in self.u0)
        self.t0_index = {t.code: i for i, t in enumerate(self.t0)}
        self.u0_index = {u.code: i for i, u in enumerate(self.u0)}
        if len(self.t0_index) != len(self.t0) or len(self.u0_index) != len(self.u0):
            raise CatalogError("duplicate codes in catalog")
        if SINGLE_VERTEX_CODE not in self.u0_index:
            raise CatalogError("u0 must contain the single-vertex tree")
        check_inclusion_closed(self.t0)
        self.key = (
            tuple(t.code for t in self.t0),
            tuple(u.code for u in self.u0),
        )

    @property
    def q_star(self) -> int:
        """Neighbourhood radius used by the box-local counting checks.

        Adding a pendant tree of at most u_max vertices moves every pendant
        statistic by at most u_max, so u_max is a valid uniform radius.
        """
        return self.u_max

    @classmethod
    def standard(cls, t_max: int, u_max: int) -> "Catalog":
        """All rooted trees of size <= t_max and all unrooted trees of size
        <= u_max."""
        return cls(enumerate_rooted(t_max), enumerate_unrooted(u_max))

    def __repr__(self):
        return f"Catalog(t_max={self.t_max}, |t0|={len(self.t0)}, u_max={self.u_max}, |u0|={len(self.u0)})"


# ---------------------------------------------------------------------------
# classical identities


def cayley_identity_check(n: int) -> CayleyCheck:
    """Check that the enumerated codes account for all labeled trees:
    sum of n!/aut_r over rooted codes of size n equals n^(n-1), and
    sum of n!/aut_u over unrooted codes equals n^(n-2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    nf = factorial(n)
    rooted = sum(Fraction(nf, t.aut_r) for t in enumerate_rooted(n) if t.size == n)
    unrooted = sum(Fraction(nf, u.aut_u) for u in enumerate_unrooted(n) if u.size == n)
    r_exp = n * labeled_tree_count(n)
    u_exp = labeled_tree_count(n)
    ok = rooted == r_exp and unrooted == u_exp
    return CayleyCheck(
        ok=ok,
        n=n,
        rooted_sum=int(rooted) if rooted.denominator == 1 else rooted,
        rooted_expected=r_exp,
        unrooted_sum=int(unrooted) if unrooted.denominator == 1 else unrooted,
        unrooted_expected=u_exp,
    )
