"""Single labeled forests, their exact counts and the exactly uniform
sampler: everything the `forests` command computes, without treekit.
`forestlab` re-exports these names next to its class-level statistics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import ceil, comb, log, perm

from . import CapacityError, labeled_tree_count

__all__ = [
    "LabeledForest", "forest_count", "forest_total", "connectivity_prob", "two_component_ratio",
    "sample_forest", "sample_component_sizes",
]

# Exact probabilities are reported as digit strings, and Python refuses
# str() of an int with more than 4,300 digits (sys.get_int_max_str_digits).
# From n = 1,373 on, the reduced probability has a numerator or denominator
# that long, so JSON reports and CSV sweeps would fail; the cap stays a
# round margin below that.
EXACT_PROB_MAX_N = 1_000
# Every request that computes forest_total(n), an int of about n log10 n
# digits, exactly: logfloat probabilities and the sampler's first draw.
FOREST_TOTAL_MAX_N = 100_000


# ---------------------------------------------------------------------------
# forests


@dataclass(frozen=True)
class LabeledForest:
    """A forest on vertices 1..n; edges are (u, v) pairs with u < v."""

    n: int
    edges: frozenset

    def __post_init__(self):
        _check_n(self.n)
        for u, v in self.edges:  # ints but not bools, as _is_int; plain ints first
            if not ((type(u) is int is type(v) or _is_int(u) and _is_int(v))
                    and 1 <= u < v <= self.n):
                raise ValueError(f"bad edge {(u, v)} for n={self.n}")
        _union_find(self.n, self.edges)

    @classmethod
    def make(cls, n: int, edges) -> "LabeledForest":
        """The forest with these edges, either way round; a repeated edge raises ValueError."""
        pairs = [(u, v) if u < v else (v, u) for u, v in edges]
        norm = frozenset(pairs)
        if len(norm) < len(pairs):
            raise ValueError(f"edge {max(pairs, key=pairs.count)} is given twice")
        return cls(n=n, edges=norm)

    def components(self):
        """Vertex sets of the components, ordered by (size desc, min label)."""
        parent = _union_find(self.n, self.edges)
        groups: dict[int, list] = {}
        for v in range(1, self.n + 1):
            groups.setdefault(_find(parent, v), []).append(v)
        comps = [frozenset(g) for g in groups.values()]
        comps.sort(key=lambda c: (-len(c), min(c)))
        return tuple(comps)

    @property
    def component_count(self) -> int:
        return self.n - len(self.edges)

    @property
    def is_connected(self) -> bool:
        return self.component_count == 1

    def sort_key(self):
        return tuple(sorted(self.edges))


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union_find(n: int, edges):
    """Union-find parents over 0..n after joining the ends of every edge;
    an edge inside one tree raises ValueError."""
    parent = list(range(n + 1))
    for u, v in edges:
        ru, rv = u, v  # _find, inlined: path halving from each end
        while parent[ru] != ru:
            parent[ru] = ru = parent[parent[ru]]
        while parent[rv] != rv:
            parent[rv] = rv = parent[parent[rv]]
        if ru == rv:
            raise ValueError(f"edges contain a cycle through {(u, v)}")
        parent[ru] = rv
    return parent


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_n(n) -> None:
    if not (_is_int(n) and n >= 1):
        raise ValueError(f"n must be an int >= 1, got {n!r}")


# ---------------------------------------------------------------------------
# exact counts


def forest_count(n: int, k: int) -> int:
    """Number of labeled forests on n vertices with exactly k components.

    Rényi's formula: f(n, k) = (n!/k!) * sum over j <= min(k, n-k) of
    (-1/2)^j C(k, j) (k+j) n^(n-k-j-1) / (n-k-j)!.  Since
    n!/(k! (n-k-j)!) = C(n, k) (n-k)!/(n-k-j)!, the sum is taken in
    integers over the common denominator n 2^min(k, n-k).
    """
    if n < 1 or not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    top = min(k, n - k)
    scaled = sum(
        (-1) ** j * comb(k, j) * (k + j) * perm(n - k, j) * n ** (n - k - j) * 2 ** (top - j)
        for j in range(top + 1)
    )
    return comb(n, k) * scaled // (n * 2**top)


@cache
def forest_total(n: int) -> int:
    """Number of labeled forests on n vertices (any component count).

    Lagrange inversion of the forest EGF exp(T - T^2/2), where T = x e^T
    counts rooted trees, gives f(n) = He_{n-1}(n+1) - (n-1) He_{n-2}(n+1)
    in the probabilists' Hermite polynomials, with He_{-1} = 0
    (OEIS A001858: 1, 1, 2, 7, 38, ...).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    x = n + 1
    prev, cur = 0, 1  # He_{d-1}(x), He_d(x) at d = 0
    for d in range(n - 1):
        prev, cur = cur, x * cur - d * prev
    return cur - (n - 1) * prev


def connectivity_prob(n: int, mode: str = "exact"):
    """Probability that a uniform random forest on n vertices is connected.

    exact mode returns a Fraction; logfloat mode returns the float nearest
    to it (the exact integer quotient, correctly rounded), for n past the
    exact cap.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode == "exact":
        if n > EXACT_PROB_MAX_N:
            raise CapacityError(f"exact mode capped at n={EXACT_PROB_MAX_N}")
        return Fraction(labeled_tree_count(n), forest_total(n))
    if mode == "logfloat":
        if n > FOREST_TOTAL_MAX_N:
            raise CapacityError(f"logfloat mode capped at n={FOREST_TOTAL_MAX_N}")
        return labeled_tree_count(n) / forest_total(n)
    raise ValueError(f"unknown mode {mode!r}")


def two_component_ratio(n: int) -> Fraction:
    """forest_count(n, 2) / labeled_tree_count(n), exact."""
    if n < 2:
        raise ValueError("need n >= 2")
    return Fraction(forest_count(n, 2), labeled_tree_count(n))


# ---------------------------------------------------------------------------
# uniform sampling (recursive method on the exact counts)

def _draw_anchor_size(s: int, rng: random.Random) -> int:
    """Size of the component of the smallest of s vertices in a uniform
    forest.  It is a tree on m of the s vertices in C(s-1, m-1) * m^(m-2)
    ways, and forest_total(s-m) forests finish the rest.  For the draw r,
    the chosen m is the one whose cumulative weight over sizes 1..m first
    exceeds r.  That is m = 1 when r is below its weight forest_total(s-1);
    otherwise, walking down from the giant component m = s, it is the first
    m whose suffix weight reaches forest_total(s) - r."""
    total = forest_total(s)
    r = rng.randrange(total)
    if r < forest_total(s - 1):
        return 1
    left = total - r
    companions = 1  # C(s-1, m-1)
    for m in range(s, 1, -1):
        left -= companions * labeled_tree_count(m) * forest_total(s - m)
        if left <= 0:
            return m
        companions = companions * (m - 1) // (s - m + 1)


def sample_component_sizes(n: int, rng=None, seed=None):
    """Component sizes of a uniform random forest on 1..n, in peel order
    (component of the smallest remaining vertex first): the first stage of
    sample_forest, for statistics that need no edges, such as connectivity
    (the sizes are [n])."""
    _check_n(n)
    if n > FOREST_TOTAL_MAX_N:
        raise CapacityError(f"sampling capped at n={FOREST_TOTAL_MAX_N}")
    if rng is None:
        rng = random.Random(seed)
    sizes = []
    s = n
    while s:
        m = _draw_anchor_size(s, rng)
        sizes.append(m)
        s -= m
    return sizes


def _left_out(population: list, k: int, rng: random.Random) -> list:
    """The members of population that rng.sample(population, k) leaves out,
    drawn as it draws: a shrinking pool, whose first len(population) - k
    slots end up holding them, or a set of the indices picked; each
    randbelow is inlined as in _random_tree, without the per-call checks."""
    n, getrandbits = len(population), rng.getrandbits
    setsize = 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0)
    if n <= setsize:
        pool = list(population)
        for left in range(n, n - k, -1):
            bits = left.bit_length()
            j = getrandbits(bits)
            while j >= left:
                j = getrandbits(bits)
            pool[j] = pool[left - 1]
        return pool[: n - k]
    bits, selected = n.bit_length(), set()
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n or j in selected:
            j = getrandbits(bits)
        selected.add(j)
    return [x for j, x in enumerate(population) if j not in selected]


def _prufer_edges(seq, degree: list, labels) -> list:
    """Edges of the tree with Prüfer sequence seq over 0..m-1, m >= 2, as
    (smaller, larger) pairs of the increasing labels; degree[i] is 1 plus
    the number of times i occurs in seq, and is used up.  Each step joins
    the smallest leaf left, in linear time: `ptr` walks up to the next
    unused leaf, and a vertex that becomes a leaf below `ptr` is the
    smallest leaf at once."""
    ptr = degree.index(1)
    leaf = ptr
    edges = []
    for x in seq:
        edges.append((labels[leaf], labels[x]) if leaf < x else (labels[x], labels[leaf]))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((labels[leaf], labels[-1]))  # the last vertex is never a removed leaf
    return edges


def _random_tree(labels, rng: random.Random) -> list:
    """Edges of a uniform labeled tree on the increasing labels, as
    (smaller, larger) pairs, from a uniform Prüfer sequence."""
    m = len(labels)
    if m == 1:
        return []
    # rng.randrange(m) m - 2 times, by the rejection loop it runs
    # (Random._randbelow_with_getrandbits) without its per-call checks
    bits, getrandbits = m.bit_length(), rng.getrandbits
    degree = [1] * m
    seq = []
    for _ in range(m - 2):
        x = getrandbits(bits)
        while x >= m:
            x = getrandbits(bits)
        seq.append(x)
        degree[x] += 1
    return _prufer_edges(seq, degree, labels)


def sample_forest(n: int, rng=None, seed=None) -> LabeledForest:
    """Exactly uniform random labeled forest on 1..n; deterministic for a
    given seed.

    Draws the component of the smallest remaining vertex (size, then
    companion set, then a uniform labeled tree via a random linear-sequence
    code) and recurses on the rest; every choice is made with exact integer
    weights, so the output distribution is exactly uniform.
    """
    _check_n(n)
    if n > FOREST_TOTAL_MAX_N:
        raise CapacityError(f"sampling capped at n={FOREST_TOTAL_MAX_N}")
    if rng is None:
        rng = random.Random(seed)
    remaining = list(range(1, n + 1))
    edges = []
    while remaining:
        m = _draw_anchor_size(len(remaining), rng)
        rest = _left_out(remaining[1:], m - 1, rng)
        out = set(rest)
        comp = [v for v in remaining if v not in out] if out else remaining
        rest.sort()
        edges += _random_tree(comp, rng)
        remaining = rest
    return LabeledForest(n=n, edges=frozenset(edges))

