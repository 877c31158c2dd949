"""Max-weight tree decompositions over a catalog of pieces, and the
truncated partition functions of rooted and unrooted trees they induce.

A decomposition of a tree assembles it edge by edge from pieces drawn from
the catalog's unrooted family u0: the first piece is a member of u0, and
each later step joins one more u0 piece by a single new edge.  Given a
weight vector z over u0, the weight of a decomposition is the product of
its piece weights, and the max weight of a tree is the largest weight over
all of its decompositions.  The max weight does not depend on any choice
of root, and it is supermultiplicative under removing an edge.

Partition functions:

    layers(z, k)               per-size terms of rooted_series
    single_variable_layers(x, k)  closed form of layers for u0 = {single vertex}
    rooted_series(z, k)        sum of maxweight(T)/aut_r(T) over rooted trees, size <= k
    unrooted_series(z, k)      same over unrooted trees with aut_u
    piece_series_linear(z)     sum of z[U]/aut_u(U) over u0

The series run over unrooted trees only, up to treekit.FREE_TREE_MAX_SIZE
vertices (a tree's rootings contribute sum 1/aut_r = size/aut_u), grouped
into profile classes that share one max weight.  One walk over a table of
the classes' distinct piece-count vectors gives every max weight: in ints
over a common denominator for a vector of Fractions (WeightVector.exact),
in floats for a float one, where a power or sum past the largest float is inf.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import factorial, fsum, inf, isnan, lcm
from operator import itemgetter, mul

from . import treekit
from .treekit import (
    Catalog,
    CatalogError,
    RootedTreeCode,
    UnrootedTreeCode,
    SINGLE_VERTEX_CODE,
    code_to_adjacency,
)

__all__ = [
    "WeightVector",
    "DecompositionStep",
    "DecompositionTrace",
    "MaxWeightTable",
    "max_weight",
    "layers",
    "rooted_series",
    "rooted_series_family",
    "unrooted_series",
    "piece_series_linear",
    "scale_weights",
    "closure",
    "verify_dissymmetry_trunc",
    "single_variable_layers",
    "TruncatedSeriesEvaluator",
]


@dataclass(frozen=True)
class WeightVector:
    """Non-negative weights over a catalog's u0, in (size, code) order.

    entries is a tuple of (code, value) pairs; values are Fractions/ints in
    exact mode or floats in approximate mode (see `exact`).
    """

    entries: tuple

    def __post_init__(self):
        for code, value in self.entries:
            if not value >= 0:  # refuses NaN too
                raise ValueError(f"weight {value} for {code} is not >= 0")

    @classmethod
    def over(cls, catalog: Catalog, mapping) -> "WeightVector":
        """Build a vector over catalog.u0; mapping may omit codes (taken
        as 0) but must not mention codes outside u0."""
        extra = set(mapping) - set(catalog.u0_index)
        if extra:
            raise ValueError(f"weights given for codes outside u0: {sorted(extra)}")
        return cls(tuple((u.code, mapping.get(u.code, 0)) for u in catalog.u0))

    @classmethod
    def zero(cls, catalog: Catalog) -> "WeightVector":
        return cls.over(catalog, {})

    @cached_property
    def _values(self) -> dict:
        return dict(self.entries)

    def __getitem__(self, code: str):
        return self._values[code]

    def get(self, code: str, default=0):
        return self._values.get(code, default)

    @property
    def exact(self) -> bool:
        return all(isinstance(v, (int, Fraction)) for _, v in self.entries)

    def as_dict(self) -> dict:
        return dict(self.entries)

    def to_floats(self) -> list:
        return [float(v) for _, v in self.entries]


@dataclass(frozen=True)
class DecompositionStep:
    """One piece of a decomposition.  attach_from indexes the canonical
    representative of the partial tree built so far, attach_to the
    canonical representative of the piece; both are None on the first
    step."""

    piece: str
    attach_from: int | None
    attach_to: int | None


@dataclass(frozen=True)
class DecompositionTrace:
    steps: tuple[DecompositionStep, ...]

    def piece_counts(self) -> dict:
        return Counter(s.piece for s in self.steps)

    def weight(self, z: WeightVector):
        total = Fraction(1) if z.exact else 1.0
        for s in self.steps:
            total = total * z[s.piece]
        return total


# ---------------------------------------------------------------------------
# single-edge removal structure, cached per unrooted code

# Oriented move: removing one edge of W leaves (piece, remainder).  A move's
# value depends only on the two canonical codes, so the DP of MaxWeightTable
# reads only those; canonical attachment indices come from the recorded
# orbit keys for the traces that report them.
@cache
def _moves(code: str):
    """Oriented single-edge removals of the unrooted tree `code`, as sorted
    tuples (piece_code, rest_code, ends), one per distinct pair of codes.
    ends lists, sorted and distinct, the pairs (piece key, rest key) of the
    edges realizing the pair: the orbit keys of the edge's two ends, each
    the code of its side rooted at that end."""
    down, up, _ = treekit._reroot(code_to_adjacency(code))
    found: dict[tuple, set] = {}
    for v in range(1, len(down)):
        ca, cb = treekit._unrooted_code(down[v]), treekit._unrooted_code(up[v])
        found.setdefault((ca, cb), set()).add((down[v], up[v]))
        found.setdefault((cb, ca), set()).add((up[v], down[v]))
    return tuple((*key, tuple(sorted(found[key]))) for key in sorted(found))


def _attachments(moves: tuple):
    """Canonical attachment indices of the given moves, as tuples
    (piece_code, piece_idx, rest_code, rest_idx) ordered by the orbit keys
    of the two attachment vertices.  Edges whose attachment vertices share
    both orbits give one tuple."""
    return tuple(
        (piece, treekit._orbits(piece)[1][pk][0], rest, treekit._orbits(rest)[1][rk][0])
        for (pk, rk), piece, rest in sorted(
            (ends, piece, rest) for piece, rest, pairs in moves for ends in pairs
        )
    )


def _check_domain(z: WeightVector, catalog: Catalog) -> None:
    if tuple(c for c, _ in z.entries) != tuple(u.code for u in catalog.u0):
        raise CatalogError("weight vector domain does not match catalog u0")


class MaxWeightTable:
    """Memoized max decomposition weights for one weight vector.

    value(W) follows the removal recursion

        value(W) = max({z[W] if W in u0}
                       union {z[piece] * value(rest) over moves with piece in u0})

    Entries are pure functions of (catalog, z, code).
    """

    def __init__(self, catalog: Catalog, z: WeightVector):
        _check_domain(z, catalog)
        self.catalog = catalog
        self.z = z
        self._zero = Fraction(0) if z.exact else 0.0
        self._value: dict[str, object] = {}
        self._best: dict[str, tuple] = {}  # code -> (kind, payload) of argmax

    def value(self, code: str):
        cached = self._value.get(code)
        if cached is not None:
            return cached
        best, best_move = self._zero, None
        if code in self.catalog.u0_index and self.z[code] > best:
            best, best_move = self.z[code], ("base",)
        for move in _moves(code):
            piece, rest, _ = move
            if piece in self.catalog.u0_index:
                cand = self.z[piece] * self.value(rest)
                if cand > best:
                    best, best_move = cand, ("step", move)
        self._value[code] = best
        self._best[code] = best_move
        return best

    def trace(self, code: str) -> DecompositionTrace:
        """A decomposition attaining value(code); empty when the value is 0."""
        self.value(code)
        steps = []
        cur = code
        while True:
            move = self._best[cur]
            if move is None:
                return DecompositionTrace(steps=())
            if move[0] == "base":
                steps.append(DecompositionStep(piece=cur, attach_from=None, attach_to=None))
                break
            piece, p_idx, rest, r_idx = _attachments((move[1],))[0]
            steps.append(DecompositionStep(piece=piece, attach_from=r_idx, attach_to=p_idx))
            cur = rest
        return DecompositionTrace(steps=tuple(reversed(steps)))


def _as_unrooted_code(t) -> str:
    if isinstance(t, UnrootedTreeCode):
        return t.code
    if isinstance(t, RootedTreeCode):
        return treekit._unrooted_code(t.code)
    if isinstance(t, str):
        return treekit._unrooted_code(t)
    raise TypeError(f"expected a tree code, got {type(t).__name__}")


def max_weight(t, z: WeightVector, catalog: Catalog):
    """Max decomposition weight of `t` (rooted or unrooted code) and a
    certifying trace; (0, empty trace) when every decomposition vanishes."""
    table = MaxWeightTable(catalog, z)
    code = _as_unrooted_code(t)
    return table.value(code), table.trace(code)


# ---------------------------------------------------------------------------
# decomposition profiles: the max weights of all trees up to k at once
#
# A tree's max weight is the largest product prod_j z_j**c_j over the
# piece-count vectors c its decompositions reach (its profile), so trees
# of one size with one profile have the same max weight for every z.  The
# profiles come from a bottom-up pass over each tree, folded over all
# unrooted trees by treekit.fold_unrooted without building their codes.

# A count vector c over u0 is one mixed-radix position sum_j c_j * place_j,
# where digit j runs to k // |u0_j| and place_j is the product of the radices
# k // |u0_i| + 1 of the pieces i < j.  A tree of at most k vertices never
# fills a digit past its radix, so adding the vectors of its parts is adding
# positions, and positions sort as the vectors do, most significant on the
# last piece.  A set of vectors is a set of positions in one of two forms:
#
#   bit set    an int with bit p set for position p: a union is |, adding
#              one piece is one shift, and the pairwise sums of two sets are
#              the | of one set shifted by each position of the other
#   frozenset  of the positions, for catalogs whose bit set would be wide
#
# A fold takes bit sets while the product of the radices (the number of
# positions) is at most _BIT_SET_POSITIONS: 1,617 for u_max = 3 at k = 20,
# 33,250 for u_max = 4 at k = 18.  Past it, frozensets: about 1.4e8
# positions for u_max = 6 at k = 12.
_BIT_SET_POSITIONS = 1 << 16


class _BitSets:
    """Sets of positions as ints, one bit per position."""

    empty = 0

    def __init__(self):
        # a fold sums with the same few small sets over and over (57
        # distinct ones at u_max = 3, k = 16), so each is listed once
        self._listed: dict[int, tuple] = {}

    @staticmethod
    def single(p: int) -> int:
        return 1 << p

    @staticmethod
    def shift(s: int, p: int) -> int:
        return s << p

    def positions(self, s: int) -> tuple:
        """The positions in s, ascending."""
        listed = self._listed.get(s)
        if listed is None:
            out, rest = [], s
            while rest:
                low = rest & -rest
                out.append(low.bit_length() - 1)
                rest ^= low
            listed = self._listed[s] = tuple(out)
        return listed

    def sums(self, a: int, b: int) -> int:
        if a.bit_count() < b.bit_count():
            a, b = b, a
        if not b & (b - 1):  # b, never empty here, is a single position
            return a << (b.bit_length() - 1)
        out = 0
        for p in self.positions(b):
            out |= a << p
        return out


class _FrozenSets:
    """Sets of positions as frozensets of ints."""

    empty = frozenset()

    @staticmethod
    def single(p: int) -> frozenset:
        return frozenset((p,))

    @staticmethod
    def shift(s: frozenset, p: int) -> frozenset:
        return frozenset(v + p for v in s)

    @staticmethod
    def positions(s: frozenset) -> list:
        return sorted(s)

    @staticmethod
    def sums(a: frozenset, b: frozenset) -> frozenset:
        return frozenset(v + w for v in a for w in b)


class _PieceStates:
    """Decomposition states of rooted trees of at most k vertices over one
    catalog's u0.

    Cutting a rooted tree into connected parts of which all but the root's
    part are u0 pieces leaves a root part p (a rooted code of at most
    u_max vertices) and a count vector of the other parts, a mixed-radix
    position.  A tree's state maps each reachable p to the set of its
    positions (in the form self.sets); states are interned as ints.
    attach(a, c) is the state of a tree of state a with one more child
    subtree of state c, so it meets the contract of treekit.fold_unrooted.
    """

    def __init__(self, u0: tuple, k: int):
        self.u_max = max(u.size for u in u0)
        self.places = []
        self.radices = [k // u.size + 1 for u in u0]
        width = 1
        for radix in self.radices:
            self.places.append(width)
            width *= radix
        self.sets = _BitSets() if width <= _BIT_SET_POSITIONS else _FrozenSets()
        self._unit = {u.code: place for u, place in zip(u0, self.places)}
        self._states: list[frozenset] = []
        self._ids: dict[frozenset, int] = {}
        self._attached: dict[tuple, int] = {}
        self._profile: dict[int, object] = {}
        self.root = self._intern({SINGLE_VERTEX_CODE: self.sets.single(0)})

    def _intern(self, parts: dict) -> int:
        key = frozenset(parts.items())
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = len(self._states)
            self._states.append(key)
        return sid

    def _piece_unit(self, part: str):
        """Position of the rooted part's u0 piece, or None."""
        return self._unit.get(treekit._unrooted_code(part))

    def attach(self, a: int, c: int) -> int:
        key = (a, c)
        sid = self._attached.get(key)
        if sid is None:
            sums, shift, empty = self.sets.sums, self.sets.shift, self.sets.empty
            children = [
                (child, ws, child.count("("), self._piece_unit(child))
                for child, ws in self._states[c]
            ]
            parts: dict = {}
            for part, vs in self._states[a]:
                room = self.u_max - part.count("(")
                for child, ws, size, unit in children:
                    both = sums(vs, ws)
                    if unit is not None:  # cut the edge: the child's part is done
                        parts[part] = parts.get(part, empty) | shift(both, unit)
                    if size <= room:  # keep it: the parts join
                        joined = treekit._hang(part, child)
                        parts[joined] = parts.get(joined, empty) | both
            sid = self._attached[key] = self._intern(parts)
        return sid

    def profile(self, sid: int):
        """Positions reachable by the tree whose root state is sid, as a set."""
        found = self._profile.get(sid)
        if found is None:
            found = self.sets.empty
            for part, vs in self._states[sid]:
                unit = self._piece_unit(part)
                if unit is not None:
                    found |= self.sets.shift(vs, unit)
            self._profile[sid] = found
        return found


def _power(x: float, e: int) -> float:
    """x**e for a float x >= 0 (or NaN), inf where it overflows."""
    try:
        return x**e
    except OverflowError:
        return inf


class _Profiles:
    """The trees with 1..k vertices grouped by (size, profile).

    Class c holds the trees of sizes[c] vertices whose decompositions reach
    exactly the piece-count vectors counts[c] (tuples over u0), and
    coeff[c] is the exact sum of size/aut_u over them, i.e. the sum of
    1/aut_r over their rootings.  Classes are ordered by (size, profile).
    """

    def __init__(self, u0: tuple, k: int):
        states = _PieceStates(u0, k)
        labelings: dict[tuple, int] = {}  # class -> sum of n!/aut_u
        for n, aut, sid, _ in treekit.fold_unrooted(k, states.root, states.attach):
            key = (n, states.profile(sid))
            labelings[key] = labelings.get(key, 0) + factorial(n) // aut
        listed = {key: states.sets.positions(key[1]) for key in labelings}
        order = sorted(labelings, key=lambda key: (key[0], listed[key]))
        digits = tuple(zip(states.places, states.radices))
        self.states = states
        self.k = k
        self.sizes = tuple(n for n, _ in order)
        self.coeff = tuple(Fraction(n * labelings[(n, p)], factorial(n)) for n, p in order)
        self.counts = tuple(
            tuple(tuple(v // place % radix for place, radix in digits) for v in listed[key])
            for key in order
        )
        self.float_coeff = tuple(float(c) for c in self.coeff)
        self._class = {key: c for c, key in enumerate(order)}
        # one entry per distinct count vector, with a bit mask of the classes
        # whose profiles hold it, and after them the zero vector of no class,
        # so that every column has two entries and its gather gives a tuple
        mask_of: dict[tuple, int] = {}
        for c, vecs in enumerate(self.counts):
            for vec in vecs:
                mask_of[vec] = mask_of.get(vec, 0) | 1 << c
        self.vectors = tuple(mask_of)
        self.masks = tuple(mask_of.values())
        self.every = (1 << len(order)) - 1
        # column j of the monomials is the power of piece j each entry takes
        self._columns = [itemgetter(*column) for column in zip(*self.vectors, (0,) * len(u0))]
        self._exponents = [range(radix) for radix in states.radices]
        self._classes = _BitSets().positions  # the classes of a mask, ascending

    def index(self, code: str) -> int:
        """Class of the unrooted tree with this code (at most k vertices), by
        its root state: each vertex's state, its children folded in, is
        folded into its parent's, in reverse preorder."""
        parent = treekit._blocks(code)[0]
        states = self.states
        if len(parent) > self.k:
            raise ValueError(f"tree of size {len(parent)} outside 1..{self.k}")
        state = [states.root] * len(parent)
        for v in range(len(parent) - 1, 0, -1):
            state[parent[v]] = states.attach(state[parent[v]], state[v])
        return self._class[(len(parent), states.profile(state[0]))]

    def max_weights(self, values, coeff) -> tuple:
        """(om, y) at the weights `values` over u0, all ints or all floats:
        om[c] is the largest monomial prod_j values[j]**vec[j] over class
        c's count vectors (NaN if any is NaN; a monomial with a positive
        power of a zero weight and none of a NaN one is 0, never inf * 0),
        and y[s] is the sum of coeff[c] om[c] over the classes c of size s.
        The entries are walked from the NaN ones down through the largest,
        each class taking the first monomial whose entry holds it, and the
        walk stops at the first zero monomial."""
        if len(values) != len(self._columns):
            raise ValueError(f"{len(values)} weights for {len(self._columns)} pieces")
        masks, left, classes = self.masks, self.every, self._classes
        monomials = None
        for x, column, exponents in zip(values, self._columns, self._exponents):
            try:
                powers = column([x**e for e in exponents])
            except OverflowError:
                powers = column([_power(x, e) for e in exponents])
            monomials = powers if monomials is None else map(mul, monomials, powers)
        monomials = list(monomials)
        rest, nans = range(len(masks)), []
        total = sum(monomials)  # all >= 0: NaN only if one is NaN, and ints never are
        if isinstance(total, float) and isnan(total):
            # an overflowed power times a zero weight's power is inf * 0.0,
            # but the monomial holds an exact 0 factor: it is 0 unless it
            # also takes a NaN weight
            zeros = [j for j, x in enumerate(values) if x == 0.0]
            undefined = [j for j, x in enumerate(values) if isnan(x)]
            for i in rest:
                vec = self.vectors[i]
                if (
                    isnan(monomials[i])
                    and any(vec[j] for j in zeros)
                    and not any(vec[j] for j in undefined)
                ):
                    monomials[i] = 0.0
            nans = [i for i in rest if isnan(monomials[i])]
            rest = [i for i in rest if not isnan(monomials[i])]
        # a class the walk stops before has max weight 0 (u0 holds the
        # single vertex, so every class is reached by some monomial)
        om = [0 * coeff[0]] * len(self.sizes)
        for i in nans + sorted(rest, key=monomials.__getitem__, reverse=True):
            value = monomials[i]
            if not value:  # the rest are 0 too: every class still open keeps 0
                break
            hit = masks[i] & left
            if hit:
                left ^= hit
                for c in classes(hit):
                    om[c] = value
                if not left:
                    break
        y = [0 * coeff[0]] * (self.k + 1)
        for size, c, value in zip(self.sizes, coeff, om):
            y[size] += c * value
        return om, y


@cache
def _profiles(u0: tuple, k: int) -> _Profiles:
    """Profile classes over u0 up to k; catalogs sharing u0 share one build."""
    return _Profiles(u0, k)


# ---------------------------------------------------------------------------
# partition functions


def layers(z: WeightVector, k: int, catalog: Catalog) -> list:
    """Per-size contributions to rooted_series(z, k): entry s is the sum of
    maxweight(T)/aut_r(T) over the rooted trees T with s vertices (entry 0
    is 0).  Exact for exact z.

    Summed over unrooted trees U as |U| maxweight(U)/aut_u(U), since the
    rootings of U contribute sum 1/aut_r = |U|/aut_u (orbit-stabilizer),
    and over one walk of the profile classes' table.  Exact z = a/D over a
    common denominator walks the ints a_j D^(|U_j|-1): the monomials of a
    size-s class are then N/D^s, so its max weight is a max of ints.
    """
    if k < 1:
        raise ValueError("truncation order must be >= 1")
    _check_domain(z, catalog)
    table = _profiles(catalog.u0, k)
    if not z.exact:
        return table.max_weights(z.to_floats(), table.float_coeff)[1]
    den = lcm(*(Fraction(value).denominator for _, value in z.entries))
    ints = [int(value * den) * den ** (u.size - 1) for (_, value), u in zip(z.entries, catalog.u0)]
    return [Fraction(t, den**s) for s, t in enumerate(table.max_weights(ints, table.coeff)[1])]


def _total(terms):
    """Sum of series terms: exact for Fractions, math.fsum for floats (the
    correctly rounded sum on every interpreter, where sum() is not), and
    inf where finite float terms, all >= 0, sum past the largest float."""
    terms = list(terms)
    if all(isinstance(t, (int, Fraction)) for t in terms):
        return sum(terms)
    try:
        return fsum(terms)
    except OverflowError:
        return inf


def rooted_series(z: WeightVector, k: int, catalog: Catalog):
    """Sum of maxweight(T)/aut_r(T) over all rooted trees with at most k
    vertices."""
    return _total(layers(z, k, catalog))


def rooted_series_family(z: WeightVector, family, catalog: Catalog):
    """Sum of maxweight(T)/aut_r(T) over an explicit, inclusion-closed
    family of rooted trees."""
    family = tuple(family)
    if family != catalog.t0:  # the catalog checked its own t0
        treekit.check_inclusion_closed(family)
    table = MaxWeightTable(catalog, z)
    total = Fraction(0) if z.exact else 0.0
    for t in family:
        total += table.value(treekit._unrooted_code(t.code)) / t.aut_r
    return total


def _unrooted_from_layers(per_size):
    """Sum of maxweight(U)/aut_u(U) from the rooted layers: size-s unrooted
    trees contribute layer s over s."""
    return _total([per_size[0]] + [c / s for s, c in enumerate(per_size) if s])


def unrooted_series(z: WeightVector, k: int, catalog: Catalog):
    """Sum of maxweight(U)/aut_u(U) over unrooted trees with at most k
    vertices."""
    return _unrooted_from_layers(layers(z, k, catalog))


def piece_series_linear(z: WeightVector, catalog: Catalog):
    """Sum of z[U]/aut_u(U) over u0 (the linear objective), in Fractions
    for exact z.  At closure(z) it is the sum of maxweight(U)/aut_u(U)."""
    return _total(
        Fraction(z[u.code], u.aut_u) if z.exact else z[u.code] / u.aut_u
        for u in catalog.u0
    )


def scale_weights(lam, z: WeightVector) -> WeightVector:
    """Scaled multiplication: each coordinate is multiplied by
    lam**(piece size), under which maxweight(T) scales by lam**|T|."""
    if lam < 0:
        raise ValueError("scale factor must be >= 0")
    return WeightVector(
        tuple((code, lam ** code.count("(") * value) for code, value in z.entries)
    )


def closure(z: WeightVector, catalog: Catalog) -> WeightVector:
    """Pointwise replacement of each coordinate by the max weight of its
    piece.  Leaves every max weight (hence every partition function)
    unchanged, never decreases any coordinate, and is idempotent."""
    table = MaxWeightTable(catalog, z)
    return WeightVector(tuple((code, table.value(code)) for code, _ in z.entries))


# ---------------------------------------------------------------------------
# inequality checks


@dataclass(frozen=True)
class DissymmetryCheck:
    ok: bool
    k: int
    rooted: object
    unrooted: object
    half_square: object


def verify_dissymmetry_trunc(z: WeightVector, k: int, catalog: Catalog) -> DissymmetryCheck:
    """Check rooted_series(z,k) - unrooted_series(z,k) >=
    (1/2) * rooted_series(z, floor(k/2))**2.

    The difference of the two series is the partition function of trees
    with one marked edge; pairing each marked edge with the ordered pair of
    components it separates and using supermultiplicativity gives the
    bound, restricted here to sizes <= k.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    per_size = layers(z, k, catalog)
    y = _total(per_size)
    yu = _unrooted_from_layers(per_size)
    yh = _total(per_size[: k // 2 + 1])
    half_sq = yh * yh / 2
    return DissymmetryCheck(ok=(y - yu) >= half_sq, k=k, rooted=y, unrooted=yu, half_square=half_sq)


# ---------------------------------------------------------------------------
# single-variable closed form (u0 = {single vertex})


def single_variable_layers(x, k: int) -> list:
    """layers for u0 = {single vertex} at z = x, in closed form: entry n is
    n^(n-1) x^n / n!, the rooted labeled trees on n vertices over n!, for
    every n <= k (no free-tree bound).  Exact for int or Fraction x.  The
    unrooted terms are entry n over n, n^(n-2) x^n / n!."""
    x = Fraction(x) if isinstance(x, (int, Fraction)) else float(x)
    return [0 * x] + [Fraction(n ** (n - 1), factorial(n)) * x**n for n in range(1, k + 1)]


# ---------------------------------------------------------------------------
# float evaluation (optimizer inner loop)


class TruncatedSeriesEvaluator:
    """Float max weights and size-layered rooted sums for all trees up to k
    vertices, from the walk that layers takes (_Profiles.max_weights).

    evaluate(zvec) returns (om, y) where om[c] is the max weight of the
    trees in class c (index(code) is a tree's class) and y[s] the
    contribution of size-s rooted trees to rooted_series, as lists.  zvec
    is ordered like catalog.u0; a power past the largest float is inf.
    """

    def __init__(self, catalog: Catalog, k: int):
        self._profiles = _profiles(catalog.u0, k)
        self.index = self._profiles.index
        self.u0_positions = tuple(self.index(u.code) for u in catalog.u0 if u.size <= k)
        # perfbench/traced_run.py reads passes to count the entries
        self.passes = [(self._profiles.vectors, self._profiles.masks, self._profiles.every)]

    def evaluate(self, zvec):
        return self._profiles.max_weights(zvec, self._profiles.float_coeff)
