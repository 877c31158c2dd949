"""Constrained maximization of the linear piece objective.

The problem: over non-negative weight vectors z on the catalog's u0,
maximize the linear objective sum z[U]/aut_u(U) subject to the truncated
rooted partition function rooted_series(z, k) staying at or below a cap
(1.5 by default; any constant above 1 works), restricted to closure fixed
points z[U] = maxweight(U, z).

Closing a vector never changes the partition function and never lowers the
objective, and the scaled multiplication lam*z with Y(lam*z) =
sum lam^s y_s maps closed points to closed points.  Every max weight, the
closure and Y are nondecreasing in each coordinate.  `bracket`, the search
the `optimize` command runs, is a best-first branch and bound over boxes
of weight vectors that returns a certified point and an upper end on the
maximum.  Its objective is a certified lower bound for the true maximum:
the final point is re-validated in exact rational arithmetic, never
claimed optimal; the upper end is a float computation, not a proof.

Every scaling projection solves sum lam^s y_s = cap for lam, an increasing
polynomial in lam, with one float bisection that evaluates the polynomial
by Horner: to within tol for the single-variable threshold, and in the
search until no float splits the bracket, which starts from [0, 1] when
scaling down and from [1, the tangent's root] when scaling up.

Float arithmetic drives the inner loop; the exact re-validation rounds the
float vector to dyadic rationals, closes it exactly, and scales by the
rational factor cap/Y when needed (for lam <= 1, sum lam^s y_s <= lam *
sum y_s, so one exact scaling restores feasibility).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import inf, isfinite
from operator import mul

from . import treekit, weights
from .treekit import Catalog
from .weights import WeightVector

__all__ = [
    "OptimizerConfig",
    "FeasiblePoint",
    "FeasibilityResult",
    "BracketResult",
    "BoundCheck",
    "feasibility",
    "single_var_threshold",
    "bracket",
    "bound_check",
]

DEFAULT_CAP = 1.5
_MAX_FLOAT = 1.7976931348623157e308


@dataclass
class OptimizerConfig:
    catalog: Catalog
    k: int
    budget: int = 10_000
    tol: float = 1e-9
    y_cap: float = DEFAULT_CAP

    def __post_init__(self):
        if self.k < self.catalog.u_max:
            raise ValueError("truncation order k must be >= u_max")
        if self.budget < 1:
            raise ValueError("the evaluation budget must be >= 1")
        if not 0 < self.tol < inf:
            raise ValueError("tol must be positive and finite")
        if not 1.0 < self.y_cap < inf:
            raise ValueError("the partition-function cap must exceed 1 and be finite")


@dataclass
class FeasiblePoint:
    z: WeightVector
    y_value: object
    objective: object
    closed: bool


@dataclass
class FeasibilityResult:
    feasible: bool
    point: FeasiblePoint | None
    violations: list


@dataclass
class BracketResult:
    point: FeasiblePoint
    objective_float: float
    upper_float: float  # the float search's upper end on the maximum, unproved
    evaluations: int
    budget_exhausted: bool  # the search stopped with its gap still open
    y_per_size: dict  # exact per-size contributions at the certified point


@dataclass
class BoundCheck:
    ok: bool
    objective: object
    limit: Fraction
    epsilon: float


def feasibility(z: WeightVector, config: OptimizerConfig) -> FeasibilityResult:
    """Evaluate the cap constraint and the closure fixed-point constraint.

    Both kinds of vector take one path: exact vectors are checked exactly
    (tolerance 0), float vectors within config.tol.
    """
    cat = config.catalog
    if z.exact:
        cap, tol, unclosed = Fraction(config.y_cap), 0, "not a closure fixed point"
    else:
        cap, tol, unclosed = config.y_cap, config.tol, "not a closure fixed point (beyond tol)"
    violations = []
    y = weights.rooted_series(z, config.k, cat)
    if not y <= cap + tol:  # a float series is NaN where an overflowed power meets a 0 one
        violations.append(f"rooted series {float(y):.12g} exceeds cap {config.y_cap}")
    closed_vec = weights.closure(z, cat)
    closed = all(abs(c - v) <= tol for (_, c), (_, v) in zip(closed_vec.entries, z.entries))
    if not closed:
        violations.append(unclosed)
    objective = weights.piece_series_linear(z, cat)
    if violations:
        return FeasibilityResult(feasible=False, point=None, violations=violations)
    return FeasibilityResult(
        feasible=True,
        point=FeasiblePoint(z=z, y_value=y, objective=objective, closed=closed),
        violations=[],
    )


def _bisect(layers, cap, hi, stop, lo=None, val_lo=None):
    """Bisect [lo, hi] for the root of sum x^s layers[s] = cap, returning the
    final bracket (lo, hi).  lo defaults to 0, and a given lo comes with
    val_lo, the polynomial's value there, at or below the cap.  The layered
    polynomial is increasing on x >= 0; it is evaluated by Horner in the
    type of hi, so a Fraction hi keeps every step exact and a float hi every
    step a float.  stop(lo, hi, value(lo)) is tested before each halving and
    ends the search."""
    if lo is None:
        lo = val_lo = 0 * hi
    while not stop(lo, hi, val_lo):
        mid = _mid(lo, hi)
        val = 0 * mid
        for c in reversed(layers):
            val = val * mid + c
        if val <= cap:
            lo, val_lo = mid, val
        else:
            hi = mid
    return lo, hi


def _mid(lo, hi):
    """(lo + hi) / 2, or lo + (hi - lo) / 2 where that sum overflows: every
    bracket short of the largest float keeps its bits."""
    mid = (lo + hi) / 2
    return mid if mid != inf else lo + (hi - lo) / 2


def _resolved(lo, hi, _):
    """Float stop rule: no float lies strictly between lo and hi."""
    return not lo < _mid(lo, hi) < hi


def _scale_to_cap(layers, cap: float) -> float:
    """Largest float lam in (0, 1) with sum lam^s layers[s] <= cap, for
    float layers whose sum exceeds the cap: the bisection of [0, 1] to
    adjacent floats.  Float Horner H with non-negative coefficients is
    non-decreasing in x >= 0, because rounded + and * are monotone, so
    H(x) <= cap holds for the floats up to one threshold t and for none
    above it.  Bisection keeps lo at or below the cap and hi above it,
    never evaluates its starting lo = 0 and hi = 1.0, and returns
    min(t, 1 - 2^-53)."""
    return _bisect([float(c) for c in layers], cap, 1.0, _resolved)[0]


def single_var_threshold(k: int, cap: float = DEFAULT_CAP, tol: float = 1e-12) -> float:
    """The unique x > 0 with sum over n <= k of n^(n-1) x^n / n! equal to
    `cap`, by bisection to within tol (or to float resolution, if tol is
    smaller)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    coeffs = weights.single_variable_layers(1.0, k)
    lo, hi = _bisect(coeffs, cap, cap, lambda lo, hi, _: hi - lo <= tol or _resolved(lo, hi, _))
    mid, val = _mid(lo, hi), 0.0
    for c in reversed(coeffs):  # near the float limit, mid can round up to a hi that overflows
        val = val * mid + c
    return mid if isfinite(val) else lo


def _certify(zv, config: OptimizerConfig) -> tuple[FeasiblePoint, dict]:
    """Exact feasible point from a float vector: round to dyadic rationals,
    close exactly, and rescale by cap/Y when the cap is exceeded.

    Scaling by a constant keeps closure fixed points closed (closing and
    scaling commute), so the certified point is exactly closed and its
    series value is exactly at or below the cap.
    """
    cat, k = config.catalog, config.k
    denom = 1 << 40
    rounded = WeightVector.over(
        cat,
        {
            # rounded exactly: float(v) * denom overflows past 2**984
            u.code: Fraction(max(0, round(Fraction(v) * denom)), denom)
            for u, v in zip(cat.u0, zv)
        },
    )
    layers = weights.layers(rounded, k, cat)
    cap, y = Fraction(config.y_cap), sum(layers)
    lam = cap / y if y > cap else Fraction(1)
    z_cert = weights.scale_weights(lam, weights.closure(rounded, cat))
    per_size = {s: c * lam**s for s, c in enumerate(layers) if s >= 1}
    objective = weights.piece_series_linear(z_cert, cat)
    point = FeasiblePoint(z=z_cert, y_value=sum(per_size.values()), objective=objective, closed=True)
    return point, per_size


def _left_sum(values) -> float:
    """Float sum from the left: the same on every interpreter (sum() is
    compensated from Python 3.12 on), and inf where it overflows (math.fsum
    raises)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _knapsack(lo, hi, room, cost, lin, greedy):
    """The box [lo, hi] cut by sum_j cost_j z_j <= room: hi lowered to the
    cut, and the fractional-knapsack maximum of sum_j lin_j z_j over the cut
    box, filled in the order `greedy` (largest lin_j / cost_j first).  None
    when lo itself breaks the cut."""
    slack = room - _left_sum(map(mul, cost, lo))
    if not slack >= 0:
        return None
    hi = tuple(min(h, v + slack / w) for v, h, w in zip(lo, hi, cost))
    bound = _left_sum(map(mul, lin, lo))
    for j in greedy:
        take = min(hi[j] - lo[j], slack / cost[j])
        bound += lin[j] * take
        slack -= cost[j] * take
    return hi, bound


def bracket(config: OptimizerConfig) -> BracketResult:
    """Best-first branch and bound over boxes of weight vectors: a certified
    feasible closed point, and the float search's upper end on the maximum.

    A closed feasible z has z_j <= cap / w_j, where w_j = |U_j|/aut_u(U_j):
    the tree U_j alone adds w_j z_j to Y.  So the search starts from the box
    [0, cap / w], each end at most the largest float.  Each box popped
    (largest bound first) has its lower corner evaluated once.  Y(lo) > cap
    prunes it, as does a closure c of lo that is not <= hi: every closed
    z >= lo is >= c.  Otherwise lo is raised to c, and c scaled up to the
    cap is a candidate point.  The box is then bisected on the coordinate
    with the widest objective range; the child whose lower corner is c
    inherits its evaluation.

    The bound is a knapsack: trees outside u0 only gain weight as z grows
    past c, and each piece U_j gives at least w_j z_j, so every z >= c has
    Y(z) >= R + sum w_j z_j with R = Y(c) - sum w_j c_j >= 0.  A feasible z
    in the box therefore has sum w_j z_j <= cap - R, which lowers each hi_j
    and bounds the objective sum z_j/aut_u by the fractional knapsack,
    filled greedily by smallest |U_j| (value per unit weight 1/|U_j|).

    The first candidate is the embedded single-variable threshold x_k,
    closed and scaled to the cap, so one evaluation certifies at least its
    objective.  The best float point is certified exactly (_certify), which
    rounds it and can lose a little objective.  The search stops when the
    largest bound left is within tol * max(1, lower) of lower, the smaller
    of the best point's float and certified objectives, or when the budget
    or the boxes run out.  The upper end is a float computation, not a
    proof."""
    cat, k, cap = config.catalog, config.k, config.y_cap
    ev = weights._profiles(cat.u0, k)
    d = len(cat.u0)
    sizes = [u.size for u in cat.u0]
    lin = [1.0 / u.aut_u for u in cat.u0]
    cost = [u.size / u.aut_u for u in cat.u0]
    greedy = sorted(range(d), key=sizes.__getitem__)
    evals = 0
    best, best_obj = (0.0,) * d, 0.0  # the zero vector is closed and feasible

    def corner(lo):
        """The closure of lo, its layers and their sum; one evaluation."""
        nonlocal evals
        evals += 1
        om, layers = ev.evaluate(lo)
        return tuple(om[c] for c in ev.u0_positions), layers, _left_sum(layers)

    def scaled(c, lam):
        """c under the scaled multiplication by lam (0 stays 0)."""
        return tuple(v * weights._power(lam, s) if v else v for v, s in zip(c, sizes))

    def offer(c, layers, y):
        """Take c scaled to the cap as the best point if its objective is
        larger."""
        nonlocal best, best_obj
        if y == 0:
            return
        if y <= cap:
            # sum lam^s layers[s] is convex in lam, so its tangent at 1
            # reaches the cap at a grow at or above the scale
            grow = min(1 + (cap - y) / _left_sum(map(mul, range(k + 1), layers)), _MAX_FLOAT)
            if _left_sum(map(mul, scaled(c, grow), lin)) <= best_obj:
                return
            lam = _bisect(layers, cap, grow, _resolved, 1.0, y)[0]
        else:
            lam = _scale_to_cap(layers, cap)
        z = scaled(c, lam)
        obj = _left_sum(map(mul, z, lin))
        if best_obj < obj < inf:  # never a NaN or an overflowed objective
            best, best_obj = z, obj

    heap, order = [], count()

    def push(lo, hi, r, evaluated):
        cut = _knapsack(lo, hi, cap - r, cost, lin, greedy)
        if cut is not None:
            heapq.heappush(heap, (-cut[1], next(order), lo, cut[0], r, evaluated))

    embed = [0.0] * d
    embed[cat.u0_index[treekit.SINGLE_VERTEX_CODE]] = single_var_threshold(k, cap=cap)
    offer(*corner(embed))
    push((0.0,) * d, tuple(min(cap / w, _MAX_FLOAT) for w in cost), 0.0, False)
    unsplit = -inf  # the largest bound of a box too narrow to bisect
    floor = inf  # the least certified objective so far

    def closed():
        """Whether the largest bound left is within tol of the best point
        and of its certificate."""
        lower = min(best_obj, floor)
        return max(unsplit, -heap[0][0] if heap else -inf) <= lower + config.tol * max(1.0, lower)

    def search():
        """Pop boxes until the gap closes; False if the budget or the boxes
        run out first."""
        nonlocal unsplit
        while not closed():
            if not heap:
                return False
            neg, _, lo, hi, r, evaluated = heap[0]
            if not evaluated and evals >= config.budget:
                return False
            heapq.heappop(heap)
            bound = -neg
            if not evaluated:
                c, layers, y = corner(lo)
                if not (y <= cap and all(v <= h for v, h in zip(c, hi))):
                    continue
                offer(c, layers, y)
                lo, r = c, y - _left_sum(map(mul, cost, c))
                cut = _knapsack(lo, hi, cap - r, cost, lin, greedy)
                if cut is None:
                    continue
                hi, bound = cut
            j = max(range(d), key=lambda i: lin[i] * (hi[i] - lo[i]))
            mid = _mid(lo[j], hi[j])
            if not lo[j] < mid < hi[j]:  # no float splits the box
                unsplit = max(unsplit, bound)
                continue
            push(lo, (*hi[:j], mid, *hi[j + 1 :]), r, True)
            push((*lo[:j], mid, *lo[j + 1 :]), hi, r, False)
        return True

    while True:
        searched = search()
        point, per_size = _certify(best, config)
        floor = min(floor, float(point.objective))
        if closed() or not searched:
            break
    objective_float = float(point.objective)
    return BracketResult(
        point=point,
        objective_float=objective_float,
        upper_float=max(best_obj, objective_float, unsplit, -heap[0][0] if heap else -inf),
        evaluations=evals,
        budget_exhausted=not closed(),
        y_per_size=per_size,
    )


def bound_check(point: FeasiblePoint, epsilon) -> BoundCheck:
    """Compare the objective against (1 + epsilon)/2.

    Float epsilons are read decimally (0.1 means 1/10)."""
    eps = epsilon if isinstance(epsilon, (int, Fraction)) else Fraction(str(epsilon))
    limit = (1 + eps) / 2
    obj = point.objective if isinstance(point.objective, Fraction) else Fraction(point.objective)
    return BoundCheck(ok=obj <= limit, objective=point.objective, limit=limit, epsilon=float(epsilon))
