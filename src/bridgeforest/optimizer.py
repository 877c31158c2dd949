"""Constrained maximization of the linear piece objective.

The problem: over non-negative weight vectors z on the catalog's u0,
maximize the linear objective sum z[U]/aut_u(U) subject to the truncated
rooted partition function rooted_series(z, k) staying at or below a cap
(1.5 by default; any constant above 1 works), restricted to closure fixed
points z[U] = maxweight(U, z).

Closing a vector never changes the partition function and never lowers the
objective, and the scaled multiplication lam*z with Y(lam*z) =
sum lam^s y_s maps closed points to closed points; the search alternates
closure, a scaling projection back to the cap, and coordinate ascent.
Returned objectives are certified lower bounds for the true maximum: the
final point is re-validated in exact rational arithmetic, never claimed
optimal.

Every scaling projection solves sum lam^s y_s = cap for lam, an increasing
polynomial in lam, with one float bisection that evaluates the polynomial
by Horner: to within tol for the single-variable threshold, and in the
search loop until no float splits the bracket, which there starts from a
bracket found by Newton's method rather than from [0, 1].

Float arithmetic drives the inner loop; the exact re-validation rounds the
float vector to dyadic rationals, closes it exactly, and scales by the
rational factor cap/Y when needed (for lam <= 1, sum lam^s y_s <= lam *
sum y_s, so one exact scaling restores feasibility).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import expm1, inf, isfinite, log1p, nextafter
from operator import mul

from . import treekit, weights
from .treekit import Catalog
from .weights import TruncatedSeriesEvaluator, WeightVector

__all__ = [
    "OptimizerConfig",
    "FeasiblePoint",
    "FeasibilityResult",
    "MaximizeResult",
    "BoundCheck",
    "feasibility",
    "single_var_threshold",
    "maximize",
    "bound_check",
]

DEFAULT_CAP = 1.5


@dataclass
class OptimizerConfig:
    catalog: Catalog
    k: int
    budget: int = 10_000
    tol: float = 1e-9
    restarts: int = 32
    seed: int = 0
    y_cap: float = DEFAULT_CAP

    def __post_init__(self):
        if self.k < self.catalog.u_max:
            raise ValueError("truncation order k must be >= u_max")
        if self.budget < 1:
            raise ValueError("the evaluation budget must be >= 1")
        if not 0 < self.tol < inf:
            raise ValueError("tol must be positive and finite")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
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
class MaximizeResult:
    point: FeasiblePoint
    objective_float: float
    trace: list
    evaluations: int
    restarts_used: int
    budget_exhausted: bool
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
        mid = (lo + hi) / 2
        val = 0 * mid
        for c in reversed(layers):
            val = val * mid + c
        if val <= cap:
            lo, val_lo = mid, val
        else:
            hi = mid
    return lo, hi


def _resolved(lo, hi, _):
    """Float stop rule: no float lies strictly between lo and hi."""
    return not lo < (lo + hi) / 2 < hi


_NEWTON_STEPS = 64


def _scale_to_cap(layers, cap: float) -> float:
    """Largest float lam in (0, 1) with sum lam^s layers[s] <= cap, for
    float layers whose sum exceeds the cap.

    The answer is the float that bisecting [0, 1] to adjacency gives, and
    a narrower bracket gives it too.  Float Horner H with non-negative
    coefficients is non-decreasing in x >= 0, because rounded + and * are
    monotone, so H(x) <= cap holds for the floats up to one threshold t and
    for none above it.  Bisection keeps lo at or below the cap and hi above
    it, never evaluates its starting lo = 0 and hi = 1.0, and stops when
    they are adjacent: from [0, 1] it returns min(t, 1 - 2^-53), and so it
    does from any bracket with H(lo) <= cap < H(hi).

    Newton's method narrows [0, 1] to such a bracket, starting at x = 1.
    H is convex in x and log H is convex in log x (a log-sum-exp), so a
    Newton step in x from a point at or below the cap, and a Newton step
    on log H against log x from a point above it, both land at or above
    the root; the second is exact for a single power, so the iterates come
    down from above in a few steps.  Each iterate is clamped strictly
    inside the bracket, which therefore shrinks by at least one float per
    step.  The search ends when no float splits the bracket, and on inf,
    nan, a zero slope or too many steps it hands the bracket it has, still
    a valid one, to the bisection."""
    cs = [float(c) for c in layers]
    lo = val_lo = 0.0
    x = hi = 1.0
    for _ in range(_NEWTON_STEPS):
        val = der = 0.0
        for c in reversed(cs):
            der = der * x + val
            val = val * x + c
        if val <= cap:
            if x == 1.0:
                return nextafter(1.0, 0.0)
            lo, val_lo = x, val
            if not 0.0 < der < inf:
                break
            x += (cap - val) / der
        else:
            slope = x * der  # val times d(log H)/d(log x)
            if not (val < inf and 0.0 < slope < inf):
                break
            hi = x
            x += x * expm1(-log1p((val - cap) / cap) * val / slope)
        x = min(max(x, nextafter(lo, 1.0)), nextafter(hi, 0.0))
        if not lo < x < hi:
            break
    return _bisect(cs, cap, hi, _resolved, lo, val_lo)[0]


def single_var_threshold(k: int, cap: float = DEFAULT_CAP, tol: float = 1e-12) -> float:
    """The unique x > 0 with sum over n <= k of n^(n-1) x^n / n! equal to
    `cap`, by bisection to within tol (or to float resolution, if tol is
    smaller)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    coeffs = weights.single_variable_layers(1.0, k)
    lo, hi = _bisect(coeffs, cap, cap, lambda lo, hi, _: hi - lo <= tol or _resolved(lo, hi, _))
    mid, val = 0.5 * (lo + hi), 0.0
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


def maximize(config: OptimizerConfig, warm_starts=()) -> MaximizeResult:
    """Multi-start local search for the constrained maximum.

    Each restart settles its iterate (closure, then scaling projection to
    the cap) and runs coordinate ascent with step halving on the linear
    objective until no coordinate improves by more than tol.  Starts are a
    deterministic embedding of the single-variable threshold, any supplied
    warm starts, and seeded random vectors.  The best point is re-validated
    in exact arithmetic; the result is a certified feasible lower bound for
    the maximum, not a certificate of optimality.  Raises ValueError when
    no start settles to a finite objective within the budget.
    """
    cat, k = config.catalog, config.k
    ev = TruncatedSeriesEvaluator(cat, k)
    d = len(cat.u0)
    sizes_u0 = [u.size for u in cat.u0]
    lin = [1.0 / u.aut_u for u in cat.u0]
    cap = config.y_cap
    state = {"evals": 0}
    trace = []

    # restarts reach the same closed points and replay the same coordinate
    # steps, so a vector is closed and projected once
    @cache
    def close_and_project(zv: tuple):
        """The closure of zv projected to the cap, and its objective."""
        om, layers = ev.evaluate(zv)
        zc = [0.0] * d
        for j, c in zip(ev.u0_zslots, ev.u0_positions):
            zc[j] = om[c]
        if _left_sum(layers) > cap:
            lam = _scale_to_cap(layers, cap)
            zc = [v * lam**s for v, s in zip(zc, sizes_u0)]
        return tuple(zc), _left_sum(map(mul, zc, lin))

    def settle(zv: tuple):
        """Close and project; every call counts as an evaluation."""
        state["evals"] += 1
        return close_and_project(zv)

    embed = [0.0] * d
    embed[cat.u0_index[treekit.SINGLE_VERTEX_CODE]] = single_var_threshold(k, cap=cap)
    starts = [tuple(embed)]
    for wst in warm_starts:
        start = tuple(wst.to_floats() if isinstance(wst, WeightVector) else map(float, wst))
        if len(start) != d:
            raise ValueError(f"warm start {list(start)} has {len(start)} entries, not {d}")
        if not all(v >= 0 for v in start):  # refuses NaN too
            raise ValueError(f"warm start {list(start)} has an entry that is not >= 0")
        starts.append(start)
    for r in range(config.restarts):
        rng = random.Random(f"{config.seed}:{r}")
        starts.append(tuple(rng.uniform(0.0, 1.0) for _ in range(d)))

    best_z = None
    best_obj = -1.0
    restarts_used = 0
    for idx, z0 in enumerate(starts):
        if state["evals"] >= config.budget:
            break
        restarts_used += 1
        zv, obj = settle(z0)
        improved = True
        while improved and state["evals"] < config.budget:
            improved = False
            for j in range(d):
                step = max(abs(zv[j]), 0.25)
                while step > config.tol and state["evals"] < config.budget:
                    moved = False
                    for sign in (1.0, -1.0):
                        cand_j = max(0.0, zv[j] + sign * step)
                        if cand_j == zv[j] or state["evals"] >= config.budget:
                            continue
                        new_zv, new_obj = settle((*zv[:j], cand_j, *zv[j + 1 :]))
                        if new_obj > obj + config.tol:
                            zv, obj = new_zv, new_obj
                            moved = True
                            improved = True
                            break
                    if not moved:
                        step *= 0.5
        if obj > best_obj:
            best_obj = obj
            best_z = zv
            trace.append({"start": idx, "objective": obj, "evaluations": state["evals"]})

    if best_z is None:  # every settled start's objective was NaN
        raise ValueError(f"no start settled to a finite objective in {state['evals']} evaluations")
    point, per_size = _certify(best_z, config)
    return MaximizeResult(
        point=point,
        objective_float=float(point.objective),
        trace=trace,
        evaluations=state["evals"],
        restarts_used=restarts_used,
        budget_exhausted=state["evals"] >= config.budget,
        y_per_size=per_size,
    )


def bound_check(point: FeasiblePoint, epsilon) -> BoundCheck:
    """Compare the objective against (1 + epsilon)/2.

    Float epsilons are read decimally (0.1 means 1/10)."""
    eps = epsilon if isinstance(epsilon, (int, Fraction)) else Fraction(str(epsilon))
    limit = (1 + eps) / 2
    obj = point.objective if isinstance(point.objective, Fraction) else Fraction(point.objective)
    return BoundCheck(ok=obj <= limit, objective=point.objective, limit=limit, epsilon=float(epsilon))
