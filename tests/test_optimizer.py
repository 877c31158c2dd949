import dataclasses
import hashlib
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from bridgeforest import optimizer as op
from bridgeforest import treekit as tk
from bridgeforest import weights as wt

import oracles

E_INV = math.exp(-1)


@pytest.fixture(scope="module")
def cat1():
    return tk.Catalog.standard(1, 1)


@pytest.fixture(scope="module")
def cat2():
    return tk.Catalog.standard(1, 2)


def config(catalog, k, **kw):
    return op.OptimizerConfig(catalog=catalog, k=k, **kw)


class TestConfig:
    def test_k_bound(self, cat2):
        with pytest.raises(ValueError):
            op.OptimizerConfig(catalog=cat2, k=1)

    def test_cap_bound(self, cat1):
        with pytest.raises(ValueError):
            op.OptimizerConfig(catalog=cat1, k=4, y_cap=0.9)

    def test_budget_bound(self, cat1):
        for budget in (0, -1):
            with pytest.raises(ValueError, match="budget"):
                op.OptimizerConfig(catalog=cat1, k=4, budget=budget)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_cap_and_tol_finite(self, value):
        # an infinite cap once ran the whole search and then failed to
        # certify, and an infinite tol stopped after two evaluations
        cat3 = tk.Catalog.standard(1, 3)
        with pytest.raises(ValueError, match="cap must exceed 1 and be finite"):
            op.OptimizerConfig(catalog=cat3, k=4, y_cap=value)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            op.OptimizerConfig(catalog=cat3, k=4, tol=value)

    def test_five_fields(self):
        names = [f.name for f in dataclasses.fields(op.OptimizerConfig)]
        assert names == ["catalog", "k", "budget", "tol", "y_cap"]

    @pytest.mark.parametrize("name", ["restarts", "seed"])
    def test_no_restarts_or_seed(self, cat1, name):
        # the search draws nothing and starts once
        with pytest.raises(TypeError, match=name):
            op.OptimizerConfig(catalog=cat1, k=4, **{name: 0})


class TestSingleVarThreshold:
    def test_k1(self):
        assert abs(op.single_var_threshold(1) - 1.5) < 1e-9

    def test_strictly_decreasing(self):
        xs = [op.single_var_threshold(k) for k in range(1, 15)]
        assert all(a > b for a, b in zip(xs, xs[1:]))

    def test_above_e_inverse(self):
        for k in (2, 6, 10, 14):
            assert op.single_var_threshold(k) > E_INV

    def test_zero_tol_stops_at_float_resolution(self):
        x = op.single_var_threshold(5, tol=0.0)
        assert abs(x - op.single_var_threshold(5)) < 1e-12

    def test_solves_equation(self):
        for k in (3, 8, 12):
            x = op.single_var_threshold(k)
            y = sum(wt.single_variable_layers(x, k))
            assert abs(y - 1.5) < 1e-9

    def test_cap_near_the_float_limit(self):
        # lo + hi passes the largest float there: (lo + hi) / 2 was inf,
        # and the bisection stopped near 8.76e307
        assert abs(op.single_var_threshold(1, cap=1e308) - 1e308) <= math.ulp(1e308)

    def test_midpoints_keep_their_bits_and_never_overflow(self):
        rng = random.Random(0)
        for _ in range(1000):
            lo, hi = sorted(rng.uniform(0, 10) ** rng.randint(1, 300) for _ in range(2))
            assert op._mid(lo, hi) == (lo + hi) / 2
        big = 1.7976931348623157e308
        for lo in (big / 2, 1.7e308, math.nextafter(big, 0)):
            assert lo <= op._mid(lo, big) <= big


class TestFeasibility:
    def test_zero_vector_feasible(self, cat1):
        cfg = config(cat1, 5)
        res = op.feasibility(wt.WeightVector.zero(cat1), cfg)
        assert res.feasible and res.point.objective == 0

    def test_e_inverse_feasible(self, cat1):
        cfg = config(cat1, 8)
        z = wt.WeightVector.over(cat1, {"()": E_INV})
        res = op.feasibility(z, cfg)
        assert res.feasible
        assert res.point.y_value < 1.0

    def test_one_infeasible(self, cat1):
        cfg = config(cat1, 6)
        z = wt.WeightVector.over(cat1, {"()": 1.0})
        res = op.feasibility(z, cfg)
        assert not res.feasible
        assert any("cap" in v for v in res.violations)

    @pytest.mark.parametrize(
        "z, k",
        [
            # powers past the largest float (they raised OverflowError)
            ((1e200, 1e200, 1e200), 6),
            # finite layers [0, 0, 1e308, 1.5e308] whose sum overflows (fsum raised)
            ((0.0, 1e308, 1e308), 3),
            # 1e200**2 overflows to inf and meets 0.0**1, a monomial that is 0
            ((0.0, 1e200, 1e200), 5),
        ],
    )
    def test_float_series_past_the_largest_float_exceeds_the_cap(self, z, k):
        cat = tk.Catalog.standard(1, 3)
        vec = wt.WeightVector(tuple((u.code, v) for u, v in zip(cat.u0, z)))
        res = op.feasibility(vec, config(cat, k))
        assert not res.feasible and res.point is None
        assert any(v.startswith("rooted series") and "exceeds cap" in v for v in res.violations)

    def test_exact_mode_closure_violation(self, cat2):
        cfg = config(cat2, 4)
        z = wt.WeightVector.over(cat2, {"()": Fraction(1, 4), "(())": Fraction(0)})
        res = op.feasibility(z, cfg)
        assert not res.feasible
        assert any("fixed point" in v for v in res.violations)

    def test_exact_mode_closed_point(self, cat2):
        cfg = config(cat2, 4)
        z = wt.closure(wt.WeightVector.over(cat2, {"()": Fraction(1, 4)}), cat2)
        res = op.feasibility(z, cfg)
        assert res.feasible and res.point.closed


def float_points(cat, k, cfg):
    """Float vectors from seeded uniform draws, piece U scaled by
    scale**|U|: each draw as it is (often unclosed), with its largest piece
    zeroed (unclosed once u0 has two pieces), closed, and closed then
    projected onto the cap."""
    for seed in range(4):
        rng = random.Random(f"{k}:{seed}")
        for scale in (2.0, 0.5, 0.1):
            z = wt.WeightVector.over(cat, {u.code: scale**u.size * rng.random() for u in cat.u0})
            hollow = wt.WeightVector.over(cat, {**z.as_dict(), cat.u0[-1].code: 0.0})
            closed = wt.closure(z, cat)
            yield from (z, hollow, closed, oracles.project_scale(closed, cfg))


class TestFloatFeasibilityAgainstOracle:
    # float vectors take the exact path with tolerance config.tol; the
    # reference is the first float check, on the vectorized evaluator
    @pytest.mark.parametrize("u_max", [1, 2, 3])
    @pytest.mark.parametrize("k", [8, 11, 14])
    def test_same_verdicts_and_values(self, u_max, k):
        cat = tk.Catalog.standard(1, u_max)
        cfg = config(cat, k)
        ev = wt._profiles(cat.u0, k)
        verdicts, seen = set(), set()
        for z in float_points(cat, k, cfg):
            res = op.feasibility(z, cfg)
            feasible, violations, y, objective = oracles.float_feasibility(ev, z, cfg)
            assert (res.feasible, res.violations) == (feasible, violations), z.entries
            assert wt.rooted_series(z, k, cat) == pytest.approx(y, rel=1e-12, abs=0)
            assert wt.piece_series_linear(z, cat) == pytest.approx(objective, rel=1e-12, abs=0)
            if feasible:
                assert res.point.closed
                assert res.point.y_value == pytest.approx(y, rel=1e-12, abs=0)
                assert res.point.objective == pytest.approx(objective, rel=1e-12, abs=0)
            verdicts.add(feasible)
            seen.update(violations)
        # the points reach both verdicts, and every violation where u0 has
        # a piece that can be unclosed
        assert verdicts == {True, False}
        assert any(v.startswith("rooted series") for v in seen)
        if u_max > 1:
            assert "not a closure fixed point (beyond tol)" in seen


class TestProjectScale:
    def test_zero_rejected(self, cat1):
        with pytest.raises(ValueError):
            oracles.project_scale(wt.WeightVector.zero(cat1), config(cat1, 5))

    def test_feasible_unchanged(self, cat1):
        cfg = config(cat1, 6)
        z = wt.WeightVector.over(cat1, {"()": 0.2})
        assert oracles.project_scale(z, cfg) is z

    def test_projection_lands_on_cap_float(self, cat1):
        cfg = config(cat1, 6)
        z = wt.WeightVector.over(cat1, {"()": 1.0})
        scaled = oracles.project_scale(z, cfg)
        x = scaled["()"]
        assert op.single_var_threshold(6) - 1e-6 <= x <= op.single_var_threshold(6) + 1e-6
        y = sum(wt.single_variable_layers(x, 6))
        assert abs(y - 1.5) <= 1e-6
        assert y <= 1.5 + cfg.tol

    def test_projection_exact_mode(self, cat2):
        cfg = config(cat2, 5)
        z = wt.WeightVector.over(cat2, {"()": Fraction(1), "(())": Fraction(1, 2)})
        scaled = oracles.project_scale(z, cfg)
        assert scaled.exact
        y = wt.rooted_series(scaled, 5, cat2)
        assert y <= Fraction(3, 2)
        assert float(Fraction(3, 2) - y) <= cfg.tol

    def test_bracketing_spec_example(self, cat1):
        cfg = config(cat1, 6)
        z = wt.WeightVector.over(cat1, {"()": 1.0})
        x = oracles.project_scale(z, cfg)["()"]
        assert E_INV < x < 1.0


class TestScaleToCapAgainstOracle:
    # the layers of every corner the box search evaluates above the cap,
    # through the projection, the oracle's Horner bisection of [0, 1] (the
    # same float) and the first (numpy) projection
    def test_within_two_ulps_and_under_cap(self, monkeypatch):
        seen, cap = [], op.DEFAULT_CAP
        evaluate = wt.TruncatedSeriesEvaluator.evaluate

        def record(self, zvec):
            om, layers = evaluate(self, zvec)
            if op._left_sum(layers) > cap:
                seen.append(layers.copy())
            return om, layers

        monkeypatch.setattr(wt.TruncatedSeriesEvaluator, "evaluate", record)
        for u_max, k in [(3, 11), (3, 14), (4, 14)]:  # 117, 106 and 392 corners
            op.bracket(op.OptimizerConfig(catalog=tk.Catalog.standard(1, u_max), k=k))
        assert len(seen) > 400
        for layers in seen:
            lam = op._scale_to_cap(layers, cap)
            assert lam == oracles.scale_to_cap_bisect(layers, cap)
            ref = oracles.scale_to_cap(layers, cap)
            assert abs(lam - ref) <= 2 * math.ulp(ref)
            # in floats lam is the largest feasible scale; the exact series
            # exceeds the cap by rounding at most
            assert np.polyval(layers[::-1], lam) <= cap
            above = math.nextafter(lam, 1.0)
            assert above == 1.0 or np.polyval(layers[::-1], above) > cap
            exact = sum(Fraction(c) * Fraction(lam) ** s for s, c in enumerate(layers))
            assert exact <= Fraction(cap) * (1 + Fraction(1, 2**50))

    def test_random_vectors_equal_bisection(self):
        rng = random.Random(14)
        for _ in range(2000):
            k = rng.randint(3, 18)
            scale = 10 ** rng.uniform(-3, 3)
            growth = 10 ** rng.uniform(-1, 1)
            layers = [0.0] + [
                0.0 if rng.random() < 0.2 else rng.random() * scale * growth**s
                for s in range(1, k + 1)
            ]
            cap = rng.choice([1.5, 1.0 + 2**-40, 3.0, 1e10])
            assert op._scale_to_cap(layers, cap) == oracles.scale_to_cap_bisect(layers, cap)

    def test_horner_at_one_within_cap(self):
        # the numpy sum (forward) exceeds the cap, Horner at 1.0 (backward)
        # rounds both halves of an ulp away: the answer is the float below 1
        half_ulp = 2.0**-53
        layers = np.array([0.0, half_ulp, half_ulp, 1.5])
        assert float(layers[1:].sum()) > 1.5
        assert op._scale_to_cap(layers, 1.5) == 1 - 2**-53
        assert oracles.scale_to_cap_bisect(layers, 1.5) == 1 - 2**-53

    @pytest.mark.parametrize(
        "layers, cap",
        [
            ([0.0, 1.0, math.inf], 1.5),
            ([0.0, math.inf, 1.0, 2.0], 1.5),
            ([0.0, 1.0, math.nan], 1.5),
            ([math.nan, 0.0, 0.0], 1.5),
            ([0.0, 1e308, 1e308], 1e308),
            ([0.0, 1e300, 1e300, math.inf], 1e308),
            ([2.0, 1.0, 1.0], 1.5),
        ],
    )
    def test_inf_nan_and_unreachable_caps(self, layers, cap):
        assert op._scale_to_cap(layers, cap) == oracles.scale_to_cap_bisect(layers, cap)

    def test_exact_projection_lands_in_tolerance(self):
        cat3 = tk.Catalog.standard(1, 3)
        cfg = config(cat3, 8, tol=1e-12)
        z = wt.WeightVector.over(cat3, {u.code: Fraction(1, 2) for u in cat3.u0})
        y = wt.rooted_series(oracles.project_scale(z, cfg), 8, cat3)
        assert Fraction(3, 2) - Fraction(cfg.tol) <= y <= Fraction(3, 2)


# what the multistart coordinate ascent that the box search replaced
# certified at 23 configurations, in its last version: (u_max, k, its
# other arguments, the budget, sha256 of str(objective), float(objective),
# evaluations).  Its seeds and restarts changed its evaluations only.
_ASCENT = "6bab13cc4d329eed08aa0971d25fd698961f42557ddb5128096ad8cdb1b7c5c1", 0.5918870282653527
_K14 = "c219d75ad6d68d84b169df807ad3988f4423f80a60ca79aeb56adce2069e5e54", 0.565309703969364
_MULTISTART_ASCENT = (
    [(3, 11, f"seed={seed}", 1000, *_ASCENT, 1000) for seed in range(10)]
    + [(3, 14, f"restarts=4,seed={seed}", 10_000, *_K14, n) for seed, n in enumerate((1534, 1366, 1539, 1538))]
    + [
        (3, 14, "", 10_000, *_K14, 9899),
        (3, 8, "", 10_000, "a74d8b32d97785a463921f5bb730940aec04b7e0055302ae9559be900242373e", 0.6398864708564247, 9904),
        (3, 16, "", 10_000, "a09302f7655ee96bfece1f4ae3fdc6fa79cf8d73048fb416c894f9c3bc8b7f4c", 0.5532529822896451, 9899),
        (3, 18, "", 10_000, "9ba101311381dff60b5c29fcc6b5971cc41c7b0be11fff45169d070b5b696191", 0.5438983525686951, 9899),
        (1, 11, "", 10_000, "f74155475b6623dc532048d27c858b5d2e55659fd2e9ca9c7d2099c65601c579", 0.44718616458612814, 2881),
        (2, 11, "", 10_000, "61f76ad1172848657391b238481c4c666696d601ae8323259a39268a52da669a", 0.547173897484754, 6310),
        (4, 12, "", 10_000, "71c8b79cd0a19f1763dfcba1d17e60cfad7fca8ed311711c79b51e556d9d57f4", 0.6067592038466764, 10_000),
        (4, 14, "", 10_000, "55f5331257756c3259292422b62e5dbc10e190754447eba356d6b343a346e296", 0.588489418022879, 10_000),
        (2, 14, "seed=3", 10_000, "d36d7d637200423bc54915c2a9e4e74e7f8a3da133c0bed41a7547497ea3edca", 0.5250500994629753, 6432),
    ]
)


@pytest.fixture(scope="module")
def brackets():
    """bracket's result per (u_max, k, budget)."""
    found = {}

    def get(u_max, k, budget=10_000):
        key = (u_max, k, budget)
        if key not in found:
            cfg = op.OptimizerConfig(catalog=tk.Catalog.standard(1, u_max), k=k, budget=budget)
            found[key] = op.bracket(cfg)
        return found[key]

    return get


class TestBracket:
    @pytest.mark.parametrize(
        "u_max, k, ascent_args, budget, digest, objective, evaluations",
        _MULTISTART_ASCENT,
        ids=[f"{u_max}-{k}-{args or 'defaults'}" for u_max, k, args, *_ in _MULTISTART_ASCENT],
    )
    def test_at_least_the_multistart_ascent(self, brackets, u_max, k, ascent_args, budget, digest, objective, evaluations):
        # the same certified rational as the ascent, from fewer evaluations,
        # and never above the search's upper end
        res = brackets(u_max, k, budget)
        assert res.point.closed and res.point.y_value <= Fraction(3, 2)
        assert hashlib.sha256(str(res.point.objective).encode()).hexdigest() == digest
        assert res.objective_float == objective
        assert res.point.objective <= Fraction(res.upper_float)
        assert not res.budget_exhausted and res.evaluations < evaluations
        assert res.upper_float - res.objective_float <= 1e-9

    @pytest.mark.parametrize("u_max, k, budget", [(3, 11, 1000), (1, 8, 10_000), (2, 6, 10_000)])
    def test_certified_point_is_exactly_feasible(self, brackets, u_max, k, budget):
        res = brackets(u_max, k, budget)
        cfg = op.OptimizerConfig(catalog=tk.Catalog.standard(1, u_max), k=k)
        recheck = op.feasibility(res.point.z, cfg)
        assert res.point.z.exact and res.point.closed
        assert recheck.feasible and recheck.point.objective == res.point.objective
        assert set(res.y_per_size) == set(range(1, k + 1))
        assert sum(res.y_per_size.values()) == res.point.y_value
        assert res.evaluations <= 200

    def test_deterministic(self, cat2):
        a, b = (op.bracket(config(cat2, 6)) for _ in range(2))
        assert a == b

    def test_one_profile_table_per_search(self):
        # the certificate's exact layers reads the table the search built
        wt._profiles.cache_clear()
        op.bracket(config(tk.Catalog.standard(1, 3), 11, budget=50))
        info = wt._profiles.cache_info()
        assert info.misses == 1 and info.hits >= 1

    def test_richer_u0_does_not_hurt(self, brackets):
        # {single vertex} inside unrooted<=2 inside unrooted<=3 at k = 8
        small, mid, big = (brackets(u_max, 8) for u_max in (1, 2, 3))
        assert small.point.objective <= mid.point.objective <= big.point.objective

    def test_monotone_non_increasing_in_k(self, brackets):
        objectives = [brackets(2, k).point.objective for k in range(2, 13)]
        assert objectives == sorted(objectives, reverse=True)

    @pytest.mark.parametrize("u_max", [1, 2, 3])
    def test_knapsack_cut_holds_exactly(self, u_max):
        # for z >= a closed c, Y(z) >= R(c) + sum_j w_j z_j with R(c) >= 0:
        # the inequality the search prunes and bounds boxes with
        cat = tk.Catalog.standard(1, u_max)
        rng = random.Random(u_max)
        for k in range(u_max, 9):
            for _ in range(6):
                z0 = wt.WeightVector.over(cat, {u.code: Fraction(rng.randrange(0, 65), 64) for u in cat.u0})
                c = wt.closure(z0, cat)
                z = wt.WeightVector(tuple((code, v + Fraction(rng.randrange(0, 33), 32)) for code, v in c.entries))
                r, floor = oracles.knapsack_floor(c, z, k, cat)
                assert r >= 0
                assert sum(oracles.layers_reference(z, k, cat)) >= floor

    @pytest.mark.parametrize("u_max", [2, 3])
    def test_knapsack_keeps_every_feasible_point(self, u_max):
        # a feasible z >= a closed corner c stays in the box the cut leaves,
        # and its objective stays under the cut's bound
        cat, k, cap = tk.Catalog.standard(1, u_max), 8, 1.5
        ev = wt._profiles(cat.u0, k)
        cost = [u.size / u.aut_u for u in cat.u0]
        lin = [1 / u.aut_u for u in cat.u0]
        greedy = sorted(range(len(cat.u0)), key=lambda j: cat.u0[j].size)
        rng = random.Random(u_max)
        kept = 0
        for _ in range(400):
            om, layers = ev.evaluate([rng.uniform(0, 0.35) for _ in cat.u0])
            c = [om[p] for p in ev.u0_positions]
            z = [v + rng.uniform(0, 0.15) for v in c]
            y, y_z = sum(layers), sum(ev.evaluate(z)[1])
            if y_z > cap:
                continue
            r = y - sum(map(operator.mul, cost, c))
            hi, bound = op._knapsack(c, (math.inf,) * len(c), cap - r, cost, lin, greedy)
            assert all(v <= h * (1 + 1e-12) for v, h in zip(z, hi))
            assert sum(map(operator.mul, lin, z)) <= bound * (1 + 1e-12)
            kept += 1
        assert kept >= 30

    @pytest.mark.parametrize("k", range(2, 7))
    def test_no_grid_point_above_the_upper_end(self, k):
        cat = tk.Catalog.standard(1, 2)
        res = op.bracket(op.OptimizerConfig(catalog=cat, k=k))
        best = oracles.grid_maximum(cat, k, 1.5, 16)
        assert best <= Fraction(res.upper_float)
        assert res.objective_float >= float(best) - 1e-9

    @pytest.mark.parametrize("k", [1, 2, 4, 6, 10, 12])
    def test_single_variable_bracket_holds_the_threshold(self, cat1, k):
        res = op.bracket(config(cat1, k))
        x = op.single_var_threshold(k)
        assert res.objective_float - 1e-12 <= x <= res.upper_float + 1e-12
        assert abs(res.objective_float - x) < 1e-8

    @pytest.mark.parametrize("u_max, k", [(2, 6), (3, 11), (4, 8)])
    def test_boxes_reach_the_maximum_without_the_embedded_start(self, brackets, monkeypatch, u_max, k):
        # with the zero vector as the first candidate, only the boxes can
        # find the maximum: a knapsack cut that is too deep prunes it
        best = brackets(u_max, k)
        monkeypatch.setattr(op, "single_var_threshold", lambda k, cap: 0.0)
        res = op.bracket(op.OptimizerConfig(catalog=tk.Catalog.standard(1, u_max), k=k))
        assert not res.budget_exhausted
        assert abs(res.objective_float - best.objective_float) <= 1e-9
        assert best.objective_float <= res.upper_float

    @pytest.mark.parametrize("budget", [1, 2, 50, 183])
    def test_short_budgets_certify_the_embedded_point(self, budget):
        # the search closes its gap in 184 evaluations here
        cat = tk.Catalog.standard(1, 3)
        res = op.bracket(op.OptimizerConfig(catalog=cat, k=11, budget=budget))
        assert res.evaluations <= budget and res.budget_exhausted
        assert budget > 1 or res.evaluations == 1
        x = Fraction(op.single_var_threshold(11))
        embedded = x + x**2 / 2 + x**3 / 2  # the closed embedded point's objective
        assert res.point.objective >= embedded * (1 - Fraction(1, 10**9))
        assert res.point.y_value <= Fraction(3, 2)

    def test_nan_candidates_are_never_taken(self, cat2, monkeypatch):
        # every max weight NaN: no candidate is finite and every box's
        # closure fails c <= hi, so the zero vector is what is certified
        evaluate = wt.TruncatedSeriesEvaluator.evaluate

        def nan_weights(self, zvec):
            om, layers = evaluate(self, zvec)
            return [math.nan] * len(om), layers

        monkeypatch.setattr(wt.TruncatedSeriesEvaluator, "evaluate", nan_weights)
        res = op.bracket(config(cat2, 4))
        assert res.point.objective == 0 and res.point.closed
        assert res.evaluations == 2 and not res.budget_exhausted

    def test_budget_flag_clear_with_budget_left(self, cat1):
        res = op.bracket(config(cat1, 6, budget=10_000))
        assert res.evaluations < 10_000
        assert res.budget_exhausted is False

    @pytest.mark.parametrize("u_max, k, budget", [(2, 6, 10_000), (3, 11, 10_000), (4, 8, 10_000), (3, 11, 50)])
    def test_evaluations_count_every_evaluator_call(self, monkeypatch, u_max, k, budget):
        # one evaluator call per evaluation, and no corner evaluated twice
        calls = []
        evaluate = wt.TruncatedSeriesEvaluator.evaluate

        def counted(self, zvec):
            calls.append(tuple(zvec))
            return evaluate(self, zvec)

        monkeypatch.setattr(wt.TruncatedSeriesEvaluator, "evaluate", counted)
        res = op.bracket(op.OptimizerConfig(catalog=tk.Catalog.standard(1, u_max), k=k, budget=budget))
        assert len(calls) == res.evaluations == len(set(calls)) <= budget

    def test_nan_max_weights_certify_the_zero_point(self, cat2, monkeypatch):
        # every max weight NaN: no NaN corner is offered or kept as a box,
        # so the search ends at once with the zero vector, closed and feasible
        evaluate = wt.TruncatedSeriesEvaluator.evaluate

        def nan_weights(self, zvec):
            om, layers = evaluate(self, zvec)
            return [math.nan] * len(om), layers

        monkeypatch.setattr(wt.TruncatedSeriesEvaluator, "evaluate", nan_weights)
        res = op.bracket(config(cat2, 2, budget=20))
        assert res.evaluations == 2 and not res.budget_exhausted
        assert res.point.closed and res.point.objective == 0 == res.upper_float
        assert all(v == 0 for _, v in res.point.z.entries)

    def test_largest_float_cap(self, cat2):
        # the box splits past lo + hi = the largest float, and the embedded
        # start is the best point a budget of 20 finds.  The threshold's
        # last midpoint rounds up to a bracket end whose series overflows,
        # so the threshold is the end below it
        cfg = config(cat2, 2, budget=20, y_cap=1.7976931348623157e308)
        assert op.single_var_threshold(2, cap=cfg.y_cap) == math.nextafter(2.0**512, 0.0)
        res = op.bracket(cfg)
        assert res.point.closed and res.point.y_value <= Fraction(cfg.y_cap)
        assert 8.9e307 < res.objective_float <= res.upper_float < 1.8e308
        assert not op.bound_check(res.point, 0.1).ok

    def test_certificate_rounds_as_the_float_product_did(self, cat1):
        # each weight is rounded to a multiple of 2^-40 exactly; wherever
        # v * 2^40 is a finite float that product was exact, so the exact
        # rounding gives what rounding the product gave
        cfg = config(cat1, 1, y_cap=1.7976931348623157e308)
        rng = random.Random(0)
        values = [rng.uniform(1.0, 2.0) * 2.0**e for e in range(-1074, 984, 7)]
        values += [(2 * m + 1) * 2.0**-41 for m in [*range(64), *range(2**51, 2**51 + 64)]]
        values += [math.nextafter(2.0**984, 0.0), 0.0]
        for v in values:
            assert math.isfinite(v * 2**40)
            point, _ = op._certify((v,), cfg)
            assert point.z["()"] == Fraction(round(v * 2**40), 2**40), v
        # past 2^984 the float product overflows; the exact one does not
        assert op._certify((1e300,), cfg)[0].z["()"] == Fraction(1e300)


class TestBoundCheck:
    def test_zero_objective_passes(self, cat1):
        point = op.FeasiblePoint(
            z=wt.WeightVector.zero(cat1), y_value=Fraction(0), objective=Fraction(0), closed=True
        )
        assert op.bound_check(point, 0.0).ok

    def test_single_var_passes_at_zero_epsilon(self, cat1):
        res = op.bracket(config(cat1, 10))
        chk = op.bound_check(res.point, 0.0)
        assert chk.ok  # x_10 < 0.5

    def test_limit_value(self, cat1):
        res = op.bracket(config(cat1, 6))
        chk = op.bound_check(res.point, 0.1)
        assert chk.limit == Fraction(11, 20)

    def test_failure_detected(self, cat1):
        point = op.FeasiblePoint(
            z=wt.WeightVector.zero(cat1),
            y_value=Fraction(0),
            objective=Fraction(3, 5),
            closed=True,
        )
        assert not op.bound_check(point, 0.1).ok
