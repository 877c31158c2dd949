import math
import random
from fractions import Fraction

import pytest

from bridgeforest import treekit as tk
from bridgeforest import weights as wt

import oracles

E_INV = math.exp(-1)


@pytest.fixture(scope="module")
def cat1():
    return tk.Catalog.standard(2, 1)


@pytest.fixture(scope="module")
def cat2():
    return tk.Catalog.standard(3, 2)


@pytest.fixture(scope="module")
def cat3():
    return tk.Catalog.standard(4, 3)


def random_rational_weights(catalog, rng, den=8, hi=12):
    return wt.WeightVector.over(
        catalog, {u.code: Fraction(rng.randrange(0, hi + 1), den) for u in catalog.u0}
    )


class TestWeightVector:
    def test_domain_validation(self, cat2):
        with pytest.raises(ValueError):
            wt.WeightVector.over(cat2, {"((()))": 1})

    def test_negative_rejected(self, cat2):
        with pytest.raises(ValueError):
            wt.WeightVector.over(cat2, {"()": -1})

    def test_nan_rejected(self, cat3):
        # a NaN compares false with 0, so a `< 0` test let it through and
        # the series read it as 0
        with pytest.raises(ValueError, match="is not >= 0"):
            wt.WeightVector.over(cat3, {"()": 0.3, "(())": math.nan})
        entries = tuple((u.code, math.nan if u.code == "()" else 0.0) for u in cat3.u0)
        with pytest.raises(ValueError, match="is not >= 0"):
            wt.WeightVector(entries)

    def test_infinity_accepted(self, cat2):
        assert wt.WeightVector.over(cat2, {"()": math.inf})["()"] == math.inf

    def test_exact_flag(self, cat2):
        assert wt.WeightVector.over(cat2, {"()": Fraction(1, 2)}).exact
        assert not wt.WeightVector.over(cat2, {"()": 0.5}).exact

    def test_zero(self, cat2):
        z = wt.WeightVector.zero(cat2)
        assert all(v == 0 for _, v in z.entries)


class TestMaxWeight:
    def test_single_vertex_base_case(self, cat1):
        z = wt.WeightVector.over(cat1, {"()": Fraction(2, 7)})
        v, trace = wt.max_weight(tk.enumerate_unrooted(1)[0], z, cat1)
        assert v == Fraction(2, 7)
        assert trace.steps[0].piece == "()"

    def test_single_piece_power(self, cat1):
        # u0 = {single vertex}: every tree decomposes vertex by vertex
        x = Fraction(1, 3)
        z = wt.WeightVector.over(cat1, {"()": x})
        for u in tk.enumerate_unrooted(6):
            v, _ = wt.max_weight(u, z, cat1)
            assert v == x**u.size

    def test_spec_pair_examples(self, cat2):
        a, b = Fraction(2, 5), Fraction(3, 7)
        z = wt.WeightVector.over(cat2, {"()": a, "(())": b})
        p3 = tk.canonicalize_unrooted([(1, 2), (2, 3)])
        s4 = tk.canonicalize_unrooted([(1, 2), (1, 3), (1, 4)])
        assert wt.max_weight(p3, z, cat2)[0] == max(a**3, a * b)
        assert wt.max_weight(s4, z, cat2)[0] == max(a**4, a**2 * b)

    def test_zero_weights_give_zero_and_empty_trace(self, cat2):
        z = wt.WeightVector.zero(cat2)
        p3 = tk.canonicalize_unrooted([(1, 2), (2, 3)])
        v, trace = wt.max_weight(p3, z, cat2)
        assert v == 0 and trace.steps == ()

    def test_accepts_rooted_codes(self, cat2):
        z = wt.WeightVector.over(cat2, {"()": Fraction(1, 2), "(())": Fraction(1, 3)})
        rooted = tk.canonicalize_rooted([(1, 2), (2, 3)], root=1)
        unrooted = tk.canonicalize_unrooted([(1, 2), (2, 3)])
        assert wt.max_weight(rooted, z, cat2)[0] == wt.max_weight(unrooted, z, cat2)[0]


class TestDecompositionOracle:
    def test_single_vertex_unique(self, cat2):
        decs = oracles.enumerate_decompositions(tk.enumerate_unrooted(1)[0], cat2)
        assert len(decs) == 1

    def test_three_path_count(self, cat2):
        p3 = tk.canonicalize_unrooted([(1, 2), (2, 3)])
        decs = oracles.enumerate_decompositions(p3, cat2)
        pieces = sorted(tuple(s.piece for s in d.steps) for d in decs)
        assert pieces == [
            ("(())", "()"),
            ("()", "(())"),
            ("()", "()", "()"),
        ]

    def test_replay_reconstructs(self, cat2):
        for u in tk.enumerate_unrooted(6):
            for d in oracles.enumerate_decompositions(u, cat2):
                assert oracles.replay_trace(d).code == u.code

    def test_size_bound(self, cat2):
        p9 = tk.canonicalize_unrooted([(i, i + 1) for i in range(1, 9)])
        with pytest.raises(tk.CapacityError):
            oracles.enumerate_decompositions(p9, cat2)

    def test_dp_trace_is_a_valid_decomposition(self, cat2):
        rng = random.Random(5)
        for u in tk.enumerate_unrooted(7):
            z = random_rational_weights(cat2, rng)
            v, trace = wt.max_weight(u, z, cat2)
            if v > 0:
                assert oracles.replay_trace(trace).code == u.code
                assert trace.weight(z) == v


class TestDPAgainstOracle:
    @pytest.mark.parametrize("tmax,umax", [(3, 2), (4, 3)])
    def test_max_weight_equals_oracle(self, tmax, umax):
        catalog = tk.Catalog.standard(tmax, umax)
        rng = random.Random(100 * tmax + umax)
        trees = tk.enumerate_unrooted(7)
        piece_counts = {
            u.code: [d.piece_counts() for d in oracles.enumerate_decompositions(u, catalog)]
            for u in trees
        }
        for _ in range(12):
            z = random_rational_weights(catalog, rng)
            table = wt.MaxWeightTable(catalog, z)
            for u in trees:
                best = Fraction(0)
                for counts in piece_counts[u.code]:
                    w_val = Fraction(1)
                    for code, mult in counts.items():
                        w_val *= z[code] ** mult
                    best = max(best, w_val)
                assert table.value(u.code) == best, (u.code, z.entries)


class TestRootInvariance:
    def test_all_rootings_agree(self, cat2):
        rng = random.Random(9)
        for u in tk.enumerate_unrooted(7):
            z = random_rational_weights(cat2, rng)
            adj = tk.code_to_adjacency(u.code)
            values = set()
            for root in range(len(adj)):
                rooted = tk._rooted_from_adj(adj, root)
                values.add(wt.max_weight(rooted, z, cat2)[0])
            assert len(values) == 1


class TestScalingCovariance:
    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2)])
    def test_scale_identity(self, cat2, lam):
        rng = random.Random(int(lam * 6))
        z = random_rational_weights(cat2, rng)
        scaled = wt.scale_weights(lam, z)
        for u in tk.enumerate_unrooted(6):
            direct = wt.max_weight(u, scaled, cat2)[0]
            expected = lam**u.size * wt.max_weight(u, z, cat2)[0]
            assert direct == expected

    def test_identity_and_zero(self, cat2):
        rng = random.Random(2)
        z = random_rational_weights(cat2, rng)
        assert wt.scale_weights(1, z).entries == z.entries
        assert all(v == 0 for _, v in wt.scale_weights(0, z).entries)


class TestClosure:
    def test_single_vertex_catalog_identity(self, cat1):
        z = wt.WeightVector.over(cat1, {"()": Fraction(2, 5)})
        assert wt.closure(z, cat1).entries == z.entries

    def test_example(self, cat2):
        z = wt.WeightVector.over(cat2, {"()": Fraction(1, 2), "(())": 0})
        closed = wt.closure(z, cat2)
        assert closed["(())"] == Fraction(1, 4)

    def test_pointwise_dominates_and_idempotent(self, cat3):
        rng = random.Random(4)
        for _ in range(10):
            z = random_rational_weights(cat3, rng)
            closed = wt.closure(z, cat3)
            assert all(cv >= v for (_, cv), (_, v) in zip(closed.entries, z.entries))
            assert wt.closure(closed, cat3).entries == closed.entries

    def test_preserves_max_weights_and_series(self, cat2):
        rng = random.Random(6)
        for _ in range(6):
            z = random_rational_weights(cat2, rng)
            closed = wt.closure(z, cat2)
            for u in tk.enumerate_unrooted(8):
                assert wt.max_weight(u, z, cat2)[0] == wt.max_weight(u, closed, cat2)[0]
            for k in (4, 8):
                assert wt.rooted_series(z, k, cat2) == wt.rooted_series(closed, k, cat2)


class TestSeries:
    def test_zero(self, cat2):
        z = wt.WeightVector.zero(cat2)
        assert wt.rooted_series(z, 5, cat2) == 0
        assert wt.unrooted_series(z, 5, cat2) == 0

    def test_single_variable_consistency_exact(self, cat1):
        x = Fraction(2, 7)
        z = wt.WeightVector.over(cat1, {"()": x})
        for k in range(1, 13):
            closed = wt.single_variable_layers(x, k)
            assert wt.layers(z, k, cat1) == closed
            cayley = sum(
                Fraction(tk.labeled_tree_count(n), math.factorial(n)) * x**n for n in range(1, k + 1)
            )
            assert wt.unrooted_series(z, k, cat1) == cayley

    def test_closed_form_small_values(self):
        x = Fraction(1, 2)
        assert wt.single_variable_layers(x, 3) == [0, x, x**2, Fraction(3, 2) * x**3]
        assert wt.single_variable_layers(2, 4) == [0, 2, 4, 12, Fraction(128, 3)]

    def test_family_series(self, cat1):
        x = Fraction(1, 3)
        z = wt.WeightVector.over(cat1, {"()": x})
        t0 = tk.enumerate_rooted(2)
        assert wt.rooted_series_family(z, t0, cat1) == x + x**2

    def test_family_requires_inclusion_closed(self, cat2):
        z = wt.WeightVector.zero(cat2)
        bad = [t for t in tk.enumerate_rooted(3) if t.size != 2]
        with pytest.raises(tk.CatalogError):
            wt.rooted_series_family(z, bad, cat2)

    def test_term_decomposition(self, cat2):
        rng = random.Random(8)
        z = random_rational_weights(cat2, rng)
        total = wt.rooted_series(z, 6, cat2)
        assert total == sum(wt.layers(z, k, cat2)[k] for k in range(1, 7))

    def test_piece_series(self, cat2):
        a, b = Fraction(1, 4), Fraction(1, 8)
        z = wt.WeightVector.over(cat2, {"()": a, "(())": b})
        assert wt.piece_series_linear(z, cat2) == Fraction(5, 16)
        assert wt.piece_series_linear(wt.closure(z, cat2), cat2) == Fraction(5, 16)

    def test_piece_series_ordering(self, cat3):
        rng = random.Random(12)
        for _ in range(8):
            z = random_rational_weights(cat3, rng)
            closed = wt.closure(z, cat3)
            assert wt.piece_series_linear(z, cat3) <= wt.piece_series_linear(closed, cat3)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_closed_piece_series_sums_max_weights(self, cat3, exact):
        # at the closure, the linear objective is the sum of
        # maxweight(U)/aut_u(U) over u0
        rng = random.Random(14)
        for _ in range(6):
            z = random_rational_weights(cat3, rng)
            if not exact:
                z = wt.WeightVector(tuple((c, float(v)) for c, v in z.entries))
            table = wt.MaxWeightTable(cat3, z)
            terms = [table.value(u.code) / u.aut_u for u in cat3.u0]
            expected = sum(terms) if exact else math.fsum(terms)
            assert wt.piece_series_linear(wt.closure(z, cat3), cat3) == expected

    def test_monotone_in_z_and_k(self, cat2):
        rng = random.Random(13)
        for _ in range(6):
            z = random_rational_weights(cat2, rng)
            bumped = wt.WeightVector(
                tuple(
                    (c, v + Fraction(rng.randrange(0, 3), 8)) for c, v in z.entries
                )
            )
            for k in (3, 6):
                assert wt.rooted_series(z, k, cat2) <= wt.rooted_series(bumped, k, cat2)
                assert wt.unrooted_series(z, k, cat2) <= wt.unrooted_series(bumped, k, cat2)
            assert wt.rooted_series(z, 5, cat2) <= wt.rooted_series(z, 6, cat2)


class TestDissymmetry:
    def test_zero_vector(self, cat2):
        chk = wt.verify_dissymmetry_trunc(wt.WeightVector.zero(cat2), 6, cat2)
        assert chk.ok and chk.rooted == 0

    def test_single_variable_at_e_inverse(self, cat1):
        z = wt.WeightVector.over(cat1, {"()": E_INV})
        chk = wt.verify_dissymmetry_trunc(z, 12, cat1)
        assert chk.ok
        assert chk.rooted - chk.unrooted >= chk.half_square

    def test_random_rational_sweep(self, cat3):
        rng = random.Random(77)
        for _ in range(30):
            z = random_rational_weights(cat3, rng, den=16, hi=10)
            chk = wt.verify_dissymmetry_trunc(z, 8, cat3)
            assert chk.ok, z.entries

    @pytest.mark.parametrize("k", [8, 10, 11])
    def test_float_totals_are_rounded_exact_totals(self, cat3, k):
        # the float fields of `verify --suite dissymmetry`'s single-variable
        # check: math.fsum makes each total the float of the exact sum of
        # the layers, whatever the interpreter's sum() does
        x = 0.36787944117144233
        chk = wt.verify_dissymmetry_trunc(wt.WeightVector.over(cat3, {"()": x}), k, cat3)
        exact = wt.WeightVector.over(cat3, {"()": Fraction(x)})
        per_size = wt.layers(exact, k, cat3)
        assert chk.rooted == float(sum(per_size))
        assert chk.unrooted == float(wt.unrooted_series(exact, k, cat3))
        half = float(sum(per_size[: k // 2 + 1]))
        assert chk.half_square == half * half / 2


class TestSupermultiplicativity:
    def test_single_piece_equality(self, cat1):
        z = wt.WeightVector.over(cat1, {"()": Fraction(1, 2)})
        for u in tk.enumerate_unrooted(6):
            if u.size < 2:
                continue
            chk = oracles.verify_supermultiplicativity(u, z, cat1)
            assert chk.ok

    def test_sweep_with_zero_coordinate(self, cat3):
        rng = random.Random(21)
        for _ in range(10):
            vals = {u.code: Fraction(rng.randrange(0, 9), 8) for u in cat3.u0}
            vals[rng.choice([u.code for u in cat3.u0])] = Fraction(0)
            z = wt.WeightVector.over(cat3, vals)
            for u in tk.enumerate_unrooted(7):
                if u.size < 2:
                    continue
                assert oracles.verify_supermultiplicativity(u, z, cat3).ok


class TestEvaluator:
    def test_profiles_built_once_per_u0(self, cat2):
        # catalogs that differ only in t0 share one profile build
        other = tk.Catalog.standard(1, 2)
        assert other.key != cat2.key and other.u0 == cat2.u0
        before = wt._profiles.cache_info()
        for cat in (cat2, other):
            wt.layers(wt.WeightVector.over(cat, {"()": Fraction(1, 3)}), 7, cat)
            wt.TruncatedSeriesEvaluator(cat, 7)
        after = wt._profiles.cache_info()
        assert after.misses - before.misses <= 1
        assert after.hits - before.hits >= 3
        assert wt._profiles(cat2.u0, 7) is wt._profiles(other.u0, 7)

    def test_matches_exact_series(self, cat3):
        ev = wt.TruncatedSeriesEvaluator(cat3, 9)
        rng = random.Random(31)
        for _ in range(5):
            z = random_rational_weights(cat3, rng)
            om, layers = ev.evaluate(z.to_floats())
            for k in range(1, 10):
                exact = float(wt.layers(z, k, cat3)[k])
                assert abs(layers[k] - exact) <= 1e-9 * (1 + exact)

    def test_omega_matches_table(self, cat3):
        ev = wt.TruncatedSeriesEvaluator(cat3, 8)
        rng = random.Random(32)
        z = random_rational_weights(cat3, rng)
        table = wt.MaxWeightTable(cat3, z)
        om, _ = ev.evaluate(z.to_floats())
        for u in tk.enumerate_unrooted(8):
            val = om[ev.index(u.code)]
            assert abs(val - float(table.value(u.code))) <= 1e-12 * (1 + val)


def evaluator_inputs(catalog, k):
    """Seeded float vectors over catalog.u0, piece U drawn below
    scale**|U|: each as it is, with one and two zero coordinates, with a
    1e200 entry (powers overflow to inf, and inf times a zero power is
    0), with 1e200 on the single vertex, and with a NaN entry and a NaN
    on the single vertex."""
    rng = random.Random(f"{catalog.u_max}:{k}")
    d = len(catalog.u0)
    for scale in (0.3, 0.6, 1.5):
        z = [rng.random() * scale**u.size for u in catalog.u0]
        i, j = rng.randrange(d), rng.randrange(d)
        yield z
        yield [0.0 if m == i else v for m, v in enumerate(z)]
        yield [0.0 if m in (i, j) else v for m, v in enumerate(z)]
        yield [1e200 if m == i else v for m, v in enumerate(z)]
        yield [1e200 if m == i else 0.0 if m == j else v for m, v in enumerate(z)]
        yield [1e200, *z[1:]]
        yield [math.nan if m == i else v for m, v in enumerate(z)]
        yield [math.nan, *z[1:]]


def same_float(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=1e-13)


@pytest.mark.parametrize(
    "u_max, k",
    [(u_max, k) for u_max in (1, 2, 3) for k in range(1, 15)] + [(4, k) for k in range(1, 13)],
)
def test_evaluator_matches_numpy_reference(u_max, k):
    # the walk over distinct count vectors against the first evaluator, a
    # numpy scan of every (class, count vector) row
    catalog = tk.Catalog.standard(1, u_max)
    ev = wt.TruncatedSeriesEvaluator(catalog, k)
    ref = oracles.TruncatedSeriesEvaluatorReference(catalog, k)
    assert len(ev.passes[0][0]) <= ref.rows
    kinds = set()
    for z in evaluator_inputs(catalog, k):
        om, y = ev.evaluate(z)
        om_ref, y_ref = ref.evaluate(z)
        assert len(om) == len(om_ref) and len(y) == k + 1
        for c, (a, b) in enumerate(zip(om, om_ref)):
            assert same_float(a, float(b)), (z, c, a, b)
        for s, (a, b) in enumerate(zip(y, y_ref)):
            assert same_float(a, float(b)), (z, s, a, b)
        kinds.update(math.inf if math.isinf(v) else "nan" if math.isnan(v) else 0 for v in om)
    # the inputs reach finite and NaN max weights, and infinite ones once
    # the single vertex can be taken twice
    assert kinds == {0, "nan", *[math.inf] * (k > 1)}


def test_evaluator_refuses_a_vector_of_another_length():
    ev = wt.TruncatedSeriesEvaluator(tk.Catalog.standard(1, 3), 5)
    with pytest.raises(ValueError, match="2 weights for 3 pieces"):
        ev.evaluate([0.1, 0.2])


def layers_inputs(catalog, k):
    """Seeded weight vectors over catalog.u0: exact dyadic ones, exact ones
    whose coordinates have denominators 3, 24 and 7 * 2**17, int ones, and
    finite float ones with no power past the largest float; each as it is
    and with one and two zero coordinates."""
    rng = random.Random(f"layers:{catalog.u_max}:{k}")
    d = len(catalog.u0)
    odd = (3, 24, 7 << 17)
    kinds = [
        lambda j: Fraction(rng.randrange(0, 1 << 12), 1 << 11),
        lambda j: Fraction(rng.randrange(0, 2 * odd[j % 3] + 1), odd[j % 3]),
        lambda j: Fraction(rng.randrange(0, 24), 24),
        lambda j: rng.randrange(0, 4),
        lambda j: rng.random() * 1.5 ** catalog.u0[j].size,
    ]
    for draw in kinds:
        z = [draw(j) for j in range(d)]
        i, j = rng.randrange(d), rng.randrange(d)
        for zeros in ((), (i,), (i, j)):
            values = [0 * v if m in zeros else v for m, v in enumerate(z)]
            yield wt.WeightVector(tuple((u.code, v) for u, v in zip(catalog.u0, values)))


@pytest.mark.parametrize(
    "u_max, k",
    [(u_max, k) for u_max in (1, 2, 3) for k in range(1, 15)] + [(4, k) for k in range(1, 13)],
)
def test_layers_match_the_cross_multiplying_reference(u_max, k):
    # one walk of the distinct count vectors, in ints over a common
    # denominator for exact z, against the first row scan, which compared
    # (numerator, denominator) pairs by cross-multiplying
    catalog = tk.Catalog.standard(1, u_max)
    for z in layers_inputs(catalog, k):
        got, ref = wt.layers(z, k, catalog), oracles.layers_reference(z, k, catalog)
        if z.exact:
            assert got == ref and all(type(v) is Fraction for v in got), z.entries
        else:
            assert [v.hex() for v in got] == [v.hex() for v in ref], z.entries


def test_float_series_past_the_largest_float_are_inf():
    cat = tk.Catalog.standard(1, 3)
    huge = wt.WeightVector(tuple((u.code, 1e200) for u in cat.u0))
    assert wt.layers(huge, 6, cat) == [0.0, 1e200] + [math.inf] * 5
    assert wt.rooted_series(huge, 6, cat) == wt.unrooted_series(huge, 6, cat) == math.inf
    # finite terms whose sum overflows: math.fsum raises there
    z = wt.WeightVector(tuple((u.code, v) for u, v in zip(cat.u0, (0.0, 1e308, 1e308))))
    assert wt.layers(z, 3, cat) == [0.0, 0.0, 1e308, 1.5e308]
    assert wt.rooted_series(z, 3, cat) == math.inf
    big = wt.WeightVector(tuple((u.code, 1.7e308) for u in cat.u0))
    assert wt.piece_series_linear(big, cat) == math.inf


def test_zero_weight_times_an_overflowed_power_is_zero():
    # 1e200**2 is inf and meets 0.0**1: the monomial is 0, not inf * 0 = NaN
    # (the layers once ended inf, nan and the rooted series read nan)
    cat = tk.Catalog.standard(1, 3)

    def vector(*values):
        return wt.WeightVector(tuple((u.code, v) for u, v in zip(cat.u0, values)))

    z = vector(0.0, 1e200, 1e200)
    assert wt.layers(z, 5, cat) == [0.0, 0.0, 1e200, 1.5e200, math.inf, math.inf]
    check = wt.verify_dissymmetry_trunc(z, 5, cat)
    assert check.rooted == check.unrooted == math.inf
    # what stays NaN: an underflowed power times an overflowed one
    # ((1e-200)**2 * (1e200)**2 at size 6), and a NaN weight
    assert math.isnan(wt.layers(vector(1e-200, 1e200, 1e200), 6, cat)[6])
    om, y = wt.TruncatedSeriesEvaluator(cat, 5).evaluate([math.nan, 0.0, 1e200])
    assert all(map(math.isnan, y[1:]))
