"""Acceptance suite: one test per criterion, each printing one PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to see them live).

Frozen constants are oracle outputs:

* distinct rooted/unrooted code counts for n <= 9 come from exhaustive
  labeled-tree enumeration over all n^(n-2) sequence codes
  (scripts/prufer_n9_oracle.py reproduces the n=9 values); n = 10 is
  checked against the classical counting recurrences, since enumerating
  the 10^8 labeled trees in-process is not realistic;
* interval regressions (series values, probabilities, objectives) were
  produced by the exact code paths below and tightened after inspection.
"""

import math
import random
import time
from fractions import Fraction

import pytest
import scipy.stats

from bridgeforest import forestlab as fl
from bridgeforest import optimizer as op
from bridgeforest import treekit as tk
from bridgeforest import weights as wt

import oracles

E_INV = math.exp(-1)
E_INV_SQRT = math.exp(-0.5)

# exhaustive enumeration of labeled trees, canonicalized and deduplicated
EXHAUSTIVE_CODE_COUNTS = {9: (286, 47)}
PRUFER_LIVE_MAX = 8

# Criterion 11 checks the eps = 0.1 bound at k = 18.  Closing the embedded
# single-variable threshold x_k gives the exactly feasible objective
# x_k + x_k^2/2 + x_k^3/2, which exceeds the limit 11/20 for every k <= 16
# (0.5653 at k = 14, 0.5533 at k = 16), so no correct optimizer meets the
# bound there; at k = 18 it is 0.5439.
MULTIVARIATE_K = 18

LEMMA_NS = (4, 5, 6, 7)
LEMMA_WIDTHS = (1, 2)
CLOSURES_PER_N = 5  # 5 closures x 4 values of n = 20 random classes


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    return ok


@pytest.fixture(scope="module")
def catalogs():
    return {(3, 2): tk.Catalog.standard(3, 2), (4, 3): tk.Catalog.standard(4, 3)}


@pytest.fixture(scope="module")
def lemma_classes():
    out = {}
    for n in LEMMA_NS:
        classes = [fl.all_forests(n)]
        classes.extend(
            fl.random_closure(n, seed=100 * n + i) for i in range(CLOSURES_PER_N)
        )
        out[n] = classes
    return out


def test_criterion_01_tree_enumeration_counts():
    t0 = time.monotonic()
    rooted = {}
    unrooted = {}
    for t in tk.enumerate_rooted(10):
        rooted[t.size] = rooted.get(t.size, 0) + 1
    for u in tk.enumerate_unrooted(10):
        unrooted[u.size] = unrooted.get(u.size, 0) + 1
    problems = []
    for n in range(1, PRUFER_LIVE_MAX + 1):
        seen_r = set()
        seen_u = set()
        for edges in oracles.all_labeled_trees(n):
            adj = oracles.adjacency_from_edges(edges, n)
            seen_r.add(tk._encode(adj, 0)[0])
            seen_u.add(tk._unrooted_from_adj(adj).code)
        if (len(seen_r), len(seen_u)) != (rooted[n], unrooted[n]):
            problems.append(f"n={n} live oracle mismatch")
    for n, (r_count, u_count) in EXHAUSTIVE_CODE_COUNTS.items():
        if (rooted[n], unrooted[n]) != (r_count, u_count):
            problems.append(f"n={n} frozen exhaustive mismatch")
    for n in range(1, 11):
        if rooted[n] != oracles.rooted_tree_count(n):
            problems.append(f"n={n} rooted recurrence mismatch")
        if unrooted[n] != oracles.unrooted_tree_count(n):
            problems.append(f"n={n} unrooted recurrence mismatch")
    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        problems.append(f"runtime {elapsed:.1f}s >= 60s")
    ok = not problems
    assert report(
        1,
        ok,
        f"rooted/unrooted counts to n=10 vs enumeration oracles "
        f"(live to n={PRUFER_LIVE_MAX}), {elapsed:.1f}s",
    ), problems


def test_criterion_02_cayley_identities():
    problems = []
    for n in range(1, 11):
        chk = tk.cayley_identity_check(n)
        if not chk.ok:
            problems.append(f"n={n}: {chk}")
    assert report(2, not problems, "labeled-count identities exact for n=1..10"), problems


def test_criterion_03_multiplicity_identity():
    checked = 0
    failures = []
    for t in tk.enumerate_rooted(9):
        if t.size < 2:
            continue
        for s in tk.splits(t):
            checked += 1
            if not tk.verify_aut_identity(s).ok:
                failures.append((t.code, s))
    assert report(
        3, not failures, f"multiplicity identity exact on {checked} splits (trees <= 9)"
    ), failures


def test_criterion_04_local_double_counting(catalogs, lemma_classes):
    t0 = time.monotonic()
    failures = []
    boxes = checks = 0
    for n in LEMMA_NS:
        for cls in lemma_classes[n]:
            for cat in catalogs.values():
                for w in LEMMA_WIDTHS:
                    rep = fl.verify_local_double_counting(cls, cat, w=w)
                    boxes += rep.boxes_checked
                    checks += rep.checks
                    if not rep.ok:
                        failures.append((n, cls.provenance, cat.key, w, rep.failures[:3]))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 600
    assert report(
        4,
        ok,
        f"box-local counting inequality: {checks} checks over {boxes} massive boxes "
        f"(all other grid boxes vacuous), 21 classes x 2 catalogs x w in {{1,2}}, "
        f"{elapsed:.0f}s",
    ), failures


def test_criterion_05_simple_counting_and_sum_bound(catalogs, lemma_classes):
    t0 = time.monotonic()
    failures = []
    sum_boxes = 0
    for n in LEMMA_NS:
        for cls in lemma_classes[n]:
            rep = fl.verify_simple_counting(cls)
            if not rep.ok:
                failures.append((n, cls.provenance, "simple-counting"))
            for cat in catalogs.values():
                for w in LEMMA_WIDTHS:
                    srep = fl.verify_weight_sum_bound(cls, cat, w=w)
                    sum_boxes += srep.boxes_checked
                    if not srep.ok:
                        failures.append((n, cls.provenance, cat.key, w, srep.failures[:3]))
    elapsed = time.monotonic() - t0
    assert report(
        5,
        not failures,
        f"component-count inequality on all classes; partition-function bound "
        f"1 + C/n on {sum_boxes} admissible boxes, {elapsed:.0f}s",
    ), failures


def test_criterion_06_max_weight_dp_vs_oracle(catalogs):
    t0 = time.monotonic()
    trees = tk.enumerate_unrooted(8)
    failures = []
    for cat in catalogs.values():
        nu_sets = {}
        for u in trees:
            decs = oracles.enumerate_decompositions(u, cat)
            nu_sets[u.code] = {tuple(sorted(d.piece_counts().items())) for d in decs}
        rng = random.Random(len(cat.u0))
        for trial in range(50):
            z = wt.WeightVector.over(
                cat, {u.code: Fraction(rng.randrange(0, 13), 8) for u in cat.u0}
            )
            table = wt.MaxWeightTable(cat, z)
            lam = (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2))[trial % 4]
            scaled = wt.scale_weights(lam, z)
            scaled_table = wt.MaxWeightTable(cat, scaled)
            for u in trees:
                oracle_best = Fraction(0)
                for nu in nu_sets[u.code]:
                    w_val = Fraction(1)
                    for code, mult in nu:
                        w_val *= z[code] ** mult
                    oracle_best = max(oracle_best, w_val)
                val = table.value(u.code)
                if val != oracle_best:
                    failures.append((cat.key, trial, u.code, "dp-vs-oracle"))
                if scaled_table.value(u.code) != lam**u.size * val:
                    failures.append((cat.key, trial, u.code, "scaling"))
            if trial < 5:
                for u in trees:
                    adj = tk.code_to_adjacency(u.code)
                    vals = {
                        wt.max_weight(tk._rooted_from_adj(adj, r), z, cat)[0]
                        for r in range(len(adj))
                    }
                    if len(vals) != 1:
                        failures.append((cat.key, trial, u.code, "root-dependence"))
    elapsed = time.monotonic() - t0
    assert report(
        6,
        not failures,
        f"max-weight DP == brute-force decompositions on trees <= 8, 50 weight "
        f"vectors x 2 catalogs, with scaling covariance and root invariance, "
        f"{elapsed:.0f}s",
    ), failures[:5]


def test_criterion_07_truncated_dissymmetry(catalogs):
    t0 = time.monotonic()
    cat = catalogs[(4, 3)]
    rng = random.Random(7)
    failures = []
    for i in range(100):
        z = wt.WeightVector.over(
            cat, {u.code: Fraction(rng.randrange(0, 25), 24) for u in cat.u0}
        )
        chk = wt.verify_dissymmetry_trunc(z, 10, cat)
        if not chk.ok:
            failures.append((i, z.entries))
    cat1 = tk.Catalog.standard(1, 1)
    single = wt.WeightVector.over(cat1, {"()": E_INV})
    chk12 = wt.verify_dissymmetry_trunc(single, 12, cat1)
    if not chk12.ok:
        failures.append(("single-variable", chk12))
    elapsed = time.monotonic() - t0
    assert report(
        7,
        not failures,
        f"truncated dissymmetry: 100 rational vectors at k=10 plus x=1/e at k=12, "
        f"{elapsed:.0f}s",
    ), failures[:5]


def test_criterion_08_single_variable_limits():
    terms = wt.single_variable_layers(E_INV, 30)
    values = [sum(terms[: k + 1]) for k in range(1, 31)]
    values_u = [sum(c / n for n, c in enumerate(terms[: k + 1]) if n) for k in range(1, 31)]
    problems = []
    if not all(a < b for a, b in zip(values, values[1:])):
        problems.append("rooted series not strictly increasing in k")
    y30, yu30 = values[-1], values_u[-1]
    if not 0.85 < y30 < 1.0:
        problems.append(f"rooted value {y30} outside (0.85, 1.0)")
    if not 0.45 < yu30 < 0.5:
        problems.append(f"unrooted value {yu30} outside (0.45, 0.5)")
    # tightened regressions from the oracle run
    if not 0.85566 < y30 < 0.85567:
        problems.append(f"rooted value {y30} moved off 0.855662")
    if not 0.49842 < yu30 < 0.49843:
        problems.append(f"unrooted value {yu30} moved off 0.498424")
    assert report(
        8,
        not problems,
        f"series at 1/e: rooted(30)={y30:.6f} in (0.85,1), unrooted(30)={yu30:.6f} "
        f"in (0.45,0.5), strictly increasing",
    ), problems


def test_criterion_09_connectivity_trend():
    t0 = time.monotonic()
    problems = []
    probs = {n: fl.connectivity_prob(n) for n in range(2, 301)}
    for n in range(4, 300):
        if not probs[n] < probs[n + 1]:
            problems.append(f"P({n}) >= P({n+1})")
    if not all(float(probs[n]) < E_INV_SQRT for n in range(4, 301)):
        problems.append("probability crossed exp(-1/2)")
    p2000 = fl.connectivity_prob(2000, mode="logfloat")
    if not 0.55 < p2000 < 0.6066:
        problems.append(f"logfloat P(2000)={p2000} outside (0.55, 0.6066)")
    if not 0.60577 < p2000 < 0.60578:
        problems.append(f"logfloat P(2000)={p2000} moved off 0.605773")
    ratios = {n: fl.two_component_ratio(n) for n in range(3, 301)}
    for n in range(3, 300):
        if not ratios[n] > ratios[n + 1]:
            problems.append(f"ratio({n}) <= ratio({n+1})")
    if not all(r > Fraction(1, 2) for r in ratios.values()):
        problems.append("ratio dipped to 1/2 or below")
    elapsed = time.monotonic() - t0
    if elapsed >= 300:
        problems.append(f"runtime {elapsed:.1f}s >= 300s")
    assert report(
        9,
        not problems,
        f"connectivity rises to P(300)={float(probs[300]):.5f} < exp(-1/2), "
        f"P(2000)~{p2000:.5f}; two-component ratio falls toward 1/2, {elapsed:.0f}s",
    ), problems


def test_criterion_10_sampler_uniformity():
    t0 = time.monotonic()
    problems = []
    trials = 100_000
    rng = random.Random(20251)
    counts = {}
    for _ in range(trials):
        f = fl.sample_forest(4, rng=rng)
        counts[f.edges] = counts.get(f.edges, 0) + 1
    if len(counts) != 38:
        problems.append(f"only {len(counts)} of 38 forests observed")
    expected = trials / 38
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    threshold = scipy.stats.chi2.isf(0.001, 37)
    if stat >= threshold:
        problems.append(f"chi-square {stat:.1f} >= {threshold:.1f}")
    # connectivity at n=1000 depends only on the component-size stage
    p_exact = fl.connectivity_prob(1000, mode="logfloat")
    rng2 = random.Random(777)
    hits = sum(
        1 for _ in range(trials) if fl.sample_component_sizes(1000, rng=rng2) == [1000]
    )
    p_hat = hits / trials
    sigma = math.sqrt(p_exact * (1 - p_exact) / trials)
    if abs(p_hat - p_exact) > 3 * sigma:
        problems.append(f"|{p_hat} - {p_exact:.6f}| > 3 sigma ({3*sigma:.6f})")
    rng3 = random.Random(99)
    for _ in range(25):
        f = fl.sample_forest(1000, rng=rng3)
        if f.n != 1000:
            problems.append("bad full sample at n=1000")
    elapsed = time.monotonic() - t0
    assert report(
        10,
        not problems,
        f"uniformity chi2={stat:.1f} (<{threshold:.1f}) on 38 forests at n=4; "
        f"connectivity at n=1000: {p_hat:.5f} vs {p_exact:.5f} within 3 sigma, "
        f"{elapsed:.0f}s",
    ), problems


def test_criterion_11_optimizer():
    t0 = time.monotonic()
    problems = []
    cat1 = tk.Catalog.standard(1, 1)
    thresholds = {}
    for k in (6, 10, 12):
        x_k = op.single_var_threshold(k)
        thresholds[k] = x_k
        res = op.bracket(op.OptimizerConfig(catalog=cat1, k=k))
        if abs(res.objective_float - x_k) >= 1e-8:
            problems.append(f"k={k}: objective {res.objective_float} vs x_k {x_k}")
        if res.budget_exhausted:
            problems.append(f"k={k}: the search ran out of budget with its gap open")
    if not thresholds[6] > thresholds[10] > thresholds[12]:
        problems.append("thresholds not strictly decreasing")
    if not all(x > E_INV for x in thresholds.values()):
        problems.append("thresholds not above 1/e")
    cat3 = tk.Catalog.standard(1, 3)
    k = MULTIVARIATE_K
    cfg = op.OptimizerConfig(catalog=cat3, k=k)
    res = op.bracket(cfg)
    if res.budget_exhausted:
        problems.append(f"k={k}: the search ran out of budget with its gap open")
    recheck = op.feasibility(res.point.z, cfg)
    if not recheck.feasible:
        problems.append(f"exact feasibility recheck failed: {recheck.violations}")
    if not (res.point.closed and recheck.feasible and recheck.point.closed):
        problems.append("certified point is not closed")
    x = op.single_var_threshold(k)
    embedded = x + x**2 / 2 + x**3 / 2
    if res.objective_float < embedded - 1e-9:
        problems.append(
            f"objective {res.objective_float:.9f} below the closed embedded "
            f"single-variable point x_{k}: {embedded:.9f}"
        )
    chk = op.bound_check(res.point, 0.1)
    if not chk.ok:
        problems.append(
            f"bound_check eps=0.1: objective {float(chk.objective):.6f} > "
            f"{float(chk.limit)} (the closed embedded single-variable threshold "
            f"x_{k} alone gives {embedded:.6f})"
        )
    elapsed = time.monotonic() - t0
    if elapsed >= 120:
        problems.append(f"runtime {elapsed:.1f}s >= 120s")
    assert report(
        11,
        not problems,
        f"single-variable recovery at k=6,10,12; multivariate k={k} objective "
        f"{res.objective_float:.6f}, exact recheck "
        f"{'ok' if recheck.feasible else 'FAILED'}, bound at eps=0.1 "
        f"{'ok' if chk.ok else 'FAILED'}, {elapsed:.0f}s",
    ), problems


def test_regression_multivariate_objective_value():
    """Pin the certified k=14 objective (not an acceptance criterion).

    The maximum contains the closure of the embedded single-variable
    threshold, with objective x + x^2/2 + x^3/2 at x = x_14; the bound
    check first passes near eps = 0.131.
    """
    cat3 = tk.Catalog.standard(1, 3)
    cfg = op.OptimizerConfig(catalog=cat3, k=14)
    res = op.bracket(cfg)
    assert not res.budget_exhausted
    x = op.single_var_threshold(14)
    embedded = x + x**2 / 2 + x**3 / 2
    assert res.objective_float >= embedded - 1e-9
    assert 0.5653 < res.objective_float < 0.5654
    assert op.bound_check(res.point, 0.14).ok
    assert not op.bound_check(res.point, 0.13).ok
