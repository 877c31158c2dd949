"""The constrained maximization: push the linear piece objective as high
as possible while the truncated rooted partition function stays at or
below 1.5 and the vector remains a closure fixed point.

With a single piece the answer is the threshold x_k solving the
one-variable equation; for richer catalogs a best-first box search starts
from its closed embedding and brackets the maximum.  The returned point is
always re-certified in exact rational arithmetic, so the reported
objective is a true feasible value.
"""

import math

from bridgeforest import optimizer as op
from bridgeforest import treekit as tk


def main():
    print("== single-variable thresholds ==")
    print("  k ->  x_k with rooted series(x_k, k) = 1.5   (limit 1/e = %.6f)"
          % math.exp(-1))
    for k in (2, 4, 6, 8, 10, 12, 14):
        print(f"  {k:>2d} -> {op.single_var_threshold(k):.9f}")

    print("\n== bracket with u0 = {single vertex}, k = 10 ==")
    cat1 = tk.Catalog.standard(1, 1)
    res = op.bracket(op.OptimizerConfig(catalog=cat1, k=10))
    print(f"  objective {res.objective_float:.9f} "
          f"(threshold {op.single_var_threshold(10):.9f}), "
          f"evaluations {res.evaluations}")

    print("\n== bracket with u0 = unrooted trees up to 3 vertices, k = 12 ==")
    cat3 = tk.Catalog.standard(1, 3)
    cfg = op.OptimizerConfig(catalog=cat3, k=12)
    res = op.bracket(cfg)
    print(f"  certified objective {res.objective_float:.9f}, "
          f"float upper end {res.upper_float:.9f}")
    print(f"  certified series value {float(res.point.y_value):.12f} <= 1.5")
    print(f"  weights: {[(c, float(v)) for c, v in res.point.z.entries]}")
    recheck = op.feasibility(res.point.z, cfg)
    print(f"  exact rational recheck feasible: {recheck.feasible}")
    for eps in (0.2, 0.15, 0.1):
        chk = op.bound_check(res.point, eps)
        print(f"  objective <= (1+{eps})/2 = {float(chk.limit):.4f}: {chk.ok}")


if __name__ == "__main__":
    main()
