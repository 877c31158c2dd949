"""Bridge-addable classes under the microscope: pendant statistics (read
from the histogram of a one-member class), the box-local double counting
inequality, the derived partition-function bound, and the box
partitioning search.

Everything here is exhaustive and exact: the class is an explicit set of
forests, statistics vectors live on an integer grid, and each inequality
is checked with integer or rational arithmetic on every box that carries
any two-component mass (all other boxes hold vacuously).
"""

from bridgeforest import forestlab as fl
from bridgeforest import treekit as tk


def main():
    catalog = tk.Catalog.standard(t_max=3, u_max=2)
    print(f"catalog: t0 = {[t.code for t in catalog.t0]}, "
          f"u0 = {[u.code for u in catalog.u0]}, q* = {catalog.q_star}")

    print("\n== pendant statistics ==")
    tree = fl.LabeledForest.make(6, [(1, 2), (2, 3), (3, 4), (3, 5), (5, 6)])
    (alpha,) = fl.ForestClass(6, [tree]).histogram(catalog).a_alpha
    for t, count in zip(catalog.t0, alpha):
        print(f"  pendant copies of {t.code:8s}: {count}")

    print("\n== classes ==")
    full = fl.all_forests(6)
    closed = fl.random_closure(6, seed=11)
    for cls in (full, closed):
        hist = cls.histogram(catalog)
        print(f"  {cls.provenance}: {len(cls)} members, "
              f"components {dict(sorted(hist.component_counts.items()))}")
    print(f"  closure is bridge-addable: {fl.is_bridge_addable(closed).ok}")

    print("\n== simple component counting ==")
    rep = fl.verify_simple_counting(full)
    for (i, lhs, rhs), ratio in zip(rep.comparisons[:4], rep.ratios[:4]):
        print(f"  i={i}: i*|{i+1} comps| = {lhs} <= |{i} comps| = {rhs}"
              f"   (ratio {ratio})")

    print("\n== box-local double counting ==")
    for cls in (full, closed):
        for w in (1, 2):
            rep = fl.verify_local_double_counting(cls, catalog, w=w)
            print(f"  {cls.provenance:28s} w={w}: ok={rep.ok} "
                  f"({rep.checks} checks on {rep.boxes_checked} boxes; "
                  f"grid holds {rep.grid_size})")

    print("\n== partition-function bound on class ratios ==")
    for w in (1, 2):
        rep = fl.verify_weight_sum_bound(full, catalog, w=w)
        print(f"  w={w}: ok={rep.ok}, C={rep.bound_constant}, "
              f"largest value {float(rep.max_value):.4f} vs bound "
              f"{1 + rep.bound_constant / full.n:.2f}")

    print("\n== box partitioning search ==")
    small = tk.Catalog.standard(t_max=2, u_max=1)
    rep = fl.boxing_search(fl.all_forests(7), small, w=2, epsilon=0.5)
    print(f"  shift {rep.shift}, {len(rep.boxes)} boxes, "
          f"capture {rep.capture}, min fraction {rep.min_fraction:.3f}, ok={rep.ok}")


if __name__ == "__main__":
    main()
