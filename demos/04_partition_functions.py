"""Max-weight decompositions and the partition functions they generate.

A tree is assembled from catalog pieces joined edge by edge; its max
weight is the best product of piece weights over all assembly orders.
The demo certifies the dynamic program's value with its trace (the
product of the trace's piece weights, and piece counts that cover the
tree), and shows the closure and scaling operations, the truncated
dissymmetry inequality, and the single-variable limits at 1/e.
"""

import math
from fractions import Fraction

from bridgeforest import treekit as tk
from bridgeforest import weights as wt


def main():
    catalog = tk.Catalog.standard(t_max=3, u_max=2)
    a, b = Fraction(2, 5), Fraction(1, 4)
    z = wt.WeightVector.over(catalog, {"()": a, "(())": b})
    print(f"weights: single vertex -> {a}, edge -> {b}")

    print("\n== max weight and its certifying trace ==")
    for edges, name in [
        ([(1, 2), (2, 3)], "path on 3"),
        ([(1, 2), (1, 3), (1, 4)], "star on 4"),
        ([(1, 2), (2, 3), (3, 4), (4, 5)], "path on 5"),
    ]:
        u = tk.canonicalize_unrooted(edges)
        value, trace = wt.max_weight(u, z, catalog)
        counts = trace.piece_counts()
        # the trace's pieces cover the tree's vertices, and their weights
        # multiply to the value
        covered = sum(code.count("(") * c for code, c in counts.items())
        weight = trace.weight(z)
        assert covered == u.size and weight == value
        print(f"  {name:10s}: value {value}, certified by pieces {dict(counts)} "
              f"(weight {weight}, {covered} vertices)")

    print("\n== closure and scaling ==")
    closed = wt.closure(z, catalog)
    print(f"  closure: {dict(closed.entries)}")
    lam = Fraction(1, 2)
    scaled = wt.scale_weights(lam, z)
    p5 = tk.canonicalize_unrooted([(i, i + 1) for i in range(1, 5)])
    lhs = wt.max_weight(p5, scaled, catalog)[0]
    rhs = lam**5 * wt.max_weight(p5, z, catalog)[0]
    print(f"  scaling covariance on the path on 5: {lhs} == {rhs}: {lhs == rhs}")
    for k in (4, 6, 8):
        same = wt.rooted_series(z, k, catalog) == wt.rooted_series(closed, k, catalog)
        print(f"  rooted series unchanged by closure at k={k}: {same}")

    print("\n== truncated dissymmetry ==")
    chk = wt.verify_dissymmetry_trunc(z, 10, catalog)
    slack = chk.rooted - chk.unrooted - chk.half_square
    print(f"  k=10: rooted {float(chk.rooted):.6f}, unrooted {float(chk.unrooted):.6f},"
          f" half-square {float(chk.half_square):.6f}, slack {float(slack):.6f}, ok={chk.ok}")

    print("\n== single-variable limits at x = 1/e ==")
    x = math.exp(-1)
    for k in (5, 10, 20, 30):
        terms = wt.single_variable_layers(x, k)
        y = sum(terms)
        yu = sum(c / n for n, c in enumerate(terms) if n)  # n^(n-2) x^n / n!
        print(f"  k={k:>2d}: rooted {y:.6f} (-> 1), unrooted {yu:.6f} (-> 1/2)")


if __name__ == "__main__":
    main()
