"""Exact forest counts, the connectivity probability of a uniform random
forest, and the convergence of both toward their limits.

The connectivity probability climbs toward exp(-1/2) ~ 0.60653 from below
(after a dip at tiny n), and the ratio of two-component forests to trees
falls toward 1/2 from above.  Counts come from closed forms (Rényi's
formula by component number, a Hermite-polynomial value for the total),
and a uniform sampler drawing component sizes from them reproduces the
exact probabilities.
"""

import math
import random

from bridgeforest import forestlab as fl


def main():
    print("== exact counts ==")
    for n in (3, 4, 5, 6, 7):
        per_k = [fl.forest_count(n, k) for k in range(1, n + 1)]
        print(f"  n={n}: by components {per_k}, total {fl.forest_total(n)}")

    print("\n== connectivity probability vs exp(-1/2) ==")
    target = math.exp(-0.5)
    for n in (4, 10, 30, 100, 300):
        p = fl.connectivity_prob(n)
        print(f"  n={n:>4d}: {float(p):.6f}   (gap {target - float(p):+.6f})")
    p2000 = fl.connectivity_prob(2000, mode="logfloat")
    print(f"  n=2000: {p2000:.6f}   (float mode, gap {target - p2000:+.6f})")

    print("\n== two-component / connected ratio vs 1/2 ==")
    for n in (3, 5, 10, 50, 300):
        r = fl.two_component_ratio(n)
        print(f"  n={n:>4d}: {float(r):.6f}")

    print("\n== uniform sampling ==")
    rng = random.Random(0)
    trials = 20000
    hits = sum(1 for _ in range(trials) if fl.sample_forest(7, rng=rng).is_connected)
    exact = float(fl.connectivity_prob(7))
    print(f"  n=7: empirical connectivity {hits / trials:.4f} vs exact {exact:.4f} "
          f"({trials} samples)")
    sizes = fl.sample_component_sizes(1000, seed=4)
    print(f"  n=1000: one draw of component sizes (peel order): {sizes}")


if __name__ == "__main__":
    main()
