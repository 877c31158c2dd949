"""The benchmark's workloads: the CLI command each one runs, and the check
its output must pass.

Every check raises `CheckFailed` (or any other exception) on a bad output;
the caller counts that run as failed. A check never skips.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# The seed the reference outputs were made with; the report bodies do not
# depend on it, only the echoed config does.
REFERENCE_SEED = 0


class CheckFailed(AssertionError):
    pass


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _fraction(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def _load(stdout: bytes):
    text = stdout.decode()
    doc = json.loads(text)
    # reports are printed as serialize.dumps(...) plus a newline
    require(json.dumps(doc, sort_keys=True, indent=2) + "\n" == text, "output is not in canonical form")
    return doc


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple  # CLI arguments; --seed <n> is appended

    def argv(self, seed: int):
        return [*self.args, "--seed", str(seed)]

    def prepare(self, seed: int):
        """Reference data for `check`, computed in the checking process."""
        return None

    def check(self, stdout: bytes, returncode: int, seed: int, ref) -> None:
        raise NotImplementedError


class OptimizeWorkload(Workload):
    K, CAP = 11, Fraction(3, 2)
    # the certified objective at the seed, to four digits
    OBJECTIVE_RANGE = (Fraction("0.5918"), Fraction("0.5919"))

    def prepare(self, seed):
        """A rational x just below x_k, the root of sum_{n<=k} n^(n-1) x^n/n! = 3/2,
        and the embedded single-variable objective x + x^2/2 + x^3/2 there."""
        coeffs = [Fraction(n ** (n - 1), math.factorial(n)) for n in range(1, self.K + 1)]

        def series(x):
            return sum(c * x ** (i + 1) for i, c in enumerate(coeffs))

        lo, hi = Fraction(0), Fraction(1)
        while hi - lo > Fraction(1, 2**48):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if series(mid) <= self.CAP else (lo, mid)
        return lo + lo**2 / 2 + lo**3 / 2

    def check(self, stdout, returncode, seed, embedded):
        require(returncode == 0, f"exit code {returncode}")
        doc = _load(stdout)
        require(doc["config"]["options"]["seed"] == seed, "seed not echoed")
        require(doc["k"] == self.K, "wrong k")
        require(doc["closed"] is True, "certified point is not closed")
        require(_fraction(doc["y_value"]) <= self.CAP, "certified y_value exceeds the cap")
        objective = _fraction(doc["objective"])
        lo, hi = self.OBJECTIVE_RANGE
        require(lo < objective < hi, f"objective {float(objective)} outside ({lo}, {hi})")
        # the certificate rounds to 2^-40 before rescaling, hence the slack
        require(objective >= embedded * (1 - Fraction(1, 10**9)), "objective below the embedded single-variable point")
        require(doc["bound_check"]["ok"] is True, "bound check failed")
        require(0 < doc["evaluations"] <= doc["config"]["options"]["budget"] + 1, "evaluation count out of range")


class ReportWorkload(Workload):
    """The report equals the seed's reference byte for byte, apart from
    the echoed seed and the `float_fields`, which agree to 1e-9 relative."""

    float_fields: tuple = ()

    def prepare(self, seed):
        return json.loads((REFERENCE_DIR / f"{self.name}.json").read_text())

    def check(self, stdout, returncode, seed, ref):
        require(returncode == 0, f"exit code {returncode}")
        doc = _load(stdout)
        require(doc["config"]["options"]["seed"] == seed, "seed not echoed")
        doc["config"]["options"]["seed"] = REFERENCE_SEED
        ref = copy.deepcopy(ref)
        for path in self.float_fields:
            got, want = _pop(doc, path), _pop(ref, path)
            require(isinstance(got, float), f"{'.'.join(path)} is not a float")
            require(math.isclose(got, want, rel_tol=1e-9), f"{'.'.join(path)}: {got} != {want}")
        canonical = functools.partial(json.dumps, sort_keys=True, indent=2)
        require(canonical(doc) == canonical(ref), "report differs from the reference")


def _pop(doc, path):
    *head, last = path
    for key in head:
        doc = doc[key]
    return doc.pop(last)


class DissymmetryWorkload(ReportWorkload):
    float_fields = tuple(
        ("report", "single_variable_check", f) for f in ("rooted", "unrooted", "half_square")
    )


def forest_total(n: int) -> int:
    """Labeled forests on n vertices, by the size m of vertex 1's component:
    F(n) = sum_m C(n-1, m-1) m^(m-2) F(n-m)."""
    f = [1]
    for j in range(1, n + 1):
        f.append(sum(math.comb(j - 1, m - 1) * (m ** (m - 2) if m > 1 else 1) * f[j - m] for m in range(1, j + 1)))
    return f[n]


class SampleWorkload(Workload):
    N, SAMPLES = 300, 400

    def prepare(self, seed):
        """Exact probability that a uniform forest on N vertices is a tree."""
        return Fraction(self.N ** (self.N - 2), forest_total(self.N))

    def check(self, stdout, returncode, seed, p_connected):
        require(returncode == 0, f"exit code {returncode}")
        doc = _load(stdout)
        n = self.N
        require(doc["n"] == n and doc["seed"] == seed, "n or seed not echoed")
        samples = doc["samples"]
        require(len(samples) == self.SAMPLES, f"{len(samples)} samples")
        connected = 0
        for edges in samples:
            parent = list(range(n + 1))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            require(edges == sorted(edges), "edges not sorted")
            for u, v in edges:
                require(type(u) is int and type(v) is int and 1 <= u < v <= n, f"bad edge {(u, v)}")
                ru, rv = find(u), find(v)
                require(ru != rv, "sample has a cycle")
                parent[ru] = rv
            connected += len(edges) == n - 1
        p = float(p_connected)
        sigma = math.sqrt(p * (1 - p) / self.SAMPLES)
        frac = connected / self.SAMPLES
        require(abs(frac - p) <= 4 * sigma, f"connected fraction {frac} vs exact {p:.5f}")


WORKLOADS = {
    w.name: w
    for w in (
        OptimizeWorkload(
            "optimize-k11",
            "tree enumeration, move tables and the float evaluator, then the optimizer loop and exact certification",
            ("optimize", "--u-max", "3", "--k", "11", "--budget", "1000"),
        ),
        ReportWorkload(
            "verify-n7",
            "all 36,961 labeled forests on 7 vertices: class build, bridge-addability and histogram; no weights",
            ("verify", "--suite", "local-double-counting", "--n", "7"),
        ),
        SampleWorkload(
            "sample-n300",
            "exact forest counts, 400 uniform draws and a large JSON report; bypasses treekit and weights",
            ("forests", "--sample", "--n", "300", "--num-samples", "400"),
        ),
        DissymmetryWorkload(
            "dissymmetry-k11",
            "exact Fraction max-weight DP and rooted/unrooted series sums, the exact path the evaluator skips",
            ("verify", "--suite", "dissymmetry", "--k", "11", "--samples", "10"),
        ),
    )
}


def main(argv):
    """Check one saved output: workloads.py NAME SEED RETURNCODE STDOUT_FILE.
    Exits 0 if it passes, 1 with the reason on stderr if not."""
    name, seed, returncode, path = argv
    workload = WORKLOADS[name]
    seed = int(seed)
    try:
        workload.check(Path(path).read_bytes(), int(returncode), seed, workload.prepare(seed))
    except Exception as exc:  # noqa: BLE001 - any failure of the check is a failed run
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
