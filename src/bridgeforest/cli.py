"""Command-line entry point.

Four subcommands wrap the library: `trees` (enumeration and automorphism
listings), `forests` (counts, connectivity probabilities, sampling, CSV
sweeps), `verify` (the exhaustive inequality suites), and `optimize` (the
constrained maximization).  Every JSON report embeds the full run
configuration and the package version; in exact mode reruns with the same
configuration are byte-identical.

Exit codes: 0 success, 1 verification/bound failure or capacity error,
2 usage error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from functools import partial

# Parsing needs nothing more: each command imports the modules it runs.
from . import CapacityError, __version__

__all__ = ["main"]


def _emit(payload, output):
    from . import serialize

    if output:
        with open(output, "w") as fh:
            serialize.dump(payload, fh)
            fh.write("\n")
    else:
        serialize.dump(payload, sys.stdout)
        sys.stdout.write("\n")


def _config(args, command):
    """The run configuration every report embeds; every run is serial, and
    `threads` keeps the reports unchanged."""
    options = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "command") and v is not None
    }
    return {"command": command, "options": options, "threads": 1, "version": __version__}


class _UsageError(Exception):
    """A command line that parses but asks for nothing runnable; `main`
    reports it like an argparse error."""


def _int_at_least(low: int, kind: str):
    """An argparse type for integers >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "non-negative")


def _finite_float(test, kind: str):
    """An argparse type for finite floats that pass test; kind says which."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and test(value)):
            raise argparse.ArgumentTypeError(f"expected a finite number {kind}, got {text!r}")
        return value

    return parse


def _parse_range(text: str):
    lo, hi = text.split(":")
    return range(int(lo), int(hi) + 1)


def _n_range(text: str) -> str:
    """An inclusive range lo:hi with lo <= hi.  The text itself is kept, so
    the report echoes what was given."""
    try:
        if _parse_range(text):
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a range lo:hi with lo <= hi, got {text!r}")


_CLASS_NAME = re.compile(r"all-forests|random-closure:-?\d+|file:.*", re.DOTALL)


def _class_name(text: str) -> str:
    """all-forests, random-closure:<seed> or file:<path>, kept as text."""
    if not _CLASS_NAME.fullmatch(text):
        raise argparse.ArgumentTypeError(
            f"expected all-forests, random-closure:<seed> or file:<path>, got {text!r}"
        )
    return text


def _resolve_class(name: str, n: int):
    from . import forestlab

    kind, _, arg = name.partition(":")
    if kind == "random-closure":
        return forestlab.random_closure(n, seed=int(arg))
    if kind == "file":
        cls = forestlab.load_class(arg)
        if cls.n != n:
            raise ValueError(f"class file has n={cls.n}, requested n={n}")
        return cls
    return forestlab.all_forests(n)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_trees(args) -> int:
    from . import treekit

    config = _config(args, "trees")
    kind = "unrooted" if args.unrooted else "rooted"
    if kind == "rooted":
        listing = [
            {"code": t.code, "size": t.size, "aut": t.aut_r}
            for t in treekit.enumerate_rooted(args.max_size)
        ]
    else:
        listing = [
            {"code": u.code, "size": u.size, "aut": u.aut_u}
            for u in treekit.enumerate_unrooted(args.max_size)
        ]
    _emit({"config": config, "count": len(listing), "trees": listing}, args.output)
    return 0


def _cmd_forests(args) -> int:
    if not (args.count or args.conn_prob or args.ratio or args.sample):
        raise _UsageError("choose one of --count, --conn-prob, --ratio, --sample")
    sweepable = args.conn_prob or args.ratio
    for argument, given, allowed, requests in (
        ("--n-range", args.n_range, sweepable, "--conn-prob or --ratio"),
        ("--exact", args.exact, args.conn_prob, "--conn-prob"),
        ("--logfloat", args.logfloat, args.conn_prob, "--conn-prob"),
        ("--k", args.k is not None, args.count, "--count"),
    ):
        if given and not allowed:
            raise _UsageError(f"argument {argument}: only for {requests}")
    if args.format == "csv" and not args.n_range:
        raise _UsageError("argument --format: csv is only for a --conn-prob or --ratio "
                          "sweep over --n-range")
    if args.format == "csv" and not args.output:
        raise _UsageError("argument --output: a csv sweep needs --output")
    from . import forests

    config = _config(args, "forests")
    mode = "logfloat" if args.logfloat else "exact"
    if args.count:
        if args.n is None or args.k is None:
            missing = "--n" if args.n is None else "--k"
            raise _UsageError(f"argument {missing}: --count needs --n and --k")
        if args.k > args.n:
            raise _UsageError(f"argument --k: --count needs --k <= --n, got --n {args.n} --k {args.k}")
        n, k, m = args.n, args.k, args.n - args.k + 1
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        # f(n, k) >= C(n, k - 1) m^(m - 2) for m > 1 (k - 1 isolated vertices and a tree on
        # the rest); lgamma errs far below a digit to n = 10^12, and past it only c^(c - 2) counts
        c = min(m, 10**12)
        binomial = math.lgamma(n + 1) - math.lgamma(k) - math.lgamma(m + 1) if n <= 10**12 else 0
        floor = ((c - 2) * math.log(c) + binomial) / math.log(10) if m > 1 else 0
        value = None if limit and floor > limit + 1 else forests.forest_count(n, k)
        if value is None or limit and value >= 10**limit:
            raise CapacityError(f"the count has more than {limit} digits, "
                                "the limit for writing an integer")
        _emit({"config": config, "count": value}, args.output)
        return 0
    if sweepable:
        if args.conn_prob:
            flag, key, low = "--conn-prob", "probability", 1
            value = partial(forests.connectivity_prob, mode=mode)
        else:
            flag, key, low = "--ratio", "ratio", 2
            value = forests.two_component_ratio
        if args.n_range:
            argument, ns = "--n-range", _parse_range(args.n_range)
        elif args.n is None:
            raise _UsageError(f"argument --n: {flag} needs --n or --n-range")
        else:
            argument, ns = "--n", [args.n]
        if ns[0] < low:
            raise _UsageError(f"argument {argument}: {flag} needs n >= {low}")
        # every value before any file is opened, so a failing one writes nothing
        sweep = [(n, value(n)) for n in ns]
        if args.format == "csv":
            import csv

            exact = mode == "exact"  # exact values also get their numerator and denominator
            with open(args.output, "w", newline="") as fh:
                out = csv.writer(fh)
                out.writerow(["n", key, "num", "den"] if exact else ["n", key])
                out.writerows([n, float(x), x.numerator, x.denominator] if exact else [n, x]
                              for n, x in sweep)
            return 0
        if args.n_range:
            payload = {"config": config, "sweep": [{"n": n, key: x} for n, x in sweep]}
        else:
            payload = {"config": config, "n": args.n, key: sweep[0][1]}
        _emit(payload, args.output)
        return 0
    if args.n is None:
        raise _UsageError("argument --n: --sample needs --n")
    import random

    rng = random.Random(args.seed)
    # Drawn one at a time as the writer reaches them, so one forest is held
    # at once; the first before anything is written, so a refused draw
    # writes nothing.  Nothing else draws from rng, so the draws are the
    # same as drawing them all first.
    def draw():
        return forests.sample_forest(args.n, rng=rng).edges  # the writer sorts a set

    drawn = [draw()]
    samples = (drawn.pop() if drawn else draw() for _ in range(args.num_samples))
    _emit(
        {"config": config, "n": args.n, "seed": args.seed, "samples": samples},
        args.output,
    )
    return 0


def _cmd_verify(args) -> int:
    suite = args.suite
    if suite == "dissymmetry" and args.k < 2:
        raise _UsageError("argument --k: the dissymmetry suite needs --k >= 2")
    if suite in ("simple-counting", "local-double-counting", "sum-bound", "boxing"):
        from . import forestlab  # first: compiled while little is loaded, for a low peak RSS
    from . import treekit

    config = _config(args, "verify")
    if suite in ("local-double-counting", "sum-bound", "boxing", "dissymmetry"):
        # the dissymmetry series read only u0, as the optimizer does
        catalog = treekit.Catalog.standard(1 if suite == "dissymmetry" else args.t_max, args.u_max)
    report: object
    checked = None  # the number of checks made, for the suites that count them
    if suite == "aut-identity":
        failures = []
        checked = 0
        for t in treekit.enumerate_rooted(args.max_size):
            if t.size < 2:
                continue
            for s in treekit.splits(t):
                checked += 1
                res = treekit.verify_aut_identity(s)
                if not res.ok:
                    failures.append({"split": s, "lhs": res.lhs, "rhs": res.rhs})
        report = {"ok": not failures, "checked": checked, "failures": failures}
        ok = not failures
    elif suite == "simple-counting":
        cls = _resolve_class(args.cls, args.n)
        rep = forestlab.verify_simple_counting(cls)
        report, ok, checked = rep, rep.ok, len(rep.comparisons)
    elif suite == "local-double-counting":
        cls = _resolve_class(args.cls, args.n)
        rep = forestlab.verify_local_double_counting(cls, catalog, w=args.w)
        report, ok, checked = rep, rep.ok, rep.checks
    elif suite == "sum-bound":
        cls = _resolve_class(args.cls, args.n)
        rep = forestlab.verify_weight_sum_bound(cls, catalog, w=args.w)
        report, ok, checked = rep, rep.ok, rep.boxes_checked
    elif suite == "dissymmetry":
        import random
        from fractions import Fraction

        from . import weights

        rng = random.Random(args.seed)
        failures = []
        for i in range(args.samples):
            z = weights.WeightVector.over(
                catalog,
                {u.code: Fraction(rng.randrange(0, 25), 24) for u in catalog.u0},
            )
            chk = weights.verify_dissymmetry_trunc(z, args.k, catalog)
            if not chk.ok:
                failures.append({"sample": i, "check": chk})
        single = weights.WeightVector.over(
            catalog, {treekit.SINGLE_VERTEX_CODE: 0.36787944117144233}
        )
        single_chk = weights.verify_dissymmetry_trunc(single, args.k, catalog)
        ok = not failures and single_chk.ok
        report = {
            "ok": ok,
            "samples": args.samples,
            "k": args.k,
            "failures": failures,
            "single_variable_check": single_chk,
        }
    elif suite == "boxing":
        cls = _resolve_class(args.cls, args.n)
        rep = forestlab.boxing_search(cls, catalog, w=args.w, epsilon=args.epsilon)
        # A missed capture target is only a failure when the averaging
        # guarantee applied; otherwise the report is best-effort.
        ok = rep.ok or not rep.guarantee_applies
        report, checked = rep, sum(total for _, total in rep.capture.values())
    else:
        raise ValueError(f"unknown suite {suite!r}")
    if checked == 0:  # a suite that checked nothing has not passed
        raise ValueError(f"verify --suite {suite} checked nothing")
    _emit({"config": config, "suite": suite, "report": report}, args.output)
    return 0 if ok else 1


def _cmd_optimize(args) -> int:
    if args.k < args.u_max:
        raise _UsageError("argument --k: the truncation order must be >= --u-max")
    from . import optimizer, treekit

    if args.cap is None:  # resolved here, so parsing need not load the optimizer
        args.cap = optimizer.DEFAULT_CAP
    config = _config(args, "optimize")
    catalog = treekit.Catalog.standard(1, args.u_max)  # the optimizer reads only u0
    cfg = optimizer.OptimizerConfig(
        catalog=catalog,
        k=args.k,
        budget=args.budget,
        tol=args.tol,
        y_cap=args.cap,
    )
    result = optimizer.bracket(cfg)
    check = optimizer.bound_check(result.point, args.epsilon)
    payload = {
        "config": config,
        "k": args.k,
        "u0": [u.code for u in catalog.u0],
        "objective": result.point.objective,
        "objective_float": result.objective_float,
        "upper_float": result.upper_float,
        "y_value": result.point.y_value,
        "y_per_size": result.y_per_size,
        "closed": result.point.closed,
        "z": result.point.z.as_dict(),
        "evaluations": result.evaluations,
        "budget_exhausted": result.budget_exhausted,
        "bound_check": check,
    }
    _emit(payload, args.output)
    return 0 if check.ok else 1


# ---------------------------------------------------------------------------
# argument surface


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line and exits 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bridgeforest",
        description="Tree enumeration, forest statistics, counting-inequality "
        "verification, and partition-function optimization.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("trees", help="enumeration and automorphism listings")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--rooted", action="store_true")
    kind.add_argument("--unrooted", action="store_true")
    p.add_argument("--max-size", type=_positive_int, required=True)
    common(p)
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("forests", help="counts, probabilities, samples")
    request = p.add_mutually_exclusive_group()
    request.add_argument("--count", action="store_true")
    request.add_argument("--conn-prob", action="store_true")
    request.add_argument("--ratio", action="store_true")
    request.add_argument("--sample", action="store_true")
    size = p.add_mutually_exclusive_group()
    size.add_argument("--n", type=_positive_int)
    size.add_argument("--n-range", type=_n_range, help="inclusive range lo:hi for sweeps")
    p.add_argument("--k", type=_positive_int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--logfloat", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-samples", type=_positive_int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(func=_cmd_forests)

    p = sub.add_parser("verify", help="exhaustive inequality suites")
    p.add_argument(
        "--suite",
        required=True,
        choices=(
            "aut-identity",
            "simple-counting",
            "local-double-counting",
            "sum-bound",
            "dissymmetry",
            "boxing",
        ),
    )
    p.add_argument("--max-size", type=_positive_int, default=9)
    p.add_argument("--n", type=_positive_int, default=5)
    p.add_argument("--class", dest="cls", type=_class_name, default="all-forests",
                   help="all-forests, random-closure:<seed>, or file:<path>")
    p.add_argument("--w", type=_positive_int, default=1)
    p.add_argument("--epsilon", type=_finite_float(lambda v: 0 <= v < 1, "in [0, 1)"),
                   default=0.5)
    p.add_argument("--t-max", type=_positive_int, default=4)
    p.add_argument("--u-max", type=_positive_int, default=3)
    p.add_argument("--k", type=_positive_int, default=10)
    p.add_argument("--samples", type=_nonnegative_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("optimize", help="constrained maximization")
    p.add_argument("--u-max", type=_positive_int, default=3)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--epsilon", type=_finite_float(lambda v: v >= 0, ">= 0"), default=0.5)
    p.add_argument("--budget", type=_positive_int, default=10_000)
    p.add_argument("--tol", type=_finite_float(lambda v: v > 0, "> 0"), default=1e-9)
    p.add_argument("--seed", type=int, default=0, help="echoed in the report; the search draws nothing")
    # default None: _cmd_optimize reads optimizer.DEFAULT_CAP
    p.add_argument("--cap", type=_finite_float(lambda v: v > 1, "> 1"))
    common(p)
    p.set_defaults(func=_cmd_optimize)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")
    except (CapacityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
