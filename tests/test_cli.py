import hashlib
import json
import os
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from bridgeforest import __version__, cli, forestlab

import oracles


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# Peak RSS in KB of `forests --sample --n 300` with each --num-samples given,
# output to /dev/null, as a JSON object keyed by the count.
_PEAK_RSS = """if True:
    import json, os, subprocess, sys

    peaks = {}
    for count in sys.argv[1:]:
        argv = [sys.executable, "-m", "bridgeforest.cli", "forests", "--sample",
                "--n", "300", "--num-samples", count]
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        peaks[count] = usage.ru_maxrss
    print(json.dumps(peaks))
"""


class TestTrees:
    def test_rooted_max6(self, capsys):
        code, doc = run_json(capsys, "trees", "--rooted", "--max-size", "6")
        assert code == 0
        assert doc["count"] == 37
        assert all(set(t) == {"code", "size", "aut"} for t in doc["trees"])

    def test_unrooted_max4(self, capsys):
        code, doc = run_json(capsys, "trees", "--unrooted", "--max-size", "4")
        assert code == 0 and doc["count"] == 5

    def test_default_is_rooted_size1(self, capsys):
        code, doc = run_json(capsys, "trees", "--max-size", "1")
        assert code == 0 and doc["count"] == 1
        assert doc["trees"][0]["code"] == "()"

    def test_config_echoed(self, capsys):
        _, doc = run_json(capsys, "trees", "--max-size", "2")
        assert doc["config"]["command"] == "trees"
        assert doc["config"]["options"]["max_size"] == 2
        assert doc["config"]["version"]


class TestForests:
    def test_conn_prob_exact(self, capsys):
        code, doc = run_json(capsys, "forests", "--conn-prob", "--n", "3", "--exact")
        assert code == 0
        assert doc["probability"] == {"num": "3", "den": "7"}

    def test_count(self, capsys):
        code, doc = run_json(capsys, "forests", "--count", "--n", "4", "--k", "2")
        assert code == 0 and doc["count"] == 15

    def test_count_diagonal(self, capsys):
        code, doc = run_json(capsys, "forests", "--count", "--n", "5", "--k", "5")
        assert code == 0 and doc["count"] == 1

    def test_ratio(self, capsys):
        code, doc = run_json(capsys, "forests", "--ratio", "--n", "4")
        assert code == 0 and doc["ratio"] == {"num": "15", "den": "16"}

    def test_sample_deterministic(self, capsys):
        code1, doc1 = run_json(
            capsys, "forests", "--sample", "--n", "6", "--seed", "7", "--num-samples", "3"
        )
        code2, doc2 = run_json(
            capsys, "forests", "--sample", "--n", "6", "--seed", "7", "--num-samples", "3"
        )
        assert code1 == code2 == 0
        assert doc1["samples"] == doc2["samples"]

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_sample_stream_is_the_eager_report(self, capsys, tmp_path, seed):
        # drawn while written, to stdout and to a file, against every draw
        # made first and written by the reference serializer
        argv = ["forests", "--sample", "--n", "300", "--num-samples", "30", "--seed", str(seed)]
        code, out = run(capsys, *argv)
        path = tmp_path / "sample.json"
        assert code == cli.main([*argv, "--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        written = path.read_text()

        rng = random.Random(seed)
        samples = [sorted(forestlab.sample_forest(300, rng=rng).edges) for _ in range(30)]
        for text in (out, written):
            options = json.loads(text)["config"]["options"]
            config = {"command": "forests", "options": options, "threads": 1, "version": __version__}
            payload = {"config": config, "n": 300, "seed": seed, "samples": samples}
            assert text == oracles.report_dumps(payload) + "\n"
        output_line = f'      "output": {json.dumps(str(path))},\n'
        assert written.replace(output_line, "", 1) == out

    def test_sample_past_cap_is_refused_before_writing(self, capsys, tmp_path):
        # the first forest is drawn before the report starts, so a refused
        # draw leaves no half report on stdout or in --output
        path = tmp_path / "F"
        for output in ([], ["--output", str(path)]):
            start = time.perf_counter()
            code = cli.main(["forests", "--sample", "--n", "100001", *output])
            elapsed = time.perf_counter() - start
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err == "error: sampling capped at n=100000\n"
            assert elapsed < 2
        assert not path.exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KB on Linux")
    def test_sample_peak_memory_is_flat_in_num_samples(self):
        # Measured from a small interpreter: a child's ru_maxrss starts at
        # the RSS of the process that spawned it, here pytest's.  Drawing
        # every sample before writing grew it by more than 90 MB.
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, "100", "2000"], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        peaks = json.loads(proc.stdout)
        assert peaks["2000"] - peaks["100"] < 5 * 1024, peaks

    # sha256 of each sweep's file: exact rows carry the float and the reduced
    # numerator and denominator, --logfloat rows only the float
    @pytest.mark.parametrize("sweep, header, digest", [
        ("--conn-prob --n-range 1:40", "n,probability,num,den",
         "8196e73514fe68f3150d12b5270fbe47f11fecc0c62a87427f649bd203684acb"),
        ("--conn-prob --logfloat --n-range 1:40", "n,probability",
         "3666569e6f04620a721db56f20b8f3846f6d78361a2e9c0c343fc10cd196da9e"),
        ("--ratio --n-range 2:30", "n,ratio,num,den",
         "dc1d733da4dbf1eac692d5f572b90abf51fe607f755267d4590fc80e66eee205"),
    ], ids=["conn-prob", "conn-prob-logfloat", "ratio"])
    def test_csv_sweep(self, capsys, tmp_path, sweep, header, digest):
        out = tmp_path / "sweep.csv"
        code, _ = run(capsys, "forests", *sweep.split(), "--format", "csv", "--output", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        ns = cli._parse_range(sweep.split()[-1])
        assert lines[0] == header and [line.split(",")[0] for line in lines[1:]] == list(map(str, ns))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_failed_csv_sweep_writes_nothing(self, capsys, tmp_path):
        # the rows for 999 and 1000 are computed before n = 1001 fails
        out = tmp_path / "sweep.csv"
        code, _ = run(
            capsys, "forests", "--conn-prob", "--n-range", "999:1001",
            "--format", "csv", "--output", str(out),
        )
        assert code == 1
        assert not out.exists()

    def test_capacity_error_exit1(self, capsys):
        code = cli.main(["forests", "--conn-prob", "--n", "9999", "--exact"])
        err = capsys.readouterr().err
        assert code == 1 and "error" in err

    def test_count_past_digit_limit_exit1(self, capsys):
        code = cli.main(["forests", "--count", "--n", "2000", "--k", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"{sys.get_int_max_str_digits()} digits" in captured.err
        assert "set_int_max_str_digits" not in captured.err

    @pytest.mark.parametrize("n, k", [(100000, 50000), (10**13, 1)])
    def test_count_far_past_digit_limit_is_refused_uncounted(self, capsys, monkeypatch, n, k):
        # C(n, k - 1) m^(m - 2) <= f(n, k) has far more than 4,300 digits;
        # counting exactly takes minutes or more, the bound milliseconds
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        start = time.perf_counter()
        code = cli.main(["forests", "--count", "--n", str(n), "--k", str(k)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("error: the count has more than 4300 digits, "
                                "the limit for writing an integer\n")
        assert elapsed < 2

    def test_count_just_under_digit_limit_prints(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        code, out = run(capsys, "forests", "--count", "--n", "1370", "--k", "1")
        assert code == 0
        assert json.loads(out)["count"] == 1370**1368  # Cayley: 4,291 digits

    def test_count_refused_exactly_when_too_long(self, capsys, monkeypatch):
        # at Python's lowest digit limit, around m^(m - 2) = 10^640 (m near
        # 266), the early refusal and the exact count agree on every request
        limit = 640
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit, raising=False)
        refused = set()
        for n in (200, 266, 300, 400):
            for k in (1, 2, 3, 10, 40, 100, 134, 135, 150, n - 1, n):
                code = cli.main(["forests", "--count", "--n", str(n), "--k", str(k)])
                capsys.readouterr()
                assert code == (1 if forestlab.forest_count(n, k) >= 10**limit else 0), (n, k)
                refused.add(code)
        assert refused == {0, 1}

    def test_exact_cap_is_1000(self, capsys):
        code, doc = run_json(capsys, "forests", "--conn-prob", "--n", "1000")
        assert code == 0 and doc["n"] == 1000
        code = cli.main(["forests", "--conn-prob", "--n", "1001"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: exact mode capped at n=1000\n"


class TestVerify:
    def test_simple_counting(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--suite", "simple-counting", "--n", "3", "--class", "all-forests"
        )
        assert code == 0
        assert doc["report"]["ok"] is True
        assert doc["report"]["ratios"][0] == {"num": "1", "den": "1"}
        assert doc["report"]["ratios"][1] == {"num": "1", "den": "3"}

    def test_aut_identity(self, capsys):
        code, doc = run_json(capsys, "verify", "--suite", "aut-identity", "--max-size", "7")
        assert code == 0 and doc["report"]["ok"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "aut-identity", "--max-size", "6", "--t-max", "17"],
            ["--suite", "simple-counting", "--n", "5", "--u-max", "17"],
            ["--suite", "dissymmetry", "--k", "4", "--samples", "1", "--t-max", "17"],
        ],
        ids=["aut-identity", "simple-counting", "dissymmetry"],
    )
    def test_catalog_bounds_unread_by_the_suite(self, capsys, argv):
        # these suites read no catalog, or only its u0, so a bound they do
        # not read past the exhaustive limit is not an error
        code, doc = run_json(capsys, "verify", *argv)
        assert code == 0 and doc["report"]["ok"]

    def test_local_double_counting(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--suite", "local-double-counting",
            "--n", "5", "--class", "all-forests", "--t-max", "3", "--u-max", "2",
        )
        assert code == 0 and doc["report"]["ok"]

    def test_sum_bound(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--suite", "sum-bound",
            "--n", "5", "--class", "all-forests", "--t-max", "3", "--u-max", "2",
        )
        assert code == 0 and doc["report"]["ok"]

    def test_dissymmetry(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--suite", "dissymmetry",
            "--k", "8", "--samples", "5", "--t-max", "3", "--u-max", "2",
        )
        assert code == 0 and doc["report"]["ok"]

    def test_dissymmetry_zero_samples(self, capsys):
        # with no random samples the single-variable check still runs
        code, doc = run_json(
            capsys, "verify", "--suite", "dissymmetry",
            "--k", "6", "--samples", "0", "--t-max", "2", "--u-max", "1",
        )
        assert code == 0 and doc["report"]["samples"] == 0
        assert doc["report"]["single_variable_check"]["ok"] is True

    def test_boxing(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--suite", "boxing",
            "--n", "6", "--class", "all-forests", "--w", "2",
            "--t-max", "2", "--u-max", "1", "--epsilon", "0.5",
        )
        assert code == 0

    def test_random_closure_class(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--suite", "simple-counting",
            "--n", "4", "--class", "random-closure:5",
        )
        assert code == 0

    def test_file_class(self, capsys, tmp_path):
        from bridgeforest import forestlab as fl

        cls = fl.all_forests(3)
        path = tmp_path / "cls.json"
        oracles.save_class(cls, path)
        code, doc = run_json(
            capsys, "verify", "--suite", "simple-counting",
            "--n", "3", "--class", f"file:{path}",
        )
        assert code == 0

    @pytest.mark.parametrize("cls", ["file", "random-closure:1"])
    def test_explicit_class_past_cap_exit1_at_once(self, capsys, tmp_path, cls):
        # explicit classes build pair tables of O(n^2) entries: 355 MB at n = 128
        path = tmp_path / "one.json"
        path.write_text('{"n": 200000, "forests": [[]]}')
        name = f"file:{path}" if cls == "file" else cls
        start = time.perf_counter()
        code = cli.main(["verify", "--suite", "simple-counting", "--n", "200000", "--class", name])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: explicit forest classes are capped at n={forestlab.EXPLICIT_MAX_N}\n"
        assert elapsed < 1

    def test_sum_bound_checks_inclusion_closure_once(self, capsys, monkeypatch):
        # the catalog checks its t0 when it is built; the boxes do not again
        from bridgeforest import treekit as tk

        calls, check = [], tk.check_inclusion_closed
        monkeypatch.setattr(tk, "check_inclusion_closed", lambda family: calls.append(1) or check(family))
        code, doc = run_json(capsys, "verify", "--suite", "sum-bound", "--n", "8")
        assert code == 0 and doc["report"]["boxes_checked"] == 21
        assert len(calls) == 1

    def test_violated_class_exit1(self, capsys, tmp_path):
        # a non-bridge-addable explicit class is rejected with exit 1
        from bridgeforest import forestlab as fl

        cls = fl.ForestClass(3, [fl.LabeledForest.make(3, [])])
        path = tmp_path / "bad.json"
        oracles.save_class(cls, path)
        code = cli.main(
            ["verify", "--suite", "simple-counting", "--n", "3", "--class", f"file:{path}"]
        )
        assert code == 1


class TestOptimize:
    def test_single_var_k8(self, capsys):
        from bridgeforest import optimizer as op

        code, doc = run_json(capsys, "optimize", "--u-max", "1", "--k", "8")
        assert code == 0
        assert abs(doc["objective_float"] - op.single_var_threshold(8)) < 1e-8
        assert doc["bound_check"]["ok"] is True

    def test_report_brackets_the_maximum(self, capsys):
        code, doc = run_json(capsys, "optimize", "--u-max", "3", "--k", "11", "--budget", "1000")
        assert code == 0
        assert set(doc) == {
            "config", "k", "u0", "objective", "objective_float", "upper_float", "y_value",
            "y_per_size", "closed", "z", "evaluations", "budget_exhausted", "bound_check",
        }
        assert 0 <= doc["upper_float"] - doc["objective_float"] <= 1e-9
        assert doc["evaluations"] <= 200 and doc["budget_exhausted"] is False

    @pytest.mark.parametrize(
        "argv",
        [["--u-max", "1", "--k", "8"], ["--u-max", "2", "--k", "6"], ["--u-max", "3", "--k", "11", "--budget", "1000"]],
    )
    def test_seed_changes_only_its_echo(self, capsys, argv):
        # the search draws nothing; the report still echoes --seed
        docs = []
        for seed in (0, 7):
            code, doc = run_json(capsys, "optimize", *argv, "--seed", str(seed))
            assert code in (0, 1) and doc["config"]["options"].pop("seed") == seed
            docs.append((code, doc))
        assert docs[0] == docs[1]

    def test_bound_failure_exit1(self, capsys):
        # epsilon=0 demands objective <= 1/2; x_4 ~ 0.578 exceeds it
        code = cli.main(["optimize", "--u-max", "1", "--k", "4", "--epsilon", "0"])
        assert code == 1

    @pytest.mark.parametrize("cap", ["1e200", "1e308"])
    def test_huge_cap_is_certified_without_warnings(self, capsys, cap):
        # the float layers overflow to inf and nan in the search; nothing
        # may warn, and the certified point stays within the cap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["optimize", "--u-max", "2", "--k", "5", "--cap", cap])
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert code == 1  # the bound check fails: the objective is huge
        assert err == ""
        assert doc["closed"] is True
        y = Fraction(int(doc["y_value"]["num"]), int(doc["y_value"]["den"]))
        assert y <= Fraction(float(cap))

    @pytest.mark.parametrize("budget", ["1", "20", "200", None])
    @pytest.mark.parametrize("cap", ["1e300", "1.7976931348623157e308"])
    @pytest.mark.parametrize("u_max,k", [(u, k) for u in range(1, 5) for k in (u, u + 1)])
    def test_huge_cap_certifies_or_refuses_in_one_line(self, capsys, u_max, k, cap, budget):
        # near the float limit the best point's largest weight times the
        # certificate's 2^40 overflows, and float candidates can be NaN or
        # inf; the report is certified or the refusal is one line, and no
        # exception escapes
        argv = ["optimize", "--u-max", str(u_max), "--k", str(k), "--cap", cap]
        code = cli.main(argv + (["--budget", budget] if budget else []))
        out, err = capsys.readouterr()
        if out:
            doc = json.loads(out)
            assert code == (0 if doc["bound_check"]["ok"] else 1)
            assert err == ""
            assert doc["closed"] is True
            y = Fraction(int(doc["y_value"]["num"]), int(doc["y_value"]["den"]))
            assert y <= Fraction(float(cap))
        else:
            assert code == 1
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_capacity_error_exit1(self, capsys):
        # the free-tree series stop at treekit.FREE_TREE_MAX_SIZE = 18
        code = cli.main(["optimize", "--u-max", "3", "--k", "19"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: size bound 19 exceeds free-tree limit 18\n"


class TestPositiveArguments:
    # a zero budget or box width leaves nothing to run or check
    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--u-max", "1", "--k", "4", "--budget", "0"],
            ["verify", "--suite", "boxing", "--n", "4", "--w", "0"],
            ["verify", "--suite", "local-double-counting", "--n", "4", "--w", "0"],
        ],
        ids=["optimize-budget", "boxing-w", "local-double-counting-w"],
    )
    def test_zero_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: expected a positive integer, got '0'" in err
        assert "Traceback" not in err


class TestNothingChecked:
    # a suite run that examined nothing is a failure, not a vacuous pass
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "aut-identity", "--max-size", "1"],
            ["verify", "--suite", "local-double-counting", "--n", "1"],
            ["verify", "--suite", "sum-bound", "--n", "1"],
            ["verify", "--suite", "simple-counting", "--n", "1"],
            ["verify", "--suite", "boxing", "--n", "1"],
        ],
        ids=["aut-identity", "local-double-counting", "sum-bound", "simple-counting", "boxing"],
    )
    def test_exit1_one_line(self, capsys, argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: verify --suite {argv[2]} checked nothing\n"


class TestClassFiles:
    # a class file must hold an int n >= 1 and a non-empty list of edge
    # lists of int pairs; any other shape is refused in one line naming the
    # file, and an empty class is not a pass that examined nothing
    @pytest.mark.parametrize(
        "text",
        ['{}', '[1, 2]', '{"n": 4, "forests": [[1, 2]]}', '{"n": "4", "forests": []}',
         '{"n": 4, "forests": []}', 'nope', '{"n": 4, "forests": [[[1, 5]]]}',
         '{"n": 4, "forests": [[[1, 2], [2, 3], [1, 3]]]}', '{"n": 4, "forests": [[[1, 2], [2, 1]]]}'],
        ids=["empty-object", "list", "edges-not-pairs", "n-string", "no-forests", "not-json",
             "edge-out-of-range", "cycle", "repeated-edge"],
    )
    def test_malformed_exit1_one_line(self, capsys, tmp_path, text):
        path = tmp_path / "class.json"
        path.write_text(text)
        code = cli.main(["verify", "--suite", "simple-counting", "--n", "4",
                         "--class", f"file:{path}"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.err.startswith(f"error: class file {path}: ")


class TestUsageErrors:
    # each bad command line is a usage error, found in argument parsing or
    # in the command: exit 2 and one line on stderr naming the argument
    @pytest.mark.parametrize(
        "argv,argument",
        [
            (["forests", "--conn-prob", "--n-range", "5"], "--n-range"),
            (["forests", "--conn-prob", "--n-range", "5:3"], "--n-range"),
            (["verify", "--suite", "simple-counting", "--class", "random-closure:x"], "--class"),
            (["forests", "--sample", "--n", "5", "--num-samples", "-2"], "--num-samples"),
            (["trees", "--rooted", "--unrooted", "--max-size", "3"], "--unrooted"),
            (["forests", "--conn-prob", "--n", "5", "--exact", "--logfloat"], "--logfloat"),
            (["forests", "--ratio", "--n-range", "2:4", "--format", "csv"], "--output"),
            (["forests", "--count", "--n", "5"], "--k"),
            (["forests", "--count", "--k", "2"], "--n"),
            (["forests", "--conn-prob"], "--n"),
            (["forests", "--sample"], "--n"),
            (["trees", "--max-size", "0"], "--max-size"),
            (["verify", "--suite", "aut-identity", "--max-size", "0"], "--max-size"),
            (["verify", "--suite", "simple-counting", "--n", "0"], "--n"),
            (["forests", "--count", "--n", "0", "--k", "1"], "--n"),
            (["forests", "--count", "--n", "5", "--k", "6"], "--k"),
            (["verify", "--suite", "dissymmetry", "--k", "0"], "--k"),
            (["verify", "--suite", "dissymmetry", "--k", "1"], "--k"),
            (["verify", "--suite", "aut-identity", "--t-max", "0"], "--t-max"),
            (["verify", "--suite", "sum-bound", "--u-max", "0"], "--u-max"),
            (["optimize", "--k", "4", "--u-max", "0"], "--u-max"),
            (["optimize", "--k", "4", "--t-max", "0"], "unrecognized arguments: --t-max 0"),
            # the search has no restarts: the option went with the multistart ascent
            (["optimize", "--k", "4", "--restarts", "0"], "unrecognized arguments: --restarts 0"),
            (["verify", "--suite", "dissymmetry", "--samples", "-3"], "--samples"),
            (["optimize", "--k", "4", "--tol", "0"], "--tol"),
            (["optimize", "--k", "4", "--tol", "nan"], "--tol"),
            (["optimize", "--k", "4", "--cap", "1.0"], "--cap"),
            (["optimize", "--k", "4", "--cap", "nan"], "--cap"),
            (["optimize", "--k", "4", "--epsilon", "nan"], "--epsilon"),
            (["optimize", "--k", "2"], "--k"),
            (["verify", "--suite", "boxing", "--n", "5", "--epsilon", "nan"], "--epsilon"),
            (["verify", "--suite", "boxing", "--n", "5", "--epsilon", "-2"], "--epsilon"),
            (["verify", "--suite", "boxing", "--n", "5", "--epsilon", "1"], "--epsilon"),
            (["forests", "--conn-prob", "--n-range", "0:3"], "--n-range"),
            (["forests", "--ratio", "--n", "1"], "--n"),
            (["forests", "--ratio", "--n-range", "1:3"], "--n-range"),
            (["forests", "--conn-prob", "--n", "5", "--format", "csv"], "--format"),
            (["forests", "--sample", "--n", "5", "--format", "csv"], "--format"),
            (["forests", "--count", "--n", "5", "--k", "2", "--format", "csv"], "--format"),
            (["forests", "--count", "--n", "5", "--k", "2", "--sample"], "--sample"),
            (["forests", "--conn-prob", "--ratio", "--n", "5"], "--ratio"),
            (["forests", "--count", "--n-range", "1:3", "--k", "2"], "--n-range"),
            (["forests", "--sample", "--n-range", "1:3"], "--n-range"),
            (["forests", "--count", "--n", "5", "--k", "2", "--exact"], "--exact"),
            (["forests", "--sample", "--n", "5", "--exact"], "--exact"),
            (["forests", "--ratio", "--n", "5", "--exact"], "--exact"),
            (["forests", "--ratio", "--n", "5", "--logfloat"], "--logfloat"),
            (["forests", "--count", "--n", "5", "--k", "2", "--logfloat"], "--logfloat"),
            (["forests", "--sample", "--n", "5", "--k", "2"], "--k"),
            (["forests", "--conn-prob", "--n", "5", "--k", "2"], "--k"),
            (["forests", "--sample", "--n", "5", "--n-range", "1:3"], "--n-range"),
            (["forests", "--conn-prob", "--n", "5", "--n-range", "1:3"], "--n-range"),
            (["forests", "--sample", "--n", "0"], "--n"),
        ],
        ids=["range-one-value", "range-reversed", "class-seed", "num-samples",
             "rooted-unrooted", "exact-logfloat", "csv-sweep-output", "count-k",
             "count-n", "conn-prob-n", "sample-n", "trees-max-size", "verify-max-size",
             "verify-n-zero", "count-n-zero", "count-k-above-n", "dissymmetry-k-zero", "dissymmetry-k-one",
             "verify-t-max-zero", "verify-u-max-zero", "optimize-u-max-zero",
             "optimize-t-max-zero", "optimize-restarts-zero", "dissymmetry-samples-negative",
             "optimize-tol-zero", "optimize-tol-nan", "optimize-cap-one", "optimize-cap-nan",
             "optimize-epsilon-nan", "optimize-k-below-u-max", "boxing-epsilon-nan",
             "boxing-epsilon-negative", "boxing-epsilon-one", "conn-prob-range-zero",
             "ratio-n-one", "ratio-range-one", "csv-conn-prob-n", "csv-sample", "csv-count",
             "count-sample", "conn-prob-ratio", "n-range-count", "n-range-sample",
             "exact-count", "exact-sample", "exact-ratio", "logfloat-ratio", "logfloat-count", "k-sample",
             "k-conn-prob", "n-with-n-range-sample", "n-with-n-range-conn-prob",
             "sample-n-zero"],
    )
    def test_exit2_one_line(self, capsys, argv, argument):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        # the line names the argument, or an option the command does not take
        named = argument if argument.startswith("unrecognized") else f"argument {argument}: "
        assert f"error: {named}" in captured.err
        assert "Traceback" not in captured.err

    def test_no_request_exit2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["forests", "--n", "5"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err == "bridgeforest forests: error: choose one of --count, --conn-prob, --ratio, --sample\n"

    def test_n_range_echoed_as_given(self, capsys):
        code, doc = run_json(capsys, "forests", "--ratio", "--n-range", "3:5")
        assert code == 0
        assert doc["config"]["options"]["n_range"] == "3:5"
        assert [row["n"] for row in doc["sweep"]] == [3, 4, 5]


class TestUsageAndDeterminism:
    def test_unknown_flag_exit2(self):
        for argv in (["trees", "--nope"], ["trees", "--max-size", "3", "--threads", "2"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2

    def test_missing_subcommand_exit2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_byte_identical_reruns(self, capsys):
        _, first = run(capsys, "verify", "--suite", "simple-counting", "--n", "4")
        _, second = run(capsys, "verify", "--suite", "simple-counting", "--n", "4")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _ = run(capsys, "trees", "--max-size", "3", "--output", str(out))
        assert code == 0
        assert json.loads(out.read_text())["count"] == 4

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bridgeforest.cli", "forests", "--count", "--n", "3", "--k", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["count"] == 3


# sha256 of each command's stdout: a change to these bytes is a change to
# a report, and is made on purpose or not at all.  The only floats they print are the parsed --epsilon, the
# correctly rounded --logfloat quotient and boxing's int ratio
# min_fraction, so the digests hold on every Python from 3.10 on.
# optimize (its float search) and dissymmetry (float powers) are left out.
_PINNED_REPORTS = {
    "trees-rooted": (
        "trees --max-size 7",
        "b6297667afce5b37d87172c064a9504b4c644dc90c19a7c13a30872fb1618aff",
    ),
    "trees-unrooted": (
        "trees --max-size 7 --unrooted",
        "14a96da130f98bcf699a3b16050421ac7b9f54a8c9a9f3cefd43dc70e245bf77",
    ),
    "count": (
        "forests --count --n 12 --k 3",
        "7150aafeff487172f7d05877617e75675bf088909ac8b3b416c72174f072098d",
    ),
    "conn-prob": (
        "forests --conn-prob --n 60",
        "258926b06111e5d850f637fe65cfa04ddd6dc52d14161f9178d5990b76c5470e",
    ),
    "conn-prob-logfloat": (
        "forests --conn-prob --n 60 --logfloat",
        "057665a44f258e83d2928251106f15ceea54e9504a8e8e21b7493cf58a837b12",
    ),
    "ratio-sweep": (
        "forests --ratio --n-range 2:12",
        "f4d14ca33d3209ddb5d67888cb0a852f42b5b28e97478fa335cba29427a4a5fe",
    ),
    "sample": (
        "forests --sample --n 40 --num-samples 5 --seed 2",
        "fdf97bfec9167b9ab6a1b724687578fb99cc246458552f8d65730c8cf069f30e",
    ),
    "sample-400": (  # the first forest drawn before the report starts
        "forests --sample --n 300 --num-samples 400",
        "f7ab86697be7364ad2d18ef3782c7773ddf652925f5164d08ce7f904f07eda6b",
    ),
    "aut-identity": (
        "verify --suite aut-identity --max-size 8",
        "4fe7756cfa58c1c1732981cbb63d47d375ab62c133ea107ed32f5e9200c1713e",
    ),
    "simple-counting": (
        "verify --suite simple-counting --n 6",
        "daf5e0b630618a55b171cfb8675a3b6713a422630163e8f7a145e10962f32b1e",
    ),
    "local-double-counting": (
        "verify --suite local-double-counting --n 8",
        "4e2df758c521ec5ccd986ea1b3eae985965b387e48997d19de180c884448f21a",
    ),
    "local-double-counting-closure": (
        "verify --suite local-double-counting --n 6 --class random-closure:3",
        "e684cf26fb31a27dfa7c890fad57f3a9c5c3da5045074a61d67262cecaea490e",
    ),
    "sum-bound": (
        "verify --suite sum-bound --n 7",
        "95941ba290175ca6bfebb5414ab6f9b965549f57b2ea1c21d0c6fb15e805b671",
    ),
    "sum-bound-t0-halves": (  # the shape path, with 5-vertex central-edge halves in t0
        "verify --suite sum-bound --n 10 --t-max 5 --u-max 2",
        "1c3884adc6333860bd5cf91a2a1417fc6208e38b5e63dba0d38db03bf44e4fe2",
    ),
    "sum-bound-moves-7": (  # the exact max-weight DP runs _moves on trees of up to 7 vertices
        "verify --suite sum-bound --n 8 --t-max 7 --u-max 4",
        "564a42d476f44a0acff3123760554f946280a0e2e4ba173d95719a6d39f4b90a",
    ),
    "local-double-counting-wide-w2": (  # width-2 boxes under |t0| = 17
        "verify --suite local-double-counting --n 6 --t-max 5 --u-max 2 --w 2",
        "e132907f3ec181d358d458ac14531f57b31875b499c21d5d2e9aa19bf13f0e46",
    ),
    "sum-bound-wide-w2": (
        "verify --suite sum-bound --n 6 --t-max 5 --u-max 2 --w 2",
        "56dc815708ecc7a8d18af07ed0e9ca3175509b0d9c482eae8cff6081de6ede0e",
    ),
    "boxing": (
        "verify --suite boxing --n 7 --w 2 --t-max 2 --u-max 1",
        "a222b5fd4818d538be3d24aff1b0e29f35720bba3be35a4efe058675a88cd6a3",
    ),
    "boxing-n12": (  # the diagonal shift search, which reads b_totals
        "verify --suite boxing --n 12",
        "2d858836112fd08df06182eb74e49c65461a2d5165067ce62a8de4454f346616",
    ),
}


@pytest.mark.parametrize("name", _PINNED_REPORTS)
def test_report_bytes_are_pinned(capsys, name):
    command, digest = _PINNED_REPORTS[name]
    code, out = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Run in a fresh interpreter: the package modules a command leaves in
# sys.modules (cli itself aside), then numpy, csv and dataclasses if they
# were imported, after its exit code.
_LOADED = """if True:
    import contextlib, io, sys
    from bridgeforest import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(sys.argv[1:])
        except SystemExit as exc:
            code = exc.code
    names = sorted(m.split(".")[1] for m in sys.modules if m.startswith("bridgeforest."))
    print(code, *[m for m in names if m != "cli"],
          *[m for m in ("numpy", "csv", "dataclasses") if m in sys.modules])
"""
# every module but cli defines dataclasses, so every command that runs one loads it
_FORESTS = ["forests", "serialize", "dataclasses"]
_CLASSES = ["forestlab", "forests", "serialize", "treekit", "dataclasses"]


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        (["--version"], 0, []),
        (["--help"], 0, []),
        (["forests", "--n", "0"], 2, []),
        (["forests", "--sample", "--n", "5"], 0, _FORESTS),
        (["forests", "--count", "--n", "6", "--k", "2"], 0, _FORESTS),
        (["trees", "--max-size", "4"], 0, ["serialize", "treekit", "dataclasses"]),
        (["verify", "--suite", "local-double-counting", "--n", "4"], 0, _CLASSES),
        (["verify", "--suite", "simple-counting", "--n", "4"], 0, _CLASSES),
        (["verify", "--suite", "boxing", "--n", "5"], 0, _CLASSES),
        (["verify", "--suite", "sum-bound", "--n", "4"], 0,
         ["forestlab", "forests", "serialize", "treekit", "weights", "dataclasses"]),
        (["verify", "--suite", "aut-identity", "--max-size", "4"], 0,
         ["serialize", "treekit", "dataclasses"]),
        (["verify", "--suite", "dissymmetry", "--k", "4", "--samples", "1"], 0,
         ["serialize", "treekit", "weights", "dataclasses"]),
        (["optimize", "--u-max", "1", "--k", "4"], 0,
         ["optimizer", "serialize", "treekit", "weights", "dataclasses"]),
        (["forests", "--conn-prob", "--n-range", "1:5"], 0, _FORESTS),
        (["forests", "--ratio", "--n", "5"], 0, _FORESTS),
        (["forests", "--ratio", "--n-range", "2:4", "--format", "csv", "--output", os.devnull], 0,
         ["forests", "csv", "dataclasses"]),
        (["forests", "--ratio", "--n-range", "2:4", "--format", "csv"], 2, []),
    ],
)
def test_each_command_loads_only_its_modules(argv, code, modules):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(code), *modules]


# Run in a fresh interpreter: a small optimize, then the process's thread
# count.
_THREADS = """if True:
    import contextlib, io, os
    from bridgeforest import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["optimize", "--u-max", "1", "--k", "4"])
    tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else "-"
    print(code, tasks)
"""


@pytest.mark.parametrize("preset", [None, "2"])
def test_optimize_runs_one_blas_thread_unless_set(preset):
    # the optimizer no longer loads numpy, so it runs on one thread whatever
    # OPENBLAS_NUM_THREADS says
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", _THREADS], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, tasks = proc.stdout.split()
    assert code == "0"
    if tasks != "-":  # no /proc/self/task: count not checked
        assert tasks == "1"
