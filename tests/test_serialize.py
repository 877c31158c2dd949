"""The streaming report writer against the reference serializer, the set
ordering rule, and a numpy-free run of every command, the optimizer's
included."""

import io
import json
import math
import os
import subprocess
import sys
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest

from bridgeforest import cli, serialize
from bridgeforest.serialize import RunConfig

import oracles

ROOT = Path(__file__).resolve().parent.parent


class Color(IntEnum):
    RED = 1
    BLUE = -7


def run_python(code, **env):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def dumped(value) -> str:
    fh = io.StringIO()
    serialize.dump(value, fh)
    return fh.getvalue()


@pytest.mark.parametrize(
    "value",
    [
        [1, True, 2, False],
        [(1, 2), (True, 3), (4, False)],
        [(1, 2.0), (3, 4)],
        [(1, 2), (3, 4, 5)],
        [(Color.RED, 2), Color.BLUE],
        {Color.RED: Color.BLUE},
        [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324],
        [Fraction(-7, 3), Fraction(-(10**200), 3**90), Fraction(0)],
        ["", "é ü", "\x00\x1f\x7f", "  \ud800 \U0001f333", '"\\/'],
        {1: "a", "1": "b"},
        {"1": "b", 1: "a"},
        {None: 0, True: 1, False: 2, 0.5: 3, -0.0: 4, math.nan: 5, math.inf: 6},
        [[], (), {}, set(), frozenset(), "", [[]], {"a": {}}],
        RunConfig(command="forests", options={"n": 3, "seed": None, "range": "2:4"}),
        {"samples": [[(0, 1), (1, 2)], []], "n": 3, "ok": True, "x": None},
        7,
        -0.0,
        "top",
        None,
        # lists of int pairs are checked and written in C-level passes; anything
        # that is not a plain int in a 2-tuple takes the general path
        [(1, 2), (3, 4)],
        [(True, 2), (3, 4)],
        [(1, 2), (3, False)],
        [(Color.RED, 2), (3, 4)],
        [(1, Color.BLUE)],
        [(1, 2, 3), (4, 5, 6)],
        [(1, 2), (3, 4, 5)],
        [(1,), (2,)],
        [[1, 2], [3, 4]],
        [(1, 2), [3, 4], (5, 6)],
        [(2**64, -(2**70)), (-1, 0), (10**100, -(10**100))],
        [],
        [()],
        [[]],
        [(1, 2), ()],
        {(2, 1), (1, 2), (-3, 2**65)},
        [[(1, 2), (3, 4)], [[(5, 6)], [(7, -8)]], [[[(2**80, 9)]]]],
        {"a": [(1, 2)], "b": {"c": [[(3, 4)], []]}},
    ],
)
def test_writer_matches_reference_on_edge_cases(value):
    assert dumped(value) == oracles.report_dumps(value)


def test_writer_matches_reference_on_generated_values():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ints = st.integers() | st.integers(-(10**300), 10**300) | st.sampled_from(Color)
    scalars = st.none() | st.booleans() | ints | st.floats() | st.text() | st.fractions()
    keys = st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3)
    sets = (
        st.sets(st.integers()) | st.frozensets(st.text(max_size=3))
        | st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)))
    )
    pairs = st.lists(st.tuples(st.integers(), st.integers() | st.booleans() | st.floats()))
    values = st.recursive(
        scalars | sets | pairs | st.lists(st.integers() | st.booleans()),
        lambda children: (
            st.lists(children, max_size=4)
            | st.tuples(children, children)
            | st.dictionaries(keys, children, max_size=4)
            | st.builds(RunConfig, command=st.text(max_size=5),
                        options=st.dictionaries(st.text(max_size=3), children, max_size=3))
        ),
        max_leaves=20,
    )

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(values)
    def check(value):
        assert dumped(value) == oracles.report_dumps(value)

    check()


# Each case builds a value from its sequences by seq; with seq a generator
# it must be written as the value built from lists.
@pytest.mark.parametrize(
    "build",
    [
        lambda seq: seq([]),
        lambda seq: seq([1, (2, 3), "x"]),
        lambda seq: {"samples": seq([]), "n": 3},
        lambda seq: {"samples": seq([[(1, 2), (2, 3)], [], [(4, 5)]]), "seed": 0, "n": 5,
                     "config": RunConfig(command="forests", options={"sample": True})},
        lambda seq: {"a": [seq([1, seq([2])])], "b": seq([{"c": seq([])}, seq([seq([])])])},
        lambda seq: [seq([Fraction(1, 3)]), seq([]), {"d": seq([None])}],
    ],
)
def test_generators_are_written_as_lists(build):
    def gen(items):
        return (x for x in items)

    assert dumped(build(gen)) == oracles.report_dumps(build(list))


@pytest.mark.parametrize(
    "argv",
    [
        ["trees", "--unrooted", "--max-size", "7"],
        ["forests", "--conn-prob", "--n-range", "1:6"],
        ["verify", "--suite", "local-double-counting", "--n", "5"],
        ["verify", "--suite", "dissymmetry", "--k", "6", "--samples", "2"],
        ["optimize", "--u-max", "2", "--k", "5"],
    ],
)
def test_stream_matches_reference_on_reports(monkeypatch, argv):
    payloads = []
    monkeypatch.setattr(cli, "_emit", lambda payload, output: payloads.append(payload))
    cli.main(argv)
    (payload,) = payloads
    assert dumped(payload) == oracles.report_dumps(payload)


@pytest.mark.parametrize("value", [object(), [1, 2j], {"a": b"bytes"}, RunConfig])
def test_unsupported_types_raise(value):
    with pytest.raises(TypeError):
        dumped(value)


def test_sets_are_written_sorted_under_any_hash_seed():
    code = (
        "import sys; from bridgeforest import serialize; "
        "serialize.dump({'set': {'pear', 'fig', 'apple', 'kiwi', 'plum'},"
        " 'frozenset': frozenset({'b', 'a', 'c'}), 'ints': {30, 1, 200}}, sys.stdout)"
    )
    outputs = {run_python(code, PYTHONHASHSEED=str(seed)) for seed in (0, 1, 2)}
    assert len(outputs) == 1
    doc = json.loads(outputs.pop())
    assert doc == {"set": ["apple", "fig", "kiwi", "pear", "plum"],
                   "frozenset": ["a", "b", "c"], "ints": [1, 30, 200]}


def test_numpy_is_loaded_only_by_the_optimizer():
    # since the optimizer's float evaluator left numpy, no command loads it
    code = """if True:
        import contextlib, io, sys
        from bridgeforest import cli

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    cli.main(list(argv))
                except SystemExit:
                    pass
            return 'numpy' in sys.modules

        def feasibility():
            from bridgeforest import optimizer as op, treekit as tk, weights as wt
            cat = tk.Catalog.standard(1, 2)
            z = wt.WeightVector.over(cat, {u.code: 0.1 for u in cat.u0})
            assert op.feasibility(z, op.OptimizerConfig(catalog=cat, k=6)).feasible
            return 'numpy' in sys.modules

        print(run('--version'), run('forests', '--count', '--n', '6', '--k', '2'),
              run('verify', '--suite', 'local-double-counting', '--n', '4'),
              feasibility(), run('optimize', '--u-max', '1', '--k', '4'))
    """
    assert run_python(code).split() == ["False", "False", "False", "False", "False"]
