"""Tests of the benchmark's own machinery: span arithmetic, output checks
and the tracer's patching. Run with PYTHONPATH=src from the repo root."""

from __future__ import annotations

import copy
import importlib
import inspect
import json

import pytest

import run
import tracer
from workloads import REFERENCE_DIR, WORKLOADS, SampleWorkload

# cli.main [0,10] -> weights.a [1,6] -> treekit.b [2,4]
#                                    -> weights.c [4.5,5.5]
#                 -> forestlab.d [7,9]
SPANS = [
    ("cli.main", 0.0, 10.0, -1),
    ("weights.a", 1.0, 6.0, 0),
    ("treekit.b", 2.0, 4.0, 1),
    ("weights.c", 4.5, 5.5, 1),
    ("forestlab.d", 7.0, 9.0, 0),
]


def test_self_time_subtracts_child_spans_in_other_layers():
    own = tracer.self_times(SPANS)
    assert own == {
        "treekit": 2.0,
        "weights": 3.0,  # 5 - 2 (treekit child); the same-layer child stays
        "optimizer": 0.0,
        "forestlab": 2.0,
        "serialize": 0.0,
        "cli": 3.0,  # 10 - 5 - 2
    }
    assert sum(own.values()) == 10.0


def test_stage_time_is_inherited_by_callees():
    stages = tracer.stage_times(SPANS, {"weights.a": "series", "forestlab.d": "draw"})
    assert stages == {"series": {"weights": 3.0, "treekit": 2.0}, "draw": {"forestlab": 2.0}}


def test_percentile_nearest_rank():
    assert tracer.percentile([], 50) == 0.0
    assert tracer.percentile([3, 1, 2], 50) == 2
    assert tracer.percentile(list(range(1, 101)), 99) == 99


def _good_verify_output(seed):
    doc = json.loads((REFERENCE_DIR / "verify-n7.json").read_text())
    doc["config"]["options"]["seed"] = seed
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text.replace('"checks": 204', '"checks": 205'),
        lambda text: text.replace('"ok": true', '"ok": false'),
        lambda text: text[: len(text) // 2],
        lambda text: text.replace("\n", "\n ", 1),  # same JSON, other bytes
    ],
)
def test_corrupted_output_counts_as_failure(tmp_path, corrupt):
    path = tmp_path / "out.json"
    loop = run.Loop(WORKLOADS["verify-n7"], seed=5)
    path.write_text(corrupt(_good_verify_output(5)))
    assert not loop.record(path, 0)
    # a second bad output is checked again, not skipped
    assert not loop.record(path, 0)
    assert (loop.attempted, loop.failed) == (2, 2)


def test_good_output_passes_and_later_outputs_must_match(tmp_path):
    path = tmp_path / "out.json"
    loop = run.Loop(WORKLOADS["verify-n7"], seed=5)
    path.write_text(_good_verify_output(5))
    assert loop.record(path, 0)
    assert not loop.record(path, 1)  # wrong exit code, same bytes
    assert loop.record(path, 0)
    path.write_text(_good_verify_output(5).replace("204", "205"))
    assert not loop.record(path, 0)
    assert not loop.record(tmp_path / "out.json", None)  # timed out
    assert (loop.attempted, loop.failed) == (5, 3)


def _sample_doc(seed, connected):
    n = SampleWorkload.N
    path = [[v, v + 1] for v in range(1, n)]
    samples = [path] * connected + [path[1:]] * (SampleWorkload.SAMPLES - connected)
    return {"config": {}, "n": n, "seed": seed, "samples": samples}


def test_sample_check_rejects_cycles_and_wrong_connectivity():
    w = WORKLOADS["sample-n300"]
    p = w.prepare(0)
    assert abs(float(p) - 0.605) < 0.01

    def check(doc):
        w.check((json.dumps(doc, sort_keys=True, indent=2) + "\n").encode(), 0, 7, p)

    check(_sample_doc(7, 242))
    bad = _sample_doc(7, 242)
    bad["samples"][0] = bad["samples"][0] + [[1, 300]]
    with pytest.raises(AssertionError):
        check(bad)
    with pytest.raises(AssertionError):
        check(_sample_doc(7, 180))
    with pytest.raises(AssertionError):
        check(_sample_doc(8, 242))  # seed not echoed


def test_dissymmetry_check_tolerates_float_noise_only():
    w = WORKLOADS["dissymmetry-k11"]
    ref = w.prepare(0)
    doc = copy.deepcopy(ref)
    svc = doc["report"]["single_variable_check"]

    def check(d):
        w.check((json.dumps(d, sort_keys=True, indent=2) + "\n").encode(), 0, 0, ref)

    svc["rooted"] *= 1 + 1e-12
    check(doc)
    svc["rooted"] *= 1 + 1e-6
    with pytest.raises(AssertionError):
        check(doc)
    doc = copy.deepcopy(ref)
    doc["report"]["samples"] = 9
    with pytest.raises(AssertionError):
        check(doc)


def _snapshot():
    owners = []
    for layer in tracer.LAYERS:
        mod = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        owners.append(mod)
        owners.extend(c for c in vars(mod).values() if inspect.isclass(c))
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_wrappers_restore_the_originals():
    from bridgeforest import treekit, weights

    before = _snapshot()
    original = treekit.enumerate_unrooted
    tr = tracer.Tracer("test")
    with tr:
        assert treekit.enumerate_unrooted is not original
        assert vars(treekit.Catalog)["standard"] is not before[id(treekit.Catalog)][1]["standard"]
        cat = treekit.Catalog.standard(1, 3)
        z = weights.WeightVector.over(cat, {u.code: 0.5 for u in cat.u0})
        weights.MaxWeightTable(cat, z).value(treekit.enumerate_unrooted(6)[-1].code)
    after = _snapshot()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        assert now.keys() == attrs.keys(), owner
        for name, value in attrs.items():
            assert now[name] is value, f"{owner}.{name} not restored"
    names = [name for name, *_ in tr.spans()]
    # the value() recursion records its outermost call only
    assert names.count("weights.MaxWeightTable.value") == 1
    assert "treekit.enumerate_unrooted" in names and "treekit.Catalog.standard" in names
    for index, (_, start, end, parent) in enumerate(tr.spans()):
        assert start <= end and parent < index
