"""One traced CLI run, in-process through `bridgeforest.cli.main(argv)`.

    PYTHONPATH=src python3 perfbench/traced_run.py --metrics M.json --spans S.json \\
        --run-id ID -- optimize --u-max 3 --k 11 --budget 1000 --seed 0

The report goes to stdout as in an untraced run. After the run, the
per-layer metrics are written to --metrics and every span to --spans.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, durations, percentile, self_times, stage_times  # noqa: E402

# A span with one of these names starts a stage; its callees inherit it.
STAGES = {
    "weights.TruncatedSeriesEvaluator.__init__": "evaluator_build",
    "weights.TruncatedSeriesEvaluator.evaluate": "evaluate",
    **dict.fromkeys(
        (
            "weights.rooted_series",
            "weights.rooted_series_term",
            "weights.rooted_series_family",
            "weights.unrooted_series",
            "weights.series_report",
            "weights.verify_dissymmetry_trunc",
            "weights.verify_supermultiplicativity",
        ),
        "series",
    ),
    **dict.fromkeys(
        (
            "forestlab.all_forests",
            "forestlab.enumerate_forests",
            "forestlab.random_closure",
            "forestlab.bridge_addable_closure",
            "forestlab.load_class",
        ),
        "class_build",
    ),
    "forestlab.is_bridge_addable": "bridge_addable",
    "forestlab.class_histogram": "histogram",
    "forestlab.ForestClass.histogram": "histogram",
    **dict.fromkeys(
        (
            "forestlab.verify_local_double_counting",
            "forestlab.verify_weight_sum_bound",
            "forestlab.verify_simple_counting",
            "forestlab.boxing_search",
        ),
        "box_checks",
    ),
    **dict.fromkeys(
        ("forestlab.forest_total", "forestlab.forest_count", "forestlab.ForestCountTable.__init__"),
        "count_table",
    ),
    "serialize.dumps": "dumps",
}


def _local_report(tracer, args, report):
    tracer.count("forestlab.boxes_checked", report.boxes_checked)
    tracer.count("forestlab.checks", report.checks)


def _maximize(tracer, args, result):
    tracer.count("optimizer.evaluations", result.evaluations)
    tracer.count("optimizer.restarts_used", result.restarts_used)


PROBES = {
    "weights.TruncatedSeriesEvaluator.__init__": lambda t, args, _: t.count(
        "weights.move_rows", sum(len(rows) for rows, _, _ in args[0].passes)
    ),
    "forestlab.ForestClass.__init__": lambda t, args, _: t.count("forestlab.forests", len(args[0])),
    "forestlab.verify_local_double_counting": _local_report,
    "optimizer.maximize": _maximize,
    "serialize.dumps": lambda t, _, text: t.count("serialize.bytes", len(text.encode())),
}

COUNTS = (
    "weights.move_rows",
    "optimizer.evaluations",
    "optimizer.restarts_used",
    "forestlab.forests",
    "forestlab.boxes_checked",
    "forestlab.checks",
    "serialize.bytes",
)


def layer_metrics(tracer) -> dict:
    spans = tracer.spans()
    own = self_times(spans)
    stages = stage_times(spans, STAGES)

    def stage(name, layer=None):
        by_layer = stages.get(name, {})
        return by_layer.get(layer, 0.0) if layer else sum(by_layer.values())

    evaluate_us = [d * 1e6 for d in durations(spans, "weights.TruncatedSeriesEvaluator.evaluate")]
    draw_us = [d * 1e6 for d in durations(spans, "forestlab.sample_forest")]
    out = {f"{layer}.self_s": own[layer] for layer in own}
    out.update({key: tracer.counts.get(key, 0) for key in COUNTS})
    out.update({
        "treekit.calls": sum(1 for name, *_ in spans if name.startswith("treekit.")),
        "weights.evaluator_build_s": stage("evaluator_build"),
        "weights.evaluate_s": stage("evaluate"),
        "weights.evaluate_calls": len(evaluate_us),
        "weights.evaluate_us.p50": percentile(evaluate_us, 50),
        "weights.evaluate_us.p99": percentile(evaluate_us, 99),
        "weights.series_s": stage("series", "weights"),
        "forestlab.class_build_s": stage("class_build"),
        "forestlab.bridge_addable_s": stage("bridge_addable"),
        "forestlab.histogram_s": stage("histogram"),
        "forestlab.box_checks_s": stage("box_checks"),
        "forestlab.count_table_s": stage("count_table"),
        "forestlab.draws": len(draw_us),
        "forestlab.draw_us.p50": percentile(draw_us, 50),
        "forestlab.draw_us.p99": percentile(draw_us, 99),
        "forestlab.rss_growth_mb": tracer.rss_growth_kb["forestlab"] / 1024,
        "serialize.dumps_s": stage("dumps"),
        "serialize.rss_growth_mb": tracer.rss_growth_kb["serialize"] / 1024,
        "trace.spans": len(spans),
    })
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--metrics", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    with Tracer(args.run_id, PROBES) as tracer:
        from bridgeforest import cli

        rc = cli.main(cli_args)
    sys.stdout.flush()
    Path(args.metrics).write_text(json.dumps(layer_metrics(tracer), indent=1))
    tracer.dump(args.spans)
    return rc


if __name__ == "__main__":
    sys.exit(main())
