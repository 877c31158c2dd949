"""Run every workload, untraced and traced, and print every metric.

    python3 perfbench/run_all.py [--seed 0] [--out perfbench/baselines/seed.json]

Run from the root of a checkout. Prints one line per workload and metric
(name, value, unit), plus each workload's error rate, and with --out
writes all of it, the machine details of every run and every sample, as
one JSON file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    results = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        entry = results[name] = {"why": workload["why"]}
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{name} --trace {trace}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads(Path(f".perfbench/{name}-{args.seed}-trace{trace}.json").read_text())
            entry[f"trace{trace}"] = {**result, **{k: record[k] for k in ("command", "machine", "samples", "setup_walls_s", "errors")}}
            print(f"{name}  error_rate  {result['failed'] / result['attempted']:.4g}  ({result['failed']}/{result['attempted']} runs, --trace {trace})")
            for metric, value in result["metrics"].items():
                print(f"{name}  {metric}  {value['value']:.6g}  {value['unit']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"seed": args.seed, "run_seconds": spec["run_seconds"], "workloads": results}, indent=1) + "\n")
    return 0 if all(r[f"trace{t}"]["correct"] for r in results.values() for t in (0, 1)) else 1


if __name__ == "__main__":
    sys.exit(main())
