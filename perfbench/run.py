"""Benchmark driver: cold `python -m bridgeforest.cli` runs in a closed loop.

    python3 perfbench/run.py --workload optimize-k11 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. One client: each cold CLI process starts
only after the previous one has exited. The loop repeats the workload's
command (with `--seed <seed>`) for about `--seconds` seconds, at least
MIN_RUNS times, checks every output and reports medians.

--trace 0 prints the end-to-end metrics; --trace 1 also makes one traced
run (perfbench/traced_run.py) and prints the per-layer metrics. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Machine details and every sample go to stderr and to .perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_RUNS = 3
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150
OUT_DIR = Path(".perfbench")


def child_env():
    return dict(os.environ, PYTHONPATH="src")


def run_cold(argv, stdout_path):
    """Run one child process; return (returncode, wall_s, cpu_s, peak_rss_mb).

    wait4 reaps the child and gives the rusage of that child alone. A child
    still running after CHILD_TIMEOUT_S is killed and reported with
    returncode None."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if wall >= CHILD_TIMEOUT_S:
        return None, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


def cli_argv(args):
    return [sys.executable, "-m", "bridgeforest.cli", *args]


def machine_info():
    """nproc, versions, and a fixed pure-Python loop that shows machine
    drift between runs. The probe is recorded, never used to scale."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i
    probe = time.perf_counter() - t0
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
        "probe_loop_2m_s": probe,
    }


class Loop:
    """Attempted/failed bookkeeping shared by every run of one benchmark."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first = None  # (sha256, exit code) of the first checked output

    def record(self, stdout_path: Path, returncode):
        """Check one output. A timeout, a failed check, or an output that
        differs from the first one of this seed counts as a failure.

        The first output is checked in a separate process, so that this
        process stays small: a child's ru_maxrss starts from the RSS of
        the process that forked it."""
        self.attempted += 1
        with open(stdout_path, "rb") as fh:
            key = (hashlib.file_digest(fh, "sha256").hexdigest(), returncode)
        if returncode is None:
            error = "timed out"
        elif self.first is None:
            error = check_in_child(self.workload.name, self.seed, stdout_path, returncode)
            if error is None:
                self.first = key
        elif key != self.first:
            error = "output or exit code differs from the first run with this seed"
        else:
            error = None
        if error is not None:
            self.failed += 1
            self.errors.append(error)
        return error is None


def check_in_child(name, seed, stdout_path, returncode):
    """None if the output passes the workload's check, else the reason."""
    argv = [sys.executable, str(HERE / "workloads.py"), name, str(seed), str(returncode), str(stdout_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode == 0:
        return None
    lines = proc.stderr.strip().splitlines()
    return lines[-1] if lines else f"check exited with {proc.returncode}"


def measure_setup():
    """Median cold wall time of `bridgeforest --version` over SETUP_RUNS."""
    walls = []
    path = OUT_DIR / "version.out"
    for _ in range(SETUP_RUNS):
        rc, wall, _, _ = run_cold(cli_argv(["--version"]), path)
        if rc != 0 or not path.read_bytes().strip():
            raise RuntimeError("`bridgeforest --version` failed")
        walls.append(wall)
    return statistics.median(walls), walls


def measure(loop, seconds):
    argv = cli_argv(loop.workload.argv(loop.seed))
    path = OUT_DIR / f"{loop.workload.name}.out"
    samples = []
    t0 = time.perf_counter()
    while True:
        rc, wall, cpu, rss = run_cold(argv, path)
        loop.record(path, rc)
        samples.append({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss})
        elapsed = time.perf_counter() - t0
        median_wall = statistics.median(s["wall_s"] for s in samples)
        if len(samples) >= MIN_RUNS and elapsed + median_wall > seconds:
            return samples


def traced(loop, untraced_wall):
    """One traced cold run; per-layer metrics plus the tracing overhead."""
    out = OUT_DIR / f"{loop.workload.name}.traced.out"
    metrics_path = OUT_DIR / f"{loop.workload.name}.layers.json"
    spans_path = OUT_DIR / f"{loop.workload.name}.spans.json"
    argv = [
        sys.executable, str(HERE / "traced_run.py"),
        "--metrics", str(metrics_path), "--spans", str(spans_path),
        "--run-id", f"{loop.workload.name}-{loop.seed}",
        "--", *loop.workload.argv(loop.seed),
    ]
    metrics_path.unlink(missing_ok=True)
    rc, wall, _, _ = run_cold(argv, out)
    loop.record(out, rc)
    layers = json.loads(metrics_path.read_text())
    layers["trace.overhead_s"] = wall - untraced_wall
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/bridgeforest/cli.py").is_file():
        print("error: run from the root of a bridgeforest checkout (src/bridgeforest missing)", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    machine = machine_info()
    setup_s, setup_walls = measure_setup()
    loop = Loop(WORKLOADS[args.workload], args.seed)
    samples = measure(loop, args.seconds)
    median = {k: statistics.median(s[k] for s in samples) for k in samples[0]}

    if args.trace:
        values = traced(loop, median["wall_s"])
        wanted = spec["per_layer"]
    else:
        values = {**median, "setup_s": setup_s}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "command": loop.workload.argv(args.seed),
        "machine": machine,
        "setup_walls_s": setup_walls,
        "samples": samples,
        "error_rate": loop.failed / loop.attempted,
        "errors": loop.errors,
        "metrics": metrics,
    }
    (OUT_DIR / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({k: record[k] for k in ("workload", "machine", "error_rate", "errors")}), file=sys.stderr)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
