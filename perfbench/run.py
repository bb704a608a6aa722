#!/usr/bin/env python3
"""Builds the fleet benchmark from source and runs it from the repository root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds `perfbench` (a Cargo package of its own, into
CARGO_TARGET_DIR, default `.bench_build`), runs one workload and passes its
report through; the last line of standard output is the JSON result.  It
exits non-zero, without a result, when the build or the run fails.

`--smoke` is the benchmark's own test: it runs the package's unit tests,
then every workload at a tiny fleet size, untraced and traced, twice at the
same seed, and asserts that every metric named in BENCHMARK.json (and every
workload-specific metric) is printed, that every check passes, that the
traced run ends byte-identical to the untraced one, and that the tick-domain
metrics and deterministic counters repeat exactly.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ("steady_drive", "mgmt_churn", "lossy_rollout")
# Printed beside the gated end-to-end metrics, for the workloads they apply to.
WORKLOAD_METRICS = {
    "steady_drive": ["failed_ops_ratio"],
    "mgmt_churn": ["ops_per_s", "op_settle_p50_rounds", "op_settle_p99_rounds",
                   "failed_ops_ratio"],
    "lossy_rollout": ["ops_per_s", "op_settle_p50_rounds", "op_settle_p99_rounds",
                      "rollout_rounds", "rollout_s", "exposed_before_abort",
                      "failed_ops_ratio"],
}
# Tick-domain and count metrics: exact at a fixed seed.
EXACT_WORKLOAD_METRICS = {"op_settle_p50_rounds", "op_settle_p99_rounds", "rollout_rounds",
                          "exposed_before_abort", "failed_ops_ratio"}
TIME_UNITS = {"s", "ms", "us", "%"}


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cargo(*args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    command = ["cargo", *args, "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def build():
    if not cargo("build"):
        sys.exit("perfbench: build failed")
    return os.path.join(target_dir(), "release", "perfbench")


def run(binary, args):
    """Runs the binary; returns (all output lines, parsed result) or exits."""
    try:
        done = subprocess.run([binary, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run timed out after {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        sys.exit(f"perfbench: run failed with exit code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        sys.exit("perfbench: the run printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"perfbench: malformed result keys {sorted(result)}")
    return lines, result


def printed_metrics(lines):
    """Metric name -> value, from the report's indented metric lines."""
    found = {}
    for line in lines:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            found[parts[0]] = float(parts[1])
    return found


def smoke():
    if not cargo("test"):
        sys.exit("smoke: unit tests failed")
    binary = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    gated = {m["name"] for m in spec["end_to_end"]}
    layered = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []

    def expect(ok, what):
        print(("ok      " if ok else "FAILED  ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        runs = {}
        for trace in ("0", "1"):
            for attempt in (1, 2):
                args = ["--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", trace, "--smoke"]
                runs[trace, attempt] = run(binary, args)
            lines, result = runs[trace, 1]
            tag = f"{workload} trace {trace}"
            expect(result["correct"] and result["failed"] == 0,
                   f"{tag}: every check passes")
            expect(result["attempted"] >= 1, f"{tag}: attempted at least one operation")
            wanted = gated if trace == "0" else set(layered)
            expect(set(result["metrics"]) == wanted, f"{tag}: JSON has every metric")
            printed = printed_metrics(lines)
            expect(wanted <= set(printed), f"{tag}: every metric is printed with its unit")
            if trace == "0":
                side = WORKLOAD_METRICS[workload]
                expect(set(side) <= set(printed), f"{tag}: workload metrics are printed")
                again = printed_metrics(runs[trace, 2][0])
                exact = [name for name in side if name in EXACT_WORKLOAD_METRICS]
                expect(all(printed[n] == again[n] for n in exact),
                       f"{tag}: tick-domain metrics repeat exactly")
            else:
                expect(any("snapshot_bytes identical, ledger identical, transport identical"
                           in line for line in lines),
                       f"{tag}: traced run ends byte-identical to the untraced run")
                again = runs[trace, 2][1]["metrics"]
                exact = [n for n, unit in layered.items() if unit not in TIME_UNITS]
                expect(all(result["metrics"][n] == again[n] for n in exact),
                       f"{tag}: deterministic counters repeat exactly")
    if failures:
        sys.exit(f"smoke: {len(failures)} failed")
    print("smoke: all passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        smoke()
        return
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    flags = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        flags += ["--spans-out", os.path.join(target_dir(), f"spans-{args.workload}.tsv")]
    lines, _ = run(binary, flags)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
