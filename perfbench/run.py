#!/usr/bin/env python3
"""lightpath-sim benchmark: build, run one workload, check it, print one JSON line.

Usage, from the root of a lightpath-sim checkout:

    python3 perfbench/run.py --workload serve_open_loop|train_recovery|cluster_pod \\
        --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles src/) into .bench_build/perfbench, then:

  --trace 0  spawns the workload SETUP_SPAWNS times in fresh processes that
             only build the params and construct the driver (setup_s is the
             median spawn-to-ready time), then runs trials for S seconds in
             SLICES fresh processes, slice k taking trials k, k+SLICES, ...
             Prints wall_s, setup_s, work_per_s and peak_rss_mb.
  --trace 1  runs the traced layer-probe pass (see perfbench/NOTES.md) and
             prints every per_layer metric named in BENCHMARK.json.

Every trial is checked: its accounting identities, its digest against
perfbench/reference_digests.json when the seed is pinned there, and trial 0
replayed in slice 0's process.  A failed check counts as a failed operation.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--print-pins` instead prints a fresh reference_digests.json body for the
pinned seeds (after a deliberate behaviour change only).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
PINS_FILE = os.path.join(HERE, "reference_digests.json")

WORKLOADS = ("serve_open_loop", "train_recovery", "cluster_pod")
# Default seed and held-out seed whose first PINNED_TRIALS digests are pinned.
PINNED_SEEDS = (1, 7919)
PINNED_TRIALS = 8
SETUP_SPAWNS = 9
# A process's speed varies with where it lands on the shared host (identical
# serving trials differ by ~10% between processes), so a run spreads its
# trials over several processes instead of one.
SLICES = 10
# Allowance on top of --seconds for the last trial, the replay and start-up.
CHILD_SLACK_S = 120
TRACE_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources (src/CMakeLists.txt) next to perfbench/")
    if not shutil.which("cmake"):
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", BUILD_DIR, "-j", jobs])


def step(cmd):
    # Build chatter goes to stderr: stdout's last line is the result.
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail(f"build step failed: {' '.join(cmd)}")


def child(args, timeout):
    try:
        proc = subprocess.run([BINARY, *args], capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"perfbench {' '.join(args)} timed out after {timeout} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"perfbench {' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"perfbench {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def load_pins(workload, seed):
    with open(PINS_FILE) as f:
        return json.load(f).get(workload, {}).get(str(seed), [])


def declared_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def report(correct, attempted, failed, values, kind):
    metrics = {}
    for name, unit in declared_metrics(kind):
        if name not in values:
            fail(f"metric {name} was not measured")
        value, got_unit = values[name]
        if got_unit != unit:
            fail(f"metric {name} measured in {got_unit}, declared in {unit}")
        metrics[name] = {"value": value, "unit": unit}
    extra = sorted(set(values) - set(metrics))
    if extra:
        fail(f"measured metrics missing from BENCHMARK.json: {', '.join(extra)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def measure(workload, seed, seconds):
    common = ["--workload", workload, "--seed", str(seed)]
    spawn_to_ready = []
    for _ in range(SETUP_SPAWNS):
        spawned = time.monotonic_ns()  # CLOCK_MONOTONIC, as the child's steady_clock
        out = child([*common, "--setup-only", "1", "--spawn-ns", str(spawned)], 60)
        spawn_to_ready.append(out["spawn_to_ready_s"])

    trials, rss, replays = [], [], []
    for k in range(SLICES):
        out = child([*common, "--seconds", str(seconds / SLICES), "--trace", "0",
                     "--slice", str(k), "--slices", str(SLICES)],
                    seconds + CHILD_SLACK_S)
        trials += out["trials"]
        rss.append(out["peak_rss_mb"])
        if "replay_digest" in out:
            replays.append(out["replay_digest"])
    by_index = {int(t["trial"]): t for t in trials}
    pins = load_pins(workload, seed)
    problems = []
    failed = 0
    for i, t in sorted(by_index.items()):
        bad = list(t["violations"])
        if i < len(pins) and t["digest"] != pins[i]:
            bad.append(f"trial {i} digest {t['digest']} != pinned {pins[i]}")
        failed += bool(bad)
        problems += bad
    for r in replays:
        if r != by_index[0]["digest"]:
            failed += 1
            problems.append(f"trial 0 replay digest {r} != {by_index[0]['digest']}")
    for p in problems[:20]:
        print(f"perfbench: {workload} seed {seed}: {p}", file=sys.stderr)

    wall = [t["wall_s"] for t in trials]
    values = {
        "wall_s": (sum(wall) / len(wall), "s"),
        "setup_s": (statistics.median(spawn_to_ready), "s"),
        "work_per_s": (sum(t["work"] for t in trials) / sum(wall), "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    print(f"perfbench: {workload} seed {seed}: {len(trials)} trials, "
          f"wall_s {values['wall_s'][0]:.4f}", file=sys.stderr)
    # Operations: every trial, plus the replay of trial 0.
    report(failed == 0, len(trials) + len(replays), failed, values, "end_to_end")


def trace(workload, seed):
    trace_file = os.path.join(BUILD_DIR, f"trace-{workload}-{seed}.json")
    out = child(["--workload", workload, "--seed", str(seed), "--trace", "1",
                 "--trace-out", trace_file], TRACE_TIMEOUT_S)
    problems = list(out["violations"])
    failed = int(out["failed"])
    for w, digest in out["digests"].items():
        pins = load_pins(w, seed)
        if pins and digest != pins[0]:
            failed += 1
            problems.append(f"traced {w} trial 0 digest {digest} != pinned {pins[0]}")
    for p in problems[:20]:
        print(f"perfbench: trace {workload} seed {seed}: {p}", file=sys.stderr)
    print(f"perfbench: trace written to {trace_file}", file=sys.stderr)
    values = {name: (m["value"], m["unit"]) for name, m in out["metrics"].items()}
    report(failed == 0, int(out["attempted"]), failed, values, "per_layer")


def print_pins():
    pins = {}
    for workload in WORKLOADS:
        pins[workload] = {}
        for seed in PINNED_SEEDS:
            # 12 s reaches PINNED_TRIALS trials on every workload.
            out = child(["--workload", workload, "--seed", str(seed), "--seconds", "12",
                         "--trace", "0"], 12 + CHILD_SLACK_S)
            if len(out["trials"]) < PINNED_TRIALS:
                fail(f"{workload}: only {len(out['trials'])} trials in 12 s")
            pins[workload][str(seed)] = [t["digest"] for t in out["trials"][:PINNED_TRIALS]]
    print(json.dumps(pins, indent=2))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PINNED_SEEDS[0])
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-pins", action="store_true")
    args = parser.parse_args()
    if not args.print_pins and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    build()
    if args.print_pins:
        print_pins()
    elif args.trace:
        trace(args.workload, args.seed)
    else:
        measure(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
