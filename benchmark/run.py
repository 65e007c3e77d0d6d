#!/usr/bin/env python3
"""End-to-end benchmark of the ESCA reproduction.

Run from the repository root:

    python3 benchmark/run.py --workload lidar_esca --seed 1 --seconds 20 --trace 0

Builds the esca_e2e program from source (Release, into .bench_build/, or
$CARGO_TARGET_DIR when set), runs one workload and prints, as the last line
of standard output, one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, taken from a
traced pass that also writes a Chrome trace. The line before it records the
run's provenance. Build output and progress go to standard error.

Exit status is 0 only when the program ran and every output check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics of layers a workload does not run: reported as 0.
NOT_EXERCISED = {
    "lidar_esca": ("stream.", "serve.", "loadgen.", "self.stream.", "self.serve."),
    "stream_paced": ("self.lidar.", "self.voxel.", "self.nn.", "self.core.", "self.sparse."),
    "stream_saturated": ("loadgen.", "self.lidar.", "self.voxel.", "self.nn.", "self.core.",
                         "self.sparse."),
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build esca_e2e; returns its path or None."""
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = ["cmake", "--build", str(build_dir), "--target", "esca_e2e", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    binary = build_dir / "esca_e2e"
    return binary if binary.exists() else None


def self_times(trace_path, frames):
    """Self time per span name, in ms per frame, from a Chrome trace."""
    events = json.loads(Path(trace_path).read_text())
    events = events["traceEvents"] if isinstance(events, dict) else events
    stacks = {}
    totals = {}
    for event in events:
        phase = event.get("ph")
        stack = stacks.setdefault(event.get("tid"), [])
        if phase == "B":
            stack.append([event["name"], float(event["ts"]), 0.0])
        elif phase == "E" and stack:
            name, start, children = stack.pop()
            duration = float(event["ts"]) - start
            totals[name] = totals.get(name, 0.0) + duration - children
            if stack:
                stack[-1][2] += duration
    # Chrome trace timestamps are microseconds.
    return {name: total / 1e3 / max(1, frames) for name, total in totals.items()}


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def check_repeatable(build_dir, binary, workload, seed, exact):
    """Compare this run's exact counts with earlier runs of the same binary
    and seed. Returns the names that differ."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    path = build_dir / "repeat" / f"{digest}-{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    seen = json.loads(path.read_text()) if path.exists() else {}
    differing = sorted(k for k in exact if k in seen and seen[k] != exact[k])
    seen.update({k: v for k, v in exact.items() if k not in seen})
    path.write_text(json.dumps(seen, sort_keys=True))
    return differing


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    if binary is None:
        log("run.py: build failed")
        return 1

    trace_file = build_dir / "traces" / f"{args.workload}-seed{args.seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--trace-file", str(trace_file)]
    started = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        log("run.py: esca_e2e timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        log(f"run.py: esca_e2e exited {proc.returncode} without a result")
        return 1
    result = json.loads(lines[-1])
    log(f"run.py: {args.workload} seed {args.seed} ran {time.monotonic() - started:.1f} s")

    metrics = result["metrics"]
    correct = bool(result["correct"]) and proc.returncode == 0
    if args.trace:
        # Self time: a span's duration minus the spans nested in it on the
        # same thread, per traced frame.
        for name, value in self_times(trace_file, result["traced_frames"]).items():
            metrics[f"self.{name}_ms"] = {"value": value, "unit": "ms"}

    differing = check_repeatable(build_dir, binary, args.workload, args.seed, result["exact"])
    if differing:
        log(f"run.py: NOT REPEATABLE: exact counts differ from an earlier run of seed "
            f"{args.seed}: {', '.join(differing)}")
        correct = False

    wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    out = {}
    for metric in wanted:
        name = metric["name"]
        if name in metrics:
            if metrics[name]["unit"] != metric["unit"]:
                log(f"run.py: {name} is in {metrics[name]['unit']}, BENCHMARK.json says "
                    f"{metric['unit']}")
                return 1
            out[name] = metrics[name]
        elif name.startswith(NOT_EXERCISED[args.workload]):
            out[name] = {"value": 0.0, "unit": metric["unit"]}
        else:
            log(f"run.py: metric {name} missing from the {args.workload} result")
            return 1

    provenance = dict(result["provenance"], git_commit=git_commit(root), trace=args.trace)
    (build_dir / "results").mkdir(exist_ok=True)
    record = dict(result, provenance=provenance, correct=correct, metrics=metrics)
    (build_dir / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    for name, metric in out.items():
        log(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
