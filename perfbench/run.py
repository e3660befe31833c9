#!/usr/bin/env python3
"""The historian benchmark.

Builds the benchmark (perfbench/, linked against the repository's src/) in
an optimized build under .bench_build/ and runs one workload:

    python3 perfbench/run.py --workload history --seed 1 --seconds 40 --trace 0

Workloads: `ingest` (closed-loop TD+LD load into a fresh instance, store
several times the buffer pool), `history` (WS2 query mix over a preloaded,
reorganized store several times the pool) and `live` (open-loop ingest on a
segmented primary served over loopback, plus a WAL-tailing read replica;
working set inside the pool). Every answer is checked against an oracle
computed from the seeded generators.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (the traced run also writes its spans to
.bench_build/perfbench/traces/). The process exits nonzero without that line
when the benchmark cannot be built, and with it when any operation failed.

    python3 perfbench/run.py --workload all  # each workload of BENCHMARK.json
    python3 perfbench/run.py --selftest      # the benchmark's own tests
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return out / target


def source_digest():
    """Hash of every file the benchmark is built from."""
    h = hashlib.sha1()
    for top in (ROOT / "src", BENCH):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["ingest", "history", "live", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        binary = build("perfbench_selftest" if args.selftest
                       else "odh_perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([str(binary)]).returncode

    traces = build_dir() / "traces"
    traces.mkdir(exist_ok=True)
    if args.workload != "all":
        return run_workload(binary, traces, args.workload, args)
    # One process per workload, so no workload's peak memory carries over.
    with open(ROOT / "BENCHMARK.json") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    codes = [run_workload(binary, traces, name, args) for name in names]
    return max(codes)


def run_workload(binary, traces, workload, args):
    cmd = [str(binary), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--trace-path", str(traces / f"{workload}-{args.seed}.jsonl"),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    try:
        return subprocess.run(cmd, cwd=str(ROOT),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
