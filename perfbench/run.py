#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: exec_kv, exec_tpcc, cluster_smallbank, cluster_failover (see
perfbench/METRICS.md), or `all` to run the four in turn. The first run
configures and builds perfbench/CMakeLists.txt in Release mode into
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild
incrementally. The measuring program's output is passed through; each
workload's output ends with one JSON object with the keys correct,
attempted, failed and metrics; in the traced run (--trace 1) this script
adds the per-layer metrics of BENCHMARK.json that the workload bypasses, as
0. The traced run also writes a Chrome/Perfetto span file under
.bench_out/.

Exits non-zero when the build fails, a correctness check fails, or the
result line is malformed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exec_kv", "exec_tpcc", "cluster_smallbank", "cluster_failover")
# Inputs of the measured program, hashed into the environment stamp so a
# result can be matched to its source when no git metadata is present.
DIGEST_INPUTS = ("CMakeLists.txt", "cmake", "src", "perfbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "tb_perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    binary = build_dir / "tb_perfbench"
    return binary if binary.exists() else None


def source_digest():
    h = hashlib.sha256()
    for top in DIGEST_INPUTS:
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def expected_units(trace):
    """Name -> unit of every metric BENCHMARK.json lists for the run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def complete_result(line, trace):
    """Returns (result line, problem). A traced result gains the per-layer
    metrics the workload bypasses, as 0; every metric must be listed in
    BENCHMARK.json with the unit the program reports, and an untraced
    result must carry all of them."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return line, "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return line, "result keys are %s" % sorted(result)
    if not result["correct"]:
        return line, None  # The program already reported why.
    units = expected_units(trace)
    metrics = result["metrics"]
    extra = sorted(set(metrics) - set(units))
    if extra:
        return line, "metrics missing from BENCHMARK.json: %s" % extra
    wrong = sorted(n for n, m in metrics.items() if m["unit"] != units[n])
    if wrong:
        return line, "units differ from BENCHMARK.json: %s" % wrong
    missing = sorted(set(units) - set(metrics))
    if missing and not trace:
        return line, "end-to-end metrics not measured: %s" % missing
    for name in missing:
        metrics[name] = {"value": 0, "unit": units[name]}
    return json.dumps(result), None


def run_workload(binary, workload, args, out_dir):
    """Runs one workload and passes its output through; returns the exit
    code (non-zero when a check failed or the result line is malformed)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", str(out_dir), "--git-commit", git_commit(),
           "--source-digest", source_digest()]
    # Set-up and the last repetition may run past --seconds; a run taking
    # twice as long plus a minute is stuck.
    timeout_s = 2 * args.seconds + 60
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log("perfbench: %s run exceeded %g s" % (workload, timeout_s))
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        log("perfbench: %s exited with %d" % (workload, proc.returncode))
        return proc.returncode
    lines[-1], problem = complete_result(lines[-1], args.trace == "1")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    if problem is not None:
        log("perfbench: %s: %s" % (workload, problem))
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (ROOT / "src").is_dir():
        log("perfbench: no program sources next to perfbench/ (src/ missing)")
        return 1
    if not (ROOT / "BENCHMARK.json").is_file():
        log("perfbench: BENCHMARK.json missing from the repository root")
        return 1
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)
    if binary is None:
        return 1
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_workload(binary, w, args, out_dir) for w in workloads]
    return next((c for c in codes if c != 0), 0)


if __name__ == "__main__":
    sys.exit(main())
