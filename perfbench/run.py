#!/usr/bin/env python3
"""The repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the library and the benchmark from source into .bench_build/perfbench,
runs the benchmark's self-tests, runs one workload and prints every metric by
name, value and unit, then one JSON line {correct, attempted, failed, metrics}.
--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones and writes the run's spans to
.bench_build/perfbench/spans-<workload>-<seed>.json. Without --workload it runs
every workload untraced and traced.
Exits non-zero on a build failure, a failed self-test or a correctness failure.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["live_paced", "live_closed", "sim_unanimous", "sim_faulty"]
# Layers a workload does not run report 0 for their per-layer metrics.
BYPASSED = {
    "live_paced": ("sim.",),
    "live_closed": ("sim.",),
    "sim_unanimous": ("loadgen.", "smr.frontend.", "transport."),
    "sim_faulty": ("loadgen.", "smr.frontend.", "transport."),
}
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(env):
    BUILD.mkdir(parents=True, exist_ok=True)
    configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (BUILD / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                 "perfbench", "perfbench_selftest"]):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed")
            return False
    return True


def run_one(workload, seed, seconds, trace, catalogue, env):
    """Runs one workload; returns (result dict or None, exit code)."""
    cmd = [str(BUILD / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--spans", str(BUILD / f"spans-{workload}-{seed}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
        return None, 1
    lines = done.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload} printed no result (exit {done.returncode})")
        return None, done.returncode or 1
    got = raw["metrics"]
    metrics = {}
    for m in catalogue["per_layer" if trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                log(f"{name}: unit {got[name]['unit']} is not {unit}")
                return None, 1
            metrics[name] = got[name]
        elif name.startswith(BYPASSED[workload]):
            metrics[name] = {"value": 0.0, "unit": unit}
        else:
            log(f"{workload} did not report {name}")
            return None, 1
    result = {"correct": bool(raw["correct"]), "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return result, 0 if result["correct"] and done.returncode == 0 else 1


def show(workload, trace, result):
    print(f"== {workload} ({'traced' if trace else 'untraced'}) correct="
          f"{result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    seconds = args.seconds or catalogue["run_seconds"]
    env = dict(os.environ)
    env["TMPDIR"] = str(ROOT / ".bench_build" / "tmp")
    Path(env["TMPDIR"]).mkdir(parents=True, exist_ok=True)
    if not build(env):
        return 1
    selftest = subprocess.run([str(BUILD / "perfbench_selftest"),
                               "--gtest_brief=1"], cwd=ROOT, env=env,
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        log("self-tests failed")
        return 1

    if args.workload:
        result, code = run_one(args.workload, args.seed, seconds,
                               bool(args.trace), catalogue, env)
        if result is None:
            return code
        show(args.workload, bool(args.trace), result)
        print(json.dumps(result), flush=True)
        return code

    status = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            result, code = run_one(workload, args.seed, seconds, trace,
                                   catalogue, env)
            status = status or code
            if result is not None:
                show(workload, trace, result)
    return status


if __name__ == "__main__":
    sys.exit(main())
