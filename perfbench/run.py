#!/usr/bin/env python3
"""Builds and runs the InterWeave benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and leaves the result as the last line of stdout: one JSON object
with "correct", "attempted", "failed" and "metrics". Build output goes to
stderr. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones. Workloads, metrics and bounds are listed in BENCHMARK.json; which
end-to-end metric each per-layer metric should move is in metrics.json.

--smoke runs every workload briefly in both modes and checks that each
metric BENCHMARK.json names is printed with its unit and that every
correctness check passes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def git_sha():
    """HEAD of the checkout, read without running git ("unknown" outside one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"InterWeave sources not found under {ROOT / 'src'}")
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "iwbench",
                  "-j", str(max(1, min(4, os.cpu_count() or 1)))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out


def run_once(binary, out, workload, seed, seconds, trace):
    """Runs iwbench; returns (exit code, stdout lines)."""
    scratch = out / f"run-{os.getpid()}-{workload}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", str(scratch), "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in time")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode, proc.stdout.splitlines()


def smoke(binary, out):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    notes = json.loads((HERE / "metrics.json").read_text())
    problems = []
    for w in spec["workloads"]:
        if w["name"] not in notes["workloads"]:
            problems.append(f"metrics.json: no entry for workload {w['name']}")
    for m in spec["per_layer"]:
        if m["name"] not in notes["per_layer"]:
            problems.append(f"metrics.json: no entry for per-layer {m['name']}")
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines = run_once(binary, out, w["name"], 1, 2, trace)
            where = f"{w['name']} --trace {trace}"
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{where}: last line is not a JSON result")
                continue
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: correctness checks failed (exit {code})")
            got = result["metrics"]
            for m in wanted:
                if m["name"] not in got:
                    problems.append(f"{where}: {m['name']} missing")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit "
                                    f"{got[m['name']]['unit']} != {m['unit']}")
                elif trace == 0 and not got[m["name"]]["value"] > 0:
                    problems.append(f"{where}: {m['name']} is not positive")
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{where}: unlisted metrics {sorted(extra)}")
            print(f"smoke {where}: {'ok' if not problems else 'problems so far'}")
    for p in problems:
        print("FAIL " + p)
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        fail("--workload is required")

    out = build()
    binary = out / "iwbench"
    if args.smoke:
        return smoke(binary, out)
    code, lines = run_once(binary, out, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
