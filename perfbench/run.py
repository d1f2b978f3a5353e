#!/usr/bin/env python3
"""Build and run the layered host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload spot_replay --seed 1 --seconds 10 --trace 0

The benchmark is a Rust package of its own (perfbench/Cargo.toml). This
script builds it in release mode into $CARGO_TARGET_DIR (default
.bench_build), runs it, and passes its report through. The last line of
standard output is the run's JSON result; it is printed only when the
run's metric names match BENCHMARK.json. Any build failure, crash,
timeout, failed output check or malformed result exits nonzero without
printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_revision():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds from."""
    try:
        # The ceiling stops git from reporting an enclosing repository's
        # commit when the checkout itself is not one.
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths.extend(os.path.join(d, f) for f in sorted(files))
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, or None when the
    file is not there to compare against."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON ({e}): {line!r}")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(res)}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail("result attempted no operations")
    want = expected_metrics(trace)
    if want is not None and set(res["metrics"]) != want:
        fail(
            "metrics differ from BENCHMARK.json: "
            f"missing {sorted(want - set(res['metrics']))}, "
            f"extra {sorted(set(res['metrics']) - want)}"
        )
    if res["correct"] is not True or res["failed"] != 0:
        fail(f"{res['failed']} of {res['attempted']} operations failed their checks")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(os.path.join(ROOT, target))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            [
                "cargo",
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                os.path.join(HERE, "Cargo.toml"),
            ],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if build.returncode != 0:
        fail(f"build failed with code {build.returncode}")

    exe = os.path.join(target, "release", "varuna-perfbench")
    env["PERFBENCH_COMMIT"] = source_revision()
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--spans-dir", os.path.join(target, "perfbench-spans"),
    ]
    try:
        run = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if run.returncode != 0:
        fail(f"benchmark exited with code {run.returncode}")
    check_result(lines[-1], args.trace == "1")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
