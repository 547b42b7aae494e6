#!/usr/bin/env python3
"""Build and run one workload of the DeWrite benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the `perfbench` package (a Cargo
package of its own, next to this file) in release mode from the checkout's
sources, into $CARGO_TARGET_DIR or perfbench/target. Runs the workload,
checks that the result line carries exactly the metrics BENCHMARK.json lists
for the mode, and prints it as the last line of stdout. Exits non-zero when
the build fails, a correctness check fails or the run overruns its time.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    return 1


def run_group(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None, None
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    code, _ = run_group(build, BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if code != 0:
        return fail("build failed" if code is not None else "build timed out")

    work = os.path.join(target, "perfbench-work")
    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", work]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code is None:
        return fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = out.decode().splitlines()
    if not lines:
        return fail(f"{args.workload} printed no result (exit {code})")
    result = json.loads(lines[-1])

    listed = spec["per_layer" if args.trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        return fail(f"result metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}")
    print(lines[-1], flush=True)
    if code != 0 or not result["correct"]:
        return fail(f"{args.workload} failed its checks (exit {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
