#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 10 --trace 0

Builds the benchmark package and the `server` binary (release, offline)
into $CARGO_TARGET_DIR (default `.bench_build`), then runs one workload.
The last line of stdout is the run's JSON result. Every process the run
starts is in one process group, which is killed and reaped before exit.
"""

import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "eh-srv", "--bin", "server"],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        if not os.path.isfile(os.path.join(ROOT, cmd[cmd.index("--manifest-path") + 1])):
            sys.exit(f"perfbench: {cmd[cmd.index('--manifest-path') + 1]} is missing")
        left = max(1.0, deadline - time.monotonic())
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=left)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def reap_group(pgid):
    """Kill what is left of the run's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    argv = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = target if os.path.isabs(target) else os.path.join(ROOT, target)
    try:
        build(target_dir)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: build timed out")
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench"), *argv,
           "--server", os.path.join(release, "server"),
           "--work", os.path.join(ROOT, ".bench_work")]
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        reap_group(child.pid)
        child.wait()
    if code is None:
        sys.exit("perfbench: run timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
