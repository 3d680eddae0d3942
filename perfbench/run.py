#!/usr/bin/env python3
"""Runs one benchmark workload against a release build made from source.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload campaign-cold|serve-distinct|serve-shared \\
        --seed N --seconds S --trace 0|1

Builds the benchmark binary (this directory's Cargo package) and the
`sdd-server` binary into $CARGO_TARGET_DIR (default `.bench_build`), then
runs it. Its last line of standard output is the result
JSON; build output goes to standard error. The exit code is the binary's:
0 when every output check passed, 1 when one failed, anything else when
nothing could be measured (no result is printed then).
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# The binary bounds its own work; this is the backstop for a hang.
RUN_TIMEOUT_S = 175


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "-p", "sdd-perfbench", "-p", "sdd-server",
    ]
    if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "sdd-perfbench"), *sys.argv[1:],
        "--server-bin", os.path.join(release, "sdd-server"),
        "--out-dir", os.path.join(target, "perfbench"),
    ]
    # Own process group, so a hung run takes its server down with it.
    bench = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
