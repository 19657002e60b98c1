#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The Rust package in this directory is built
in release mode with `cargo --offline` into `$CARGO_TARGET_DIR` (default
`.bench_build`); a traced run (`--trace 1`) uses a build with the
workspace's `telemetry` feature.  Build output goes to stderr; the last
line of stdout is the benchmark's JSON result.  Exits non-zero, without a
result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ("forest-hubs", "engine-churn", "serve-read-write")
RUN_TIMEOUT_S = 170


def parse(argv):
    opts = {"--workload": None, "--seed": None, "--seconds": "10", "--trace": "0"}
    if len(argv) % 2:
        raise ValueError("flags come in --name value pairs")
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag not in opts:
            raise ValueError(f"unknown flag {flag}")
        opts[flag] = value
    if opts["--workload"] not in WORKLOADS:
        raise ValueError(f"--workload must be one of {', '.join(WORKLOADS)}")
    if opts["--seed"] is None or not opts["--seed"].isdigit():
        raise ValueError("--seed must be a non-negative integer")
    if opts["--trace"] not in ("0", "1"):
        raise ValueError("--trace must be 0 or 1")
    float(opts["--seconds"])
    return opts


def build(traced):
    env = dict(os.environ)
    # The two variants get their own target directories, so neither
    # rebuilds or relinks the other.
    base = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    target = os.path.join(base, "traced" if traced else "plain")
    env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if traced:
        cmd += ["--features", "telemetry"]
    subprocess.run(cmd, env=env, check=True, stdout=sys.stderr)
    return os.path.join(target, "release", "perfbench")


def main():
    try:
        opts = parse(sys.argv[1:])
    except ValueError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    traced = opts["--trace"] == "1"
    try:
        binary = build(traced)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    args = [binary]
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        args += [flag, opts[flag]]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("run.py: the benchmark timed out", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: the benchmark exited with {proc.returncode}", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
