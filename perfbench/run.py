#!/usr/bin/env python3
"""Builds the benchmark and the `euler-serve` server from source, then runs
one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs every workload of BENCHMARK.json in turn. Run from the
root of the repository. Build output goes to $CARGO_TARGET_DIR
(default `.bench_build`); inputs, circuit files and traces go to
`perfbench/work`. Cargo's output goes to stderr, so the last line of stdout
is the benchmark's JSON result. The exit code is the benchmark's.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(env, args):
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", *args],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        sys.exit(f"run.py: `cargo build {' '.join(args)}` failed")


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build(env, ["--manifest-path", os.path.join("perfbench", "Cargo.toml")])
    build(env, ["--package", "euler-circuit", "--bin", "euler-serve"])
    release = os.path.join(target, "release")
    args = sys.argv[1:]
    workloads = [None]
    if "--workload" in args and args[args.index("--workload") + 1 :][:1] == ["all"]:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for workload in workloads:
        run_args = list(args)
        if workload is not None:
            run_args[run_args.index("--workload") + 1] = workload
        command = [
            os.path.join(release, "perfbench"),
            *run_args,
            "--serve-bin",
            os.path.join(release, "euler-serve"),
            "--work-dir",
            os.path.join(ROOT, "perfbench", "work"),
        ]
        status = subprocess.run(command, cwd=ROOT, env=env).returncode or status
    sys.exit(status)


if __name__ == "__main__":
    main()
