#!/usr/bin/env python3
"""Build and run the simulator benchmark (perfbench) from the repo root.

    python3 perfbench/run.py --workload contended-64 --seed 1 --seconds 20 --trace 0

The Go program is built from the checkout's sources into the build
directory ($CARGO_TARGET_DIR, else .bench_build). The Go build cache,
temporary files and toolchain telemetry are kept there too, so the run
reads and writes only inside the checkout. The program's standard output
is passed through; its last line is the JSON result. Arguments are passed
to the program unchanged (see `perfbench -h`).
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    work = os.path.join(build_dir, "perfbench")
    for d in ("gocache", "tmp", "config"):
        os.makedirs(os.path.join(work, d), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(work, "gocache"),
        "GOTMPDIR": os.path.join(work, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(work, "config"),
        "GOPATH": os.path.join(work, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
    })
    binary = os.path.join(work, "perfbench")
    # The benchmark is its own module; go.mod replaces the simulator's
    # module with the repo root, so the build needs the full checkout.
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--out", work] + sys.argv[1:]
    try:
        proc = subprocess.run(args, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
