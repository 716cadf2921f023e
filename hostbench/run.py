#!/usr/bin/env python3
"""Build and run the Uni-STC host-time benchmark (see README.md).

    python3 hostbench/run.py --workload tab08_sweep --seed 1 \
        --seconds 15 --trace 0
    python3 hostbench/run.py              # every workload, untraced
    python3 hostbench/run.py --self-test  # the benchmark's own tests

Run from the repository root. The simulator is compiled from ../src
into $CARGO_TARGET_DIR (default .bench_build), which also holds the
run's scratch files and Chrome traces. Every UNISTC_* environment
variable is removed before the program starts, so no cache, job
count, corpus clamp or log level leaks in.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tab08_sweep", "vector_large"]


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def clean_env(tmp):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("UNISTC_")}
    env["TMPDIR"] = tmp
    return env


def build(out, targets, env):
    """Configure once, then build @targets; build output to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"]
                 + targets)
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-digests", action="store_true",
                    help="rewrite expected/*.digests (use --seed 1)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    out = build_dir()
    tmp = os.path.join(out, "run")
    os.makedirs(tmp, exist_ok=True)
    env = clean_env(tmp)

    if args.self_test:
        if not build(out, ["hostbench_tests"], env):
            return 2
        return subprocess.call([os.path.join(out, "hostbench_tests")],
                               env=env)

    if not build(out, ["hostbench", "unistc_serve"], env):
        return 2
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        cmd = [os.path.join(out, "hostbench"),
               "--workload", workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--serve-bin", os.path.join(out, "unistc", "unistc_serve"),
               "--digests", os.path.join(HERE, "expected"),
               # Relative: a Unix socket path must stay short.
               "--out", os.path.relpath(tmp, ROOT)]
        if args.write_digests:
            cmd.append("--write-digests")
        sys.stdout.flush()
        status = subprocess.call(cmd, env=env, cwd=ROOT) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
