#!/usr/bin/env python3
"""Builds the steady-state simulator benchmark and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload sub_varmail --seed 1 --trace 0

The first call configures and builds perfbench/ (the simulator library
plus the benchmark driver) into $CARGO_TARGET_DIR/perfbench, defaulting to
.bench_build/perfbench; later calls rebuild incrementally. Build output goes
to stderr. The benchmark's own stdout is passed through unchanged: a
provenance header, a metric table and, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. The exit status is the
benchmark's (non-zero when a correctness or steady-state guard trips).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configures once, then builds incrementally; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "--target", "steady_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "steady_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small window, one set-up (self-test size)")
    ap.add_argument("--age-requests", type=int,
                    help="override the workload's aging length")
    args = ap.parse_args()

    bdir = build_dir()
    try:
        exe = build(bdir)
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: build failed (%s)" % e)

    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.smoke:
        cmd.append("--smoke")
    if args.age_requests is not None:
        cmd += ["--age-requests", str(args.age_requests)]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
