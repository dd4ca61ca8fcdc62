#!/usr/bin/env python3
"""Smoke-size self-test of the steady-state benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Checks, each on a small window with one set-up:
  1. every metric named in BENCHMARK.json prints with its declared unit,
     untraced (end_to_end) and traced (per_layer);
  2. the steady-state guard trips (non-zero exit) on an un-aged device;
  3. two runs with the same seed print the same sim_digest, and the traced
     run (which also replays with telemetry streams attached) prints it too.
Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--seconds", "1",
           "--smoke"] + list(args)
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)


def result(proc):
    if proc.returncode != 0:
        sys.exit("selftest: benchmark failed (exit %d):\n%s" %
                 (proc.returncode, proc.stderr[-3000:]))
    lines = proc.stdout.strip().splitlines()
    digest = [l.split()[1] for l in lines if l.startswith("sim_digest:")]
    return json.loads(lines[-1]), digest[0] if digest else None


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    # 1. Every named metric, with its unit, in both modes.
    digests = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res, digests[trace] = result(bench("--workload", "sub_varmail",
                                           "--seed", "11",
                                           "--trace", str(trace)))
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        check(got == want, "trace=%d prints every %s metric with its unit"
              % (trace, key))
        check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
              "trace=%d run is correct with no failed requests" % trace)

    # 2. The steady-state guard trips on an un-aged device.
    proc = bench("--workload", "sub_varmail", "--seed", "7",
                 "--age-requests", "0")
    check(proc.returncode != 0 and "steady-state guard" in proc.stderr,
          "steady-state guard trips without aging")

    # 3. Same seed, same digest. The traced run replays plain, observed and
    # traced in one process and fails on any digest mismatch among them, so
    # a matching digest also shows that observing and tracing change nothing.
    _, d = result(bench("--workload", "sub_varmail", "--seed", "11"))
    check(d is not None and d == digests[0],
          "same-seed runs share sim_digest %s" % d)
    check(digests[1] == d, "the traced run (plain, observed and traced "
          "replays) matches the untraced digest")
    print("selftest passed")


if __name__ == "__main__":
    main()
