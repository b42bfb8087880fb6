#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/NOTES.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds perfbench/ (and with it the library under src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
workload. Build output goes to standard error; the last line of standard
output is the result object. Two maintenance modes:

    python3 perfbench/run.py --selftest        # a corrupted expected answer
                                               # must count as a failed op
    python3 perfbench/run.py --record-digests  # rewrite perfbench/digests.txt
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["adequacy_dense", "trace_replay", "rta_sweep", "static_verify"]
DIGESTS = os.path.join(HERE, "digests.txt")
RECORDED_SEEDS = range(0, 32)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then builds incrementally. Returns the binary."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def run_binary(binary, args):
    """Runs the benchmark binary in the checkout root; returns its stdout."""
    proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    return proc.stdout


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def selftest(binary):
    """A clean run fails no op; a corrupted expected answer fails every op."""
    ok = True
    for w in WORKLOADS:
        base = ["--workload", w, "--seed", "1", "--seconds", "0.5",
                "--trace", "0", "--digests", DIGESTS]
        clean = result_of(run_binary(binary, base))
        broken = result_of(run_binary(binary, base + ["--corrupt-expected"]))
        good = (clean["correct"] and clean["failed"] == 0
                and not broken["correct"]
                and broken["failed"] == broken["attempted"] > 0)
        print(f"{w}: clean {clean['failed']}/{clean['attempted']} failed, "
              f"corrupted {broken['failed']}/{broken['attempted']} failed: "
              f"{'ok' if good else 'FAIL'}")
        ok &= good
    return ok


def record_digests(binary):
    lines = []
    for w in WORKLOADS:
        for seed in RECORDED_SEEDS:
            out = run_binary(binary, ["--workload", w, "--seed", str(seed),
                                      "--seconds", "1", "--trace", "0",
                                      "--print-digests"])
            lines += [l[len("digests "):] for l in out.splitlines()
                      if l.startswith("digests ")]
    with open(DIGESTS, "w") as f:
        f.write("# <workload> <seed> <per-input output digests>, written by\n"
                "# python3 perfbench/run.py --record-digests\n")
        f.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} digest lines to {DIGESTS}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--record-digests", action="store_true")
    a = p.parse_args()
    if not (a.selftest or a.record_digests or a.workload):
        p.error("--workload is required")

    try:
        binary = build()
        if a.selftest:
            return 0 if selftest(binary) else 1
        if a.record_digests:
            record_digests(binary)
            return 0
        sys.stdout.write(run_binary(binary, [
            "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace,
            "--digests", DIGESTS, "--out", build_dir()]))
        return 0
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError) as e:
        sys.stderr.write(f"run.py: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
