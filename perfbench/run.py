#!/usr/bin/env python3
"""End-to-end frame benchmark of the mltc simulator at the paper configuration.

Builds the simulator and the benchmark from source (perfbench/CMakeLists.txt,
into .bench_build/ or $CARGO_TARGET_DIR), runs one workload and prints its
report; the last line of standard output is the JSON result.

  python3 perfbench/run.py --workload village_tri_1sim --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload city_bi_sweep5 --scene-seed 7   # held-out seed
  python3 perfbench/run.py --test                                     # self-tests
  python3 perfbench/run.py --workload serve4_shared_l2 --write-golden # regenerate expected values

See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build(target):
    """Configure once, then (re)build @target; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "--target", target, "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.exit("perfbench: build failed (%s)" % log_path)
    return os.path.join(out, target)


def declared(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[key]]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scene-seed", type=int, help="held-out scene seed (gated traced vs untraced)")
    ap.add_argument("--write-golden", action="store_true", help="regenerate perfbench/golden/<workload>.csv")
    ap.add_argument("--test", action="store_true", help="build and run the benchmark's self-tests")
    args = ap.parse_args()

    if args.test:
        tests = build("perfbench_tests")
        sys.exit(subprocess.run([tests, os.path.join(ROOT, "BENCHMARK.json")]).returncode)
    if not args.workload:
        ap.error("--workload is required")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden-dir", os.path.join(HERE, "golden"),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    if args.scene_seed is not None:
        cmd += ["--scene-seed", str(args.scene_seed)]
    if args.write_golden:
        cmd.append("--write-golden")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or args.write_golden:
        sys.exit(proc.returncode)

    # The result line must carry exactly the metrics BENCHMARK.json declares.
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = declared("per_layer" if args.trace else "end_to_end")
    if sorted(result["metrics"]) != sorted(want):
        sys.exit("perfbench: result metrics %s differ from BENCHMARK.json %s"
                 % (sorted(result["metrics"]), sorted(want)))


if __name__ == "__main__":
    main()
