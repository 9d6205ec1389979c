#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench_driver (the deepscale
library from src/ plus perfbench/driver.cpp, Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
workload in one single-threaded process. Prints a host fingerprint line,
the driver's detail line, and, last, the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metric names and units are checked against BENCHMARK.json: the
end_to_end metrics with --trace 0, the per_layer metrics with --trace 1.
Exits non-zero, without a result line, when the build fails or the driver
output does not match BENCHMARK.json; exits non-zero after the result line
when a correctness check failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, os.pardir, "BENCHMARK.json")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# ISA flags reported in the host fingerprint when the CPU has them.
ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw",
             "avx512vl", "avx512_vnni", "amx_tile")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure and build the driver (both incremental); returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench_driver",
              "-j", jobs]]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_driver")


def build_type(build_dir):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_fingerprint(build_dir):
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return {
        "cpu_model": model,
        "isa": [f for f in ISA_FLAGS if f in flags],
        "nproc": os.cpu_count(),
        "build_type": build_type(build_dir),
    }


def check_result(result, expected):
    """Raises ValueError unless `result` is a well-formed result object
    carrying exactly the `expected` metrics with their units."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError("%s is not a whole number" % key)
    if result["attempted"] < 1:
        raise ValueError("attempted is below 1")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise ValueError("metric names differ from BENCHMARK.json: missing %s, "
                         "extra %s" % (sorted(set(expected) - set(metrics)),
                                       sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        m = metrics[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            raise ValueError("metric %s is %s, expected unit %s" %
                             (name, m, unit))
        if not isinstance(m["value"], (int, float)):
            raise ValueError("metric %s has no numeric value" % name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(SPEC_PATH) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r (have %s)" % (args.workload, workloads))
    section = spec["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    driver = build(build_dir)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("driver did not finish: %s" % e)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing (exit code %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
        check_result(result, expected)
    except ValueError as e:
        fail("bad driver result: %s" % e)
    if result["correct"] != (proc.returncode == 0):
        fail("driver exit code %d disagrees with correct=%s" %
             (proc.returncode, result["correct"]))

    print("perfbench-host " + json.dumps(host_fingerprint(build_dir)))
    for line in lines[:-1]:
        print(line)
    print(lines[-1])
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
