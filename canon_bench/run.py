#!/usr/bin/env python3
"""Canonical casc benchmark.

Builds the benchmark binary (canon_bench/, a CMake project compiling
the casc library from src/) and runs one canonical workload:

    python3 canon_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of the traced re-drive (and writes its Chrome trace and layer table).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Every result is also appended, with its
host context, to <build dir>/canon_bench_out/results.jsonl.

    python3 canon_bench/run.py --all [--seed N] [--seconds S]

runs every workload end to end and traced, prints every metric by name
and unit, and exits non-zero if any correctness gate failed.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root. The benchmark refuses to run while any CASC_* variable
is set: the workloads measure the product defaults. See NOTES.md.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-rounds", "rush-1m", "multiskill-gap", "net-sharded"]
BINARY_TIMEOUT_S = 170


def fail(message):
    print("canon_bench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "canon_bench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("casc sources (src/CMakeLists.txt) not found next to the "
             "benchmark; run from a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = sys.stderr
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", out, "--target", "canon_bench",
                    "-j", jobs], check=True, stdout=log, stderr=log)
    return os.path.join(out, "canon_bench")


def read_text(path):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            return f.read()
    except OSError:
        return ""


def source_digest():
    """sha256 over the library and benchmark sources, which identifies
    the code when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def host_context():
    cpuinfo = read_text("/proc/cpuinfo")
    model = re.search(r"^model name\s*:\s*(.*)$", cpuinfo, re.M)
    flags = re.search(r"^flags\s*:\s*(.*)$", cpuinfo, re.M)
    cache = read_text(os.path.join(build_dir(), "CMakeCache.txt"))
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    compiler = "unknown"
    files = os.path.join(build_dir(), "CMakeFiles")
    for entry in sorted(os.listdir(files)) if os.path.isdir(files) else []:
        text = read_text(os.path.join(files, entry,
                                      "CMakeCXXCompiler.cmake"))
        cid = re.search(r'set\(CMAKE_CXX_COMPILER_ID "(.*)"\)', text)
        ver = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "(.*)"\)', text)
        if cid and ver:
            compiler = cid.group(1) + " " + ver.group(1)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model.group(1).strip() if model else "unknown",
        "cpu_flags": flags.group(1).split() if flags else [],
        "build_type": build_type.group(1) if build_type else "unknown",
        "compiler": compiler,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def run_once(binary, workload, seed, seconds, trace):
    """Runs the binary; returns its result object, or None on a crash."""
    out_dir = os.path.join(os.path.dirname(build_dir()), "canon_bench_out")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", out_dir]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("canon_bench: %s timed out" % workload, file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("canon_bench: %s exited %d without a result"
              % (workload, proc.returncode), file=sys.stderr)
        return None
    record = {"time": time.time(), "host": host_context(), "result": result}
    with open(os.path.join(out_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    return result


def print_metrics(workload, trace, result):
    kind = "layer" if trace else "end-to-end"
    for name, metric in result["metrics"].items():
        print("%-15s %-10s %-26s %18.6f %s" % (
            workload, kind, name, metric["value"], metric["unit"]))
    for failure in result["context"].get("failures", []):
        print("%-15s FAILED %s" % (workload, failure))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    knobs = sorted(k for k in os.environ if k.startswith("CASC_"))
    if knobs:
        fail("refusing to run with %s set: the canonical workloads measure "
             "the product defaults" % ", ".join(knobs))

    binary = build()
    if args.all:
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = run_once(binary, workload, args.seed, args.seconds,
                                  trace)
                if result is None:
                    print("%-15s FAILED: no result" % workload)
                    ok = False
                    continue
                print_metrics(workload, trace, result)
                ok = ok and result["correct"]
        print("correctness gate: %s" % ("passed" if ok else "FAILED"))
        return 0 if ok else 1

    result = run_once(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    if result is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print_metrics(args.workload, args.trace, result)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
