#!/usr/bin/env python3
"""Builds the serving benchmark from this checkout's sources and runs it.

Run from the root of the checkout:

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

The build goes to .bench_build/ at the checkout root (configured once,
rebuilt incrementally). Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. A traced run also writes its spans to
.bench_build/traces/<workload>-<seed>.jsonl.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "servebench")
RUN_TIMEOUT_S = 170


def flag(args, name):
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", os.path.relpath(HERE, ROOT)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "servebench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("servebench: the arecel sources (src/) are missing; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    if not build():
        print("servebench: build failed", file=sys.stderr)
        return 2
    cmd = [BINARY] + args + ["--commit", commit_id()]
    if flag(args, "--trace") == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-%s.jsonl" % (flag(args, "--workload"), flag(args, "--seed"))
        cmd += ["--trace-out", os.path.join(traces, name)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
