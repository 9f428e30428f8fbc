#!/usr/bin/env python3
"""Builds the psc benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload plan-cold|run-parallel|pscd-mixed \
        --seed N --seconds S --trace 0|1

The build goes to .bench_build/perfbench (CMake, Release); the benchmark
runs with .bench_build as its working directory, so its socket and trace
file stay there. Stdout ends with the benchmark's result line; the exit
code is the benchmark's (1 when a check failed, 2 on a usage error).
"""

import hashlib
import os
import subprocess
import sys

WORKLOADS = ("plan-cold", "run-parallel", "pscd-mixed")
USAGE = ("usage: python3 perfbench/run.py --workload "
         + "|".join(WORKLOADS) + " --seed N --seconds S --trace 0|1")
BUILD_TIMEOUT_S = 850
# A run is three set-ups, the window (each of its slices may overrun by one
# round of ops) and, traced, the model runs after it: a fixed margin plus
# half the window again.
RUN_MARGIN_S = 120


def run_timeout(seconds):
    return RUN_MARGIN_S + 1.5 * seconds


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    if code == 2:
        print(USAGE, file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    args = {}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag in ("-h", "--help"):
            fail("--help: nothing to run")
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail("unknown argument " + repr(flag))
        if flag in args:
            fail("repeated argument " + flag)
        if i + 1 >= len(argv):
            fail("missing value for " + flag)
        args[flag] = argv[i + 1]
        i += 2
    if len(args) != 4:
        fail("--workload, --seed, --seconds and --trace are required")
    if args["--workload"] not in WORKLOADS:
        fail("unknown workload " + repr(args["--workload"]))
    if not args["--seed"].isdigit() or len(args["--seed"]) > 19:
        fail("--seed takes a non-negative integer")
    if (not args["--seconds"].isdigit()
            or not 1 <= int(args["--seconds"]) <= 3600):
        fail("--seconds takes an integer from 1 to 3600")
    if args["--trace"] not in ("0", "1"):
        fail("--trace takes 0 or 1")
    return args


def source_id(root):
    """The git commit when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", root, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=30).stdout.strip()
            return "git:" + sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def build(root, build_root):
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_root, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "psc_perfbench",
         "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=log,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.SubprocessError) as err:
                fail("build step failed: %s" % err, 1)
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path, 1)
    return os.path.join(build_dir, "psc_perfbench")


def main():
    args = parse_args(sys.argv[1:])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "frontend",
                                       "Frontend.h")):
        fail("no psc sources under " + os.path.join(root, "src"), 1)
    build_root = os.path.join(root, ".bench_build")
    binary = build(root, build_root)
    command = [binary, "--workload", args["--workload"],
               "--seed", args["--seed"], "--seconds", args["--seconds"],
               "--trace", args["--trace"], "--source-id", source_id(root)]
    sys.stdout.flush()
    proc = subprocess.Popen(command, cwd=build_root)
    timeout = run_timeout(int(args["--seconds"]))
    try:
        code = proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        fail("benchmark did not finish in %d s" % timeout, 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
