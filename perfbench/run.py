#!/usr/bin/env python3
"""The repo benchmark: builds perfbench_runner and runs one workload.

    python3 perfbench/run.py --workload des-bsp-n1024 --seed 1 \
        --seconds 25 --trace 0

Run from the repository root. The runner is built from source (src/ and
perfbench/) into .bench_build/perfbench, pinned to Release with -O2. With
--trace 0 the last stdout line carries the end-to-end metrics, with --trace 1
the per-layer metrics; the line before it is a report with sample counts,
percentiles and build and host metadata. For the pinned seed the outputs are
compared bit for bit with perfbench/golden.json; for any other seed, every
run is compared with the first run of the same job. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "perfbench_runner")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    steps = (
        ["cmake", "-S", HERE, "-B", BUILD],
        ["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench_runner"],
    )
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    cache = cmake_cache()
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        fail("refusing to report numbers from build type %r"
             % cache.get("CMAKE_BUILD_TYPE"))


def cmake_cache():
    out = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            key, sep, value = line.rstrip("\n").partition("=")
            if sep and not line.startswith(("#", "//")):
                out[key.split(":")[0]] = value
    return out


def source_digest():
    """sha256 over the files the runner is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def metadata():
    cache = cmake_cache()
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "cxx_flags_release": cache.get("CMAKE_CXX_FLAGS_RELEASE"),
        "compiler_path": cache.get("CMAKE_CXX_COMPILER"),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
    }


def expected_digest(workload, seed):
    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    if seed != golden["seed"]:
        return None
    return golden["digests"].get(workload)


def run_runner(args, scratch):
    cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    expect = expected_digest(args.workload, args.seed)
    if expect:
        cmd += ["--expect", expect]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("runner timed out after %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    scratch = os.path.join(BUILD, "scratch-%d" % os.getpid())
    os.makedirs(scratch)
    try:
        code, lines = run_runner(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if len(lines) < 2:
        fail("runner exited %d without a result" % code)
    report = json.loads(lines[-2])
    report.update(metadata())
    for line in lines[:-2]:
        print(line)
    print(json.dumps(report, sort_keys=True))
    print(lines[-1])
    sys.exit(code)


if __name__ == "__main__":
    main()
