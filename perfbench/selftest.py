#!/usr/bin/env python3
"""Self-test of the repo benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Checks, in about two minutes:
  1. the pinned digests in perfbench/golden.json still match a fresh run of
     each workload at the pinned seed;
  2. a perturbed job (the pinned seed + 1) fails the output check: the
     result says correct=false and the runner exits non-zero;
  3. every metric named in BENCHMARK.json is emitted with its unit, for
     --trace 0 (end_to_end) and --trace 1 (per_layer);
  4. the Model/Dataset timing decorators leave params() order and the run
     digest unchanged, on threads-selsync-n4 and on a one-iteration
     des-bsp-n1024.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py: build and paths)

FAILURES = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def runner(*args):
    proc = subprocess.run([run.RUNNER] + list(args), cwd=run.ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=run.RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def main():
    run.build()
    with open(os.path.join(run.HERE, "golden.json")) as f:
        golden = json.load(f)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seed = str(golden["seed"])

    for workload, digest in sorted(golden["digests"].items()):
        code, lines = runner("--workload", workload, "--seed", seed,
                             "--digest")
        check(code == 0 and lines and lines[-1] == digest,
              "golden digest of %s at seed %s" % (workload, seed))

    scratch = os.path.join(run.BUILD, "selftest-scratch")
    os.makedirs(scratch, exist_ok=True)
    try:
        code, lines = runner(
            "--workload", "threads-selsync-n4", "--seed",
            str(golden["seed"] + 1), "--seconds", "1", "--trace", "0",
            "--scratch", scratch,
            "--expect", golden["digests"]["threads-selsync-n4"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = json.loads(lines[-1]) if lines else {}
    check(code != 0 and result.get("correct") is False and
          result.get("failed", 0) > 0,
          "perturbed job (seed + 1) fails the output check")

    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
             "threads-selsync-n4", "--seed", seed, "--seconds", "1",
             "--trace", trace],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1]) if lines else {}
        metrics = result.get("metrics", {})
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        emitted = {name: m.get("unit") for name, m in metrics.items()}
        check(proc.returncode == 0 and result.get("correct") is True and
              sorted(result) == ["attempted", "correct", "failed", "metrics"],
              "run.py --trace %s succeeds with the result keys" % trace)
        check(emitted == wanted,
              "--trace %s emits exactly the %s metrics with their units%s"
              % (trace, key, "" if emitted == wanted else
                 ": missing %s, extra %s, units %s" % (
                     sorted(set(wanted) - set(emitted)),
                     sorted(set(emitted) - set(wanted)),
                     sorted(n for n in wanted if n in emitted and
                            emitted[n] != wanted[n]))))

    for workload, extra in (("threads-selsync-n4", []),
                            ("des-bsp-n1024", ["--iterations", "1"])):
        code, lines = runner("--workload", workload, "--seed", seed,
                             "--wrapcheck", *extra)
        report = json.loads(lines[-1]) if lines else {}
        check(code == 0 and report.get("params_equal") and
              report.get("digest_equal"),
              "decorators keep params() order and the digest on %s%s"
              % (workload, " (1 iteration)" if extra else ""))

    print("%d check(s) failed" % len(FAILURES) if FAILURES else
          "all checks passed")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
