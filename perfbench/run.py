#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload open_loop_slo --seed 860911 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and compiles perfbench/ (which compiles the
simulator libraries from src/) into .bench_build/perfbench; later calls
rebuild incrementally. Build output goes to stderr, so stdout carries only
the benchmark's report, whose last line is the JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("open_loop_slo", "fork_fanout", "paper_suite")
OPEN_LOOP_SEED = 860911  # loadgen_slo_sweep's committed seed
FORK_SEED = 4242  # macro_campaign --sharded's committed seed


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; exit 2 on failure."""
    for needed in ("src/CMakeLists.txt", "bench/campaigns"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} in {ROOT}: run from a full checkout")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))


def commit():
    """The checkout's git commit, or 'unknown' outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def bench_env():
    """The environment without the simulator's own output knobs."""
    return {k: v for k, v in os.environ.items() if not k.startswith("EAAO_")}


def run_binary(args, capture=False):
    cmd = [BINARY, *args, "--root", ROOT,
           "--out-dir", os.path.join(BUILD, "traces"), "--commit", commit()]
    return subprocess.run(cmd, cwd=ROOT, env=bench_env(), text=True,
                          stdout=subprocess.PIPE if capture else None)


def result_of(args):
    """Run the binary; return (exit code, parsed JSON result or None)."""
    proc = run_binary(args, capture=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def self_test():
    """Pin the exact counts and prove the checks can fail."""
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    def metric(result, name):
        return result["metrics"][name]["value"] if result else None

    short = ["--seconds", "1"]
    code, r = result_of(["--workload", "open_loop_slo", "--seed",
                         str(OPEN_LOOP_SEED), "--trace", "1",
                         "--max-iters", "2", *short])
    expect(code == 0 and r and r["correct"] and r["failed"] == 0,
           "open_loop_slo matches its golden at the committed seed")
    expect(metric(r, "sim.events_processed") == 21868495,
           "open_loop_slo executes exactly 21,868,495 events")
    expect(metric(r, "workload.arrivals") == 10933811,
           "the workload probe regenerates the 10,933,811 admitted arrivals")

    code, r = result_of(["--workload", "fork_fanout", "--seed",
                         str(FORK_SEED), "--trace", "1", "--max-iters", "2",
                         *short])
    expect(code == 0 and r and r["correct"] and r["failed"] == 0,
           "every fork routes the full storm and matches the straight run")
    expect(metric(r, "snap.forks") == 40 and r["attempted"] >= 80,
           "each of the 40 forks per iteration is checked")

    code, r = result_of(["--workload", "paper_suite", "--seed", "0",
                         "--trace", "0", "--max-iters", "1", *short])
    expect(code == 0 and r and r["correct"] and r["attempted"] == 22,
           "paper_suite byte-matches all 22 goldens")

    code, r = result_of(["--workload", "open_loop_slo", "--seed", "7",
                         "--trace", "1", "--max-iters", "2", *short])
    expect(code == 0 and r and r["correct"] and r["attempted"] >= 2,
           "at another seed, traced and untraced totals agree")

    for workload, seed, failures in (("open_loop_slo", OPEN_LOOP_SEED, 1),
                                     ("fork_fanout", FORK_SEED, 40),
                                     ("paper_suite", 0, 1)):
        code, r = result_of(["--workload", workload, "--seed", str(seed),
                             "--trace", "0", "--max-iters", "1", "--perturb",
                             *short])
        expect(code == 0 and r is not None and not r["correct"]
               and r["failed"] == failures,
               f"a perturbed {workload} reference fails {failures} "
               "check(s) without aborting the run")

    code, r = result_of(["--workload", "paper_suite", "--seed", "0",
                         "--trace", "0", "--threads",
                         str(len(os.sched_getaffinity(0)) + 1), *short])
    expect(code == 2 and r is None, "--threads above nproc is refused")

    print(f"self-test: {len(problems)} problem(s)")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", help="default: the committed seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--threads")
    parser.add_argument("--self-test", action="store_true",
                        help="pin exact counts and run the negative checks")
    args = parser.parse_args()

    build()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seconds, args.trace):
        parser.error("--workload, --seconds and --trace are required")
    passthrough = ["--workload", args.workload, "--seconds", args.seconds,
                   "--trace", args.trace]
    for flag in ("seed", "threads"):
        if getattr(args, flag) is not None:
            passthrough += [f"--{flag}", getattr(args, flag)]
    sys.stdout.flush()
    return run_binary(passthrough).returncode


if __name__ == "__main__":
    sys.exit(main())
