#!/usr/bin/env python3
"""End-to-end benchmark: trace file -> logical structure + metrics.

Builds the `lsbench` program (perfbench/CMakeLists.txt, which compiles the
library from ../src), generates the workload's input files, times the
analysis a user runs, checks every result, and prints one JSON object as
the last line of stdout:

    python3 perfbench/run.py --workload lulesh-mem --seed 1 --seconds 45 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (spans are written under <build>/spans/). --self-test runs
every workload at toy size and checks the metric names, digest
repetition and the regime guards. perfbench/README.md explains the
metrics, the workloads and how to read the output.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("lulesh-mem", "lulesh-blocked", "lassen-mpi")

# name -> unit. --trace 0 prints END_TO_END, --trace 1 prints PER_LAYER.
END_TO_END = {
    "analyze_s": "s",
    "extract_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "trace.load_s": "s",
    "trace.load_mb_per_s": "MB/s",
    "trace.validate_s": "s",
    "trace.events": "count",
    "trace.self_s": "s",
    "trace.storage.budget_mb": "MB",
    "trace.storage.hits": "count",
    "trace.storage.misses": "count",
    "trace.storage.hit_ratio": "ratio",
    "trace.storage.evictions": "count",
    "trace.storage.resident_mb": "MB",
    "trace.storage.io_retries": "count",
    "trace.storage.misses.load": "count",
    "trace.storage.misses.validate": "count",
    "trace.storage.misses.find_phases": "count",
    "trace.storage.misses.assign_steps": "count",
    "trace.storage.misses.metrics": "count",
    "order.find_phases_s": "s",
    "order.assign_steps_s": "s",
    "order.find_phases_alloc_mb": "MB",
    "order.assign_steps_alloc_mb": "MB",
    "order.phases": "count",
    "order.self_s": "s",
    "metrics.paper_s": "s",
    "metrics.windows_s": "s",
    "metrics.efficiency_s": "s",
    "metrics.concurrency_s": "s",
    "metrics.alloc_mb": "MB",
    "metrics.windows": "count",
    "metrics.self_s": "s",
    "traced.analyze_s": "s",
    "traced.uncovered_s": "s",
    "traced.overhead_s": "s",
}

SETUP_REPS = 3  # set-up rounds per untraced run; setup_s is their median
BUILD_TIMEOUT_S = 840
STEP_SLACK_S = 60  # per-subprocess allowance beyond the measured seconds


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"library sources missing under {ROOT}/src")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir], check=True,
                       stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", bdir, "--target", "lsbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))
    return os.path.join(bdir, "lsbench")


def lsbench(exe, args, timeout):
    """Run one lsbench subcommand; return its last stdout line as JSON."""
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"lsbench {args[0]} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"lsbench {args[0]} printed nothing")
    return json.loads(lines[-1])


def load_pins():
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f)["digests"]


def run_workload(exe, bdir, workload, seed, seconds, trace, toy=False,
                 force="", min_runs=1, setup_reps=None):
    """Set up and analyse one workload; return (result line, context)."""
    work = os.path.join(bdir, "work", f"{workload}-seed{seed}-{os.getpid()}")
    spans_dir = os.path.join(bdir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    common = [f"--workload={workload}", f"--seed={seed}", f"--dir={work}"]
    if toy:
        common.append("--toy")
    if setup_reps is None:
        setup_reps = 1 if trace else SETUP_REPS
    try:
        setup = lsbench(exe, ["setup"] + common + [f"--reps={setup_reps}"],
                        timeout=STEP_SLACK_S)
        args = ["analyze"] + common + [
            f"--seconds={seconds}", f"--trace={trace}",
            f"--min-runs={min_runs}",
            f"--spans={os.path.join(spans_dir, f'{workload}-seed{seed}.json')}",
        ]
        pin = None if toy else load_pins().get(workload, {}).get(str(seed))
        if pin:
            args.append(f"--expect={pin}")
        if setup["ref_digest"]:
            args.append(f"--ref={setup['ref_digest']}")
        if force:
            args.append(f"--force={force}")
        out = lsbench(exe, args, timeout=seconds + STEP_SLACK_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        wanted, source = PER_LAYER, out["layers"]
    else:
        wanted = END_TO_END
        source = {k: out[k] for k in ("analyze_s", "extract_s", "peak_rss_mb")}
        source["setup_s"] = statistics.median(setup["setup_s"])
    missing = [k for k in wanted if k not in source]
    metrics = {k: {"value": source[k], "unit": u}
               for k, u in wanted.items() if k in source}
    failed = out["failed"] + (1 if missing else 0)
    result = {
        "correct": failed == 0 and out["attempted"] >= 1,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    summary = {
        "workload": workload, "seed": seed, "events": out["events"],
        "phases": out["phases"], "digest": out["digest"],
        "pinned_digest": pin or "none for this seed",
        "cache_budget_mb": out["cache_budget_bytes"] / (1 << 20),
        "failed_ops": f"{out['failed']}/{out['attempted']}",
        "plain_runs": out["plain_runs"], "traced_runs": out["traced_runs"],
        "analyze_all_s": out["analyze_all_s"],
        "setup_all_s": setup["setup_s"],
        "missing_metrics": missing, "failures": out["failures"],
    }
    return result, summary


def print_result(result, summary):
    for k, v in summary.items():
        print(f"# {k}: {v}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps(result), flush=True)


def self_test(exe, bdir):
    """Toy-size run of every workload plus forced regime-guard conditions."""
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if {m["name"] for m in spec["end_to_end"]} != set(END_TO_END):
        problems.append("BENCHMARK.json end_to_end names != run.py")
    if {m["name"] for m in spec["per_layer"]} != set(PER_LAYER):
        problems.append("BENCHMARK.json per_layer names != run.py")
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        problems.append("BENCHMARK.json names a workload run.py lacks")

    for workload in WORKLOADS:
        before = len(problems)
        digests = set()
        for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
            res, summ = run_workload(exe, bdir, workload, 7, 1, trace,
                                     toy=True, min_runs=3, setup_reps=2)
            got = set(res["metrics"])
            if got != set(names):
                problems.append(f"{workload} trace={trace}: metrics "
                                f"{sorted(set(names) ^ got)} wrong")
            if not res["correct"] or res["attempted"] < 3:
                problems.append(f"{workload} trace={trace}: "
                                f"{summ['failed_ops']} failed: "
                                f"{summ['failures']}")
            digests.add(summ["digest"])
        if len(digests) != 1:
            problems.append(f"{workload}: digest differs across runs "
                            f"{sorted(digests)}")
        log(f"self-test {workload}: "
            f"{'ok' if len(problems) == before else 'FAILED'}")

    forced = (
        ("lulesh-mem", "mem-touches-cache", "block-cache lookups"),
        ("lassen-mpi", "mem-touches-cache", "block-cache lookups"),
        ("lulesh-blocked", "blocked-skips-cache", "zero cache misses"),
        ("lulesh-blocked", "budget-not-set", "cache budget"),
    )
    for workload, force, expect in forced:
        res, summ = run_workload(exe, bdir, workload, 7, 1, 0, toy=True,
                                 force=force, min_runs=2, setup_reps=1)
        fired = (res["failed"] == res["attempted"] and
                 all(expect in f for f in summ["failures"]))
        if not fired:
            problems.append(f"guard '{expect}' did not fire under "
                            f"--force={force} on {workload}: {summ}")
        log(f"self-test guard {force} on {workload}: "
            f"{'fired' if fired else 'DID NOT FIRE'}")

    for p in problems:
        log(f"self-test FAILED: {p}")
    if not problems:
        log("self-test passed")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="toy-size check of names, digests and guards")
    opts = ap.parse_args()
    if not opts.self_test and not opts.workload:
        ap.error("--workload is required")

    try:
        bdir = build_dir()
        # Compiler and library temporaries stay inside the build tree.
        os.environ["TMPDIR"] = os.path.join(bdir, "tmp")
        os.makedirs(os.environ["TMPDIR"], exist_ok=True)
        exe = build(bdir)
        if opts.self_test:
            return self_test(exe, bdir)
        result, summary = run_workload(exe, bdir, opts.workload, opts.seed,
                                       opts.seconds, opts.trace)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2
    print_result(result, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
