#!/usr/bin/env python3
"""End-to-end resolution benchmark for MinoanER.

Runs the real pipeline (load -> blocking -> cleaning -> meta-blocking ->
graph+evaluator -> progressive loop -> report) on a corpus generated from
the seed, one fresh process per run, and prints every metric by name:

  python3 e2ebench/run.py --workload full-mixed --seed 1 --seconds 30 --trace 0
  python3 e2ebench/run.py --workload full-mixed --seed 1 --seconds 30 --trace 1

--trace 0 prints the end-to-end metrics (medians over the repetitions that
fit in --seconds); --trace 1 makes one traced run and prints the per-layer
metrics. --workload all runs every workload in turn and prefixes each
metric name with its workload. The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Run from the root of a checkout; the harness is built from source into
$CARGO_TARGET_DIR (default .bench_build) on first use. See e2ebench/README.md.
"""

import argparse
import dataclasses
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# Every run gets at most this long, build excluded, so one invocation ends
# within the 180 s a benchmark run may take.
RUN_DEADLINE_S = 170.0
MIB = 1024 * 1024
# Generator seed of every corpus: the cloud's shape (per-KB coverage,
# vocabularies, truth) is fixed, and --seed reorders its descriptions. The
# generator jitters each KB's coverage by +-20% per seed, so distinct
# generator seeds would vary the work by a third from run to run.
CLOUD_SEED = 20160315


@dataclasses.dataclass(frozen=True)
class Workload:
    """One corpus shape plus the WorkflowOptions knobs the run varies."""
    name: str
    entities: int       # real-world entities of the generated cloud
    kbs: int
    center: int         # how many of the KBs are center KBs
    threads: int        # WorkflowOptions::num_threads
    budget: int         # progressive.matcher.budget (0 = to exhaustion)
    memory_budget: int  # memory.shuffle_budget_bytes (0 = in memory)
    slice_size: int     # comparisons per Step in the traced run


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("full-mixed", entities=70_000, kbs=6, center=2, threads=4,
                 budget=0, memory_budget=0, slice_size=5_000),
        Workload("payg-center", entities=50_000, kbs=4, center=4, threads=1,
                 budget=250_000, memory_budget=0, slice_size=250),
        Workload("spill-mixed", entities=70_000, kbs=6, center=2, threads=1,
                 budget=250_000, memory_budget=64 * MIB, slice_size=250),
    )
}

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("half_matches_s", "s"),
    ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("recall", "ratio"),
    ("precision", "ratio"), ("recall_auc", "ratio"),
)

# The layers that tile the run, in order, as the harness names its spans.
TOP_SPANS = ("kb.load", "blocking.build", "blocking.clean",
             "metablocking.prune", "matching.setup", "progressive.prime",
             "progressive.step")
# Spans during which the thread pool can have work (everything but the
# serial progressive loop).
PARALLEL_SPANS = TOP_SPANS[1:6]


class RunFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- Build ---------------------------------------------------------------


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(os.path.join(ROOT, base)), "e2ebench")


def build_harness():
    """Configures (once) and builds the harness; returns the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RunFailed("not a MinoanER checkout: no CMakeLists.txt or src/ "
                        "next to " + BENCH_DIR)
    out = os.path.join(build_dir(), "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "e2e_harness",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise RunFailed("build step failed: " + " ".join(cmd))
    return os.path.join(out, "e2e_harness")


# ---- One harness process ---------------------------------------------------


class Harness:
    def __init__(self, binary, deadline):
        self.binary = binary
        self.deadline = deadline

    def call(self, *args):
        """Runs one harness process; returns its JSON object."""
        left = self.deadline - time.monotonic()
        if left <= 1:
            raise RunFailed("deadline reached before: " + " ".join(args))
        try:
            proc = subprocess.run([self.binary, *args], capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise RunFailed("timed out: " + " ".join(args))
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            result = {}
        if proc.returncode != 0 or not result.get("ok"):
            raise RunFailed("harness %s failed (exit %d): %s %s" % (
                args[0], proc.returncode, result.get("error", ""),
                proc.stderr.strip()[-400:]))
        return result

    def generate(self, wl, seed, corpus):
        return self.call("gen", "--out", corpus,
                         "--cloud-seed", str(CLOUD_SEED),
                         "--order-seed", str(seed),
                         "--entities", str(wl.entities), "--kbs", str(wl.kbs),
                         "--center", str(wl.center))

    def run(self, wl, corpus, spill_dir, threads=None, slice_size=0,
            trace=False, setup_only=False):
        args = ["run", "--corpus", corpus,
                "--threads", str(wl.threads if threads is None else threads),
                "--budget", str(wl.budget), "--slice", str(slice_size)]
        if wl.memory_budget:
            os.makedirs(spill_dir, exist_ok=True)
            args += ["--memory-budget", str(wl.memory_budget),
                     "--spill-dir", spill_dir]
        if trace:
            args.append("--trace")
        if setup_only:
            args.append("--setup-only")
        return self.call(*args)

    def probe(self):
        return self.call("probe")


class Tally:
    """Pipeline runs attempted and failed (error or digest mismatch)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def attempt(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except RunFailed as e:
            self.failed += 1
            self.errors.append(str(e))
            return None

    def check_digests(self, reference, runs, what):
        """Counts every run whose match digest differs from the reference."""
        for label, r in runs:
            if r is not None and r["digest"] != reference["digest"]:
                self.failed += 1
                self.errors.append("%s: %s digest %s != reference %s" % (
                    what, label, r["digest"], reference["digest"]))


# ---- Measurements ----------------------------------------------------------


def measure_untraced(h, wl, corpus, spill_dir, seconds, tally):
    """Repeats the untraced run while another repetition is expected to end
    within `seconds` (at least once), then adds set-up-only runs until
    set-up was measured at least three times. Returns end-to-end metric
    values (medians over the repetitions) and the raw runs."""
    reps = []
    durations = []
    while not reps or sum(durations) + statistics.median(durations) <= seconds:
        t0 = time.monotonic()
        r = tally.attempt(h.run, wl, corpus, spill_dir)
        durations.append(time.monotonic() - t0)
        if r is None:
            break
        reps.append(r)
    if not reps:
        return None, []
    setups = [r["setup_s"] for r in reps]
    while len(setups) < 3:
        r = tally.attempt(h.run, wl, corpus, spill_dir, setup_only=True)
        if r is None:
            break
        setups.append(r["setup_s"])
    tally.check_digests(reps[0], [("rep %d" % i, r)
                                  for i, r in enumerate(reps)], "untraced")
    metrics = {name: statistics.median(r[name] for r in reps)
               for name, _ in END_TO_END}
    metrics["setup_s"] = statistics.median(setups)
    return metrics, reps


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(traced, untraced):
    """Per-layer metrics of one traced run; `untraced` is the untraced run
    of the same workload and seed, for the tracing overhead."""
    spans = traced["spans"]
    counts = traced["counts"]
    by_name = {s["name"]: s for s in spans if s["name"] in TOP_SPANS}
    root = next(s for s in spans if s["name"] == "run")
    parse = next(s for s in spans if s["name"] == "rdf.parse")
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    walls = {}
    for name in TOP_SPANS:
        s = by_name[name]
        walls[name] = s["end_s"] - s["start_s"]
        put(name + ".wall_s", walls[name], "s")
        put(name + ".cpu_s", s["cpu_s"], "s")
        put(name + ".rss_delta_mb", s["rss_end_mb"] - s["rss_start_mb"], "MB")
        put(name + ".minflt", s["minflt"], "count")
    put("rdf.parse_s", parse["end_s"] - parse["start_s"], "s")
    put("rdf.parse_cpu_s", parse["cpu_s"], "s")
    put("kb.triples_per_s", traced["triples"] / walls["kb.load"], "1/s")

    put("blocking.blocks", counts["blocks"], "count")
    put("blocking.postings", counts["postings"], "count")
    put("blocking.kept_blocks", counts["kept_blocks"], "count")
    put("blocking.comparisons", counts["block_comparisons"], "count")
    put("metablocking.graph_edges", counts["graph_edges"], "count")
    put("metablocking.retained", counts["retained"], "count")
    put("metablocking.retained_ratio",
        counts["retained"] / max(1, counts["block_comparisons"]), "ratio")
    put("matching.neighbor_edges", counts["neighbor_edges"], "count")

    comparisons = traced["comparisons"]
    put("progressive.prime_candidates_per_s",
        counts["retained"] / walls["progressive.prime"], "1/s")
    put("progressive.comparisons", comparisons, "count")
    put("progressive.matches", traced["matches"], "count")
    put("progressive.match_rate", traced["matches"] / max(1, comparisons),
        "ratio")
    put("progressive.comparisons_per_s",
        comparisons / walls["progressive.step"], "1/s")
    put("progressive.update_matches", counts["update_matches"], "count")
    put("progressive.evidence_matches", counts["evidence_matches"], "count")
    put("progressive.pushes_per_comparison",
        (counts["total_pushes"] - counts["prime_pushes"]) / max(1, comparisons),
        "ratio")
    put("progressive.slice_ms_p50", percentile(traced["slice_ms"], 50), "ms")
    put("progressive.slice_ms_p99", percentile(traced["slice_ms"], 99), "ms")

    put("extmem.spill_bytes", counts["spill_bytes"], "bytes")
    put("extmem.runs", counts["spill_runs"], "count")
    put("extmem.sinks_spilled", counts["sinks_spilled"], "count")
    put("extmem.cascade_merges", counts["cascade_merges"], "count")

    busy_s = counts["pool_busy_us"] / 1e6
    parallel_wall = sum(walls[name] for name in PARALLEL_SPANS)
    put("util.pool_busy_s", busy_s, "s")
    put("util.pool_wait_s", counts["pool_wait_us"] / 1e6, "s")
    put("util.pool_efficiency",
        busy_s / (parallel_wall * counts["pool_threads"])
        if counts["pool_threads"] else 0.0, "ratio")

    run_wall = root["end_s"] - root["start_s"]
    put("bench.unattributed_s", run_wall - sum(walls.values()), "s")
    put("bench.trace_overhead_pct",
        100.0 * (run_wall - untraced["wall_s"]) / untraced["wall_s"], "%")
    return m


def measure_traced(h, wl, corpus, spill_dir, tally):
    """One untraced run, one traced sliced run and one 1-thread one-shot
    run of the same corpus; their match digests must agree."""
    untraced = tally.attempt(h.run, wl, corpus, spill_dir)
    traced = tally.attempt(h.run, wl, corpus, spill_dir, trace=True,
                           slice_size=wl.slice_size)
    reference = tally.attempt(h.run, wl, corpus, spill_dir, threads=1)
    if reference is not None:
        tally.check_digests(reference, [("untraced", untraced),
                                        ("traced", traced)], "traced")
    if untraced is None or traced is None:
        return None, traced
    return layer_metrics(traced, untraced), traced


# ---- Entry point -----------------------------------------------------------


def run_workload(h, wl, seed, seconds, trace, tally):
    """Generates the corpus for `seed`, measures it and removes it again.
    Returns (metrics or None, raw harness output for the result file)."""
    work = os.path.join(build_dir(), "work", "%s-seed%d" % (wl.name, seed))
    corpus = os.path.join(work, "corpus")
    spill_dir = os.path.join(work, "spill")
    shutil.rmtree(work, ignore_errors=True)
    try:
        h.generate(wl, seed, corpus)
        # Flush the freshly written corpus now, so its writeback does not
        # compete with the measured runs.
        for entry in os.scandir(corpus):
            with open(entry.path, "rb") as f:
                os.fsync(f.fileno())
        if trace:
            return measure_traced(h, wl, corpus, spill_dir, tally)
        values, reps = measure_untraced(h, wl, corpus, spill_dir, seconds,
                                        tally)
        if values is None:
            return None, reps
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END}, reps
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    # Turn SIGTERM into an exception, so the running harness process is
    # killed and waited for and the corpus is removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        binary = build_harness()
        machine = Harness(binary, time.monotonic() + RUN_DEADLINE_S).probe()
    except RunFailed as e:
        log("e2ebench: " + str(e))
        return 2
    machine.pop("ok", None)
    print("machine " + json.dumps(machine, sort_keys=True))

    # With --workload all, metric names are prefixed with the workload.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        wl = WORKLOADS[name]
        tally = Tally()
        try:
            metrics, detail = run_workload(
                Harness(binary, time.monotonic() + RUN_DEADLINE_S), wl,
                args.seed, args.seconds, args.trace, tally)
        except RunFailed as e:
            log("e2ebench: %s: %s" % (name, e))
            return 2
        for err in tally.errors:
            log("e2ebench: %s: FAILED %s" % (name, err))
        result = {"correct": tally.failed == 0 and metrics is not None,
                  "attempted": tally.attempted, "failed": tally.failed,
                  "metrics": metrics or {}}
        results = os.path.join(build_dir(), "results")
        os.makedirs(results, exist_ok=True)
        path = os.path.join(results, "%s-seed%d-trace%d.json" % (
            name, args.seed, args.trace))
        with open(path, "w") as f:
            json.dump({"workload": name, "seed": args.seed,
                       "machine": machine, "result": result, "runs": detail},
                      f, indent=1)

        prefix = name + "." if len(names) > 1 else ""
        for metric, m in sorted(result["metrics"].items()):
            print("%-52s %16.6g %s" % (prefix + metric, m["value"], m["unit"]))
            total["metrics"][prefix + metric] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total, sort_keys=True))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
