#!/usr/bin/env python3
"""CI validator for the observability outputs of `minoan resolve`.

Checks the two files the CLI writes:

  --metrics-out metrics.json   flat stats (schema minoan-stats-v1)
  --trace-out trace.json       Chrome-trace JSON (chrome://tracing,
                               ui.perfetto.dev)

Usage (the CI smoke run):

  tools/validate_obs.py --metrics metrics.json --trace trace.json \
      --expect-spill --expect-progress

With --server the file under --metrics is the one `minoan serve
--metrics-out` writes at shutdown: same minoan-stats-v1 schema, but the
pipeline-phase/pool/trace requirements are dropped (a daemon has no static
pipeline of its own) and the server.* request/session counters plus the
request-latency and checkpoint-size histograms must show real traffic.

With --tenant the per-tenant breakdown the server embeds under "tenants"
is validated: every field a non-negative integer, request-latency
quantiles monotone (p50 <= p95 <= p99), every histogram's quantiles
inside its [min, max] envelope, and the tenant sums of comparisons /
matches / sessions no larger than the matching process-wide server.*
counters (they are dual-written at the same instrumentation site, so a
sum exceeding its total means scoping is broken). --tenant composes with
--server for the shutdown file and stands alone (with --no-trace) for
mid-run rolling snapshots, where the traffic counters may not have
settled yet.

The trace check enforces the Chrome Trace Event format contract every
viewer relies on: a "traceEvents" array of complete ("ph":"X") events,
each with name / integer ts / non-negative dur / pid / tid, so the file is
loadable in Perfetto without guessing. The stats check enforces the
minoan-stats-v1 shape: every static pipeline phase timed, non-empty
counters with the blocking/prune signals, the progressive.* scheduler
counters present with run_pops + heap_pops covering every comparison the
quality curve saw executed, pool utilization consistent with the worker
vector, and a positive peak RSS. --expect-spill requires the
spill.* counters to show actual spill activity (the smoke run forces it
with a tiny --memory-budget); --expect-progress requires a non-empty
progressive-quality curve with internally consistent samples.

With --same-counters REF the run must also match a reference stats file
on every blocking.* and prune.* counter and histogram: the out-of-core
stress job passes the unbudgeted run's file, because the memory budget
picks only the shuffle sink and must leave that telemetry unchanged.

Exit 0 when everything holds; exit 1 listing every violation otherwise.
"""

import argparse
import json
import sys

# Static phases the session must have timed, in pipeline order.
EXPECTED_PHASES = (
    "blocking",
    "block-cleaning",
    "meta-blocking",
    "graph+evaluator",
)

# Counters every instrumented resolve run must report (non-zero).
EXPECTED_COUNTERS = (
    "blocking.chunks",
    "blocking.postings",
    "prune.chunks",
    "prune.retained",
)

SPILL_COUNTERS = ("spill.runs", "spill.bytes", "spill.sinks_spilled")

# Scheduler counters every resolve run must report (present; zero is legal,
# e.g. superseded_skips when no update-phase push outranked the run).
SCHEDULER_COUNTERS = (
    "progressive.prime_candidates",
    "progressive.run_pops",
    "progressive.heap_pops",
    "progressive.superseded_skips",
)

# Metric prefixes --same-counters compares against the reference run.
SAME_COUNTER_PREFIXES = ("blocking.", "prune.")

# Counters a served smoke run must report (non-zero): requests were
# answered, sessions were created, and eviction + transparent restore
# actually happened.
SERVER_COUNTERS = (
    "server.requests.create",
    "server.requests.step",
    "server.comparisons",
    "server.sessions.created",
    "server.sessions.evicted",
    "server.sessions.restored",
)

SERVER_HISTOGRAMS = ("server.request_micros", "server.checkpoint_bytes")


def load(path, problems):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        problems.append(f"cannot read {path}: {err}")
        return None


def check_trace(trace, problems):
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        problems.append("trace: traceEvents missing or not an array")
        return
    if not events:
        problems.append("trace: no events recorded (was --trace-out passed?)")
        return
    names = set()
    for i, event in enumerate(events):
        where = f"trace: event {i}"
        if not isinstance(event.get("name"), str) or not event.get("name"):
            problems.append(f"{where}: missing name")
            continue
        names.add(event["name"])
        if event.get("ph") != "X":
            problems.append(f"{where}: ph must be 'X' (complete event)")
        for field in ("ts", "dur", "pid", "tid"):
            if not isinstance(event.get(field), int) or event[field] < 0:
                problems.append(
                    f"{where}: {field} must be a non-negative integer"
                )
        args = event.get("args")
        if not isinstance(args, dict) or "depth" not in args:
            problems.append(f"{where}: args.depth missing")
    for phase in EXPECTED_PHASES:
        if phase not in names:
            problems.append(f"trace: no span named {phase!r}")
    if "open" not in names:
        problems.append("trace: no enclosing 'open' span")


def check_stats(stats, problems, expect_spill, expect_progress):
    if stats.get("schema") != "minoan-stats-v1":
        problems.append(
            f"stats: schema is {stats.get('schema')!r}, "
            "expected 'minoan-stats-v1'"
        )
    phase_names = [p.get("name") for p in stats.get("phases", [])]
    for phase in EXPECTED_PHASES:
        if phase not in phase_names:
            problems.append(f"stats: phase {phase!r} missing")
    for phase in stats.get("phases", []):
        if phase.get("millis", -1) < 0:
            problems.append(f"stats: phase {phase.get('name')!r} has no "
                            "wall time")

    counters = stats.get("counters", {})
    for name in EXPECTED_COUNTERS:
        if not counters.get(name):
            problems.append(f"stats: counter {name!r} missing or zero")
    if expect_spill:
        for name in SPILL_COUNTERS:
            if not counters.get(name):
                problems.append(
                    f"stats: counter {name!r} missing or zero — the smoke "
                    "run must force spilling with a tiny --memory-budget"
                )

    for name in SCHEDULER_COUNTERS:
        if name not in counters:
            problems.append(f"stats: counter {name!r} missing")

    pool = stats.get("pool", {})
    workers = pool.get("worker_busy_micros")
    if not isinstance(workers, list):
        problems.append("stats: pool.worker_busy_micros missing")
    elif pool.get("busy_micros_total") != sum(workers):
        problems.append("stats: pool.busy_micros_total does not equal the "
                        "sum of worker_busy_micros")

    progress = stats.get("progress", [])
    if expect_progress:
        if not progress:
            problems.append("stats: progress curve empty — pass "
                            "--progress-every to the smoke run")
        prev = None
        for i, sample in enumerate(progress):
            comparisons = sample.get("comparisons", -1)
            matches = sample.get("matches", -1)
            if comparisons < 0 or matches < 0:
                problems.append(f"stats: progress sample {i} malformed")
                continue
            if matches > comparisons:
                problems.append(
                    f"stats: progress sample {i} reports more matches than "
                    "comparisons"
                )
            if prev is not None and (
                comparisons <= prev["comparisons"]
                or matches < prev["matches"]
            ):
                problems.append(
                    f"stats: progress sample {i} is not monotone"
                )
            prev = sample
    # Every executed comparison was popped from the run or the heap first
    # (pops of stale or already-executed pairs only add to the sum).
    if progress:
        executed = max(sample.get("comparisons", 0) for sample in progress)
        pops = (counters.get("progressive.run_pops", 0)
                + counters.get("progressive.heap_pops", 0))
        if pops < executed:
            problems.append(
                f"stats: run_pops + heap_pops = {pops} is below the "
                f"{executed} comparisons executed"
            )

    if stats.get("peak_rss_bytes", 0) <= 0:
        problems.append("stats: peak_rss_bytes missing or zero")


def check_same_counters(stats, reference, problems):
    for section in ("counters", "histograms"):
        got = stats.get(section, {})
        want = reference.get(section, {})
        names = {name for name in list(got) + list(want)
                 if name.startswith(SAME_COUNTER_PREFIXES)}
        for name in sorted(names):
            if got.get(name) != want.get(name):
                problems.append(
                    f"stats: {section} {name!r} is {got.get(name)!r}, "
                    f"the reference run has {want.get(name)!r}"
                )


def check_server_stats(stats, problems):
    if stats.get("schema") != "minoan-stats-v1":
        problems.append(
            f"stats: schema is {stats.get('schema')!r}, "
            "expected 'minoan-stats-v1'"
        )
    counters = stats.get("counters", {})
    for name in SERVER_COUNTERS:
        if not counters.get(name):
            problems.append(
                f"stats: counter {name!r} missing or zero — the smoke "
                "script must create, step, and idle a session past "
                "--evict-after before resuming it"
            )
    histograms = stats.get("histograms", {})
    for name in SERVER_HISTOGRAMS:
        hist = histograms.get(name)
        if not isinstance(hist, dict) or hist.get("count", 0) <= 0:
            problems.append(f"stats: histogram {name!r} missing or empty")
        elif hist.get("min", -1) < 0 or hist.get("max", -1) < hist["min"]:
            problems.append(f"stats: histogram {name!r} malformed")
    gauges = stats.get("gauges", {})
    if "server.sessions.live" not in gauges:
        problems.append("stats: gauge 'server.sessions.live' missing")
    if stats.get("peak_rss_bytes", 0) <= 0:
        problems.append("stats: peak_rss_bytes missing or zero")


def check_tenants(stats, problems):
    tenants = stats.get("tenants")
    if not isinstance(tenants, dict):
        problems.append("stats: 'tenants' missing or not an object — was "
                        "the file written by a server with per-tenant "
                        "scoping?")
        return
    int_fields = ("sessions", "requests", "comparisons", "matches",
                  "spill_bytes")
    sums = {field: 0 for field in int_fields}
    for name, tenant in sorted(tenants.items()):
        where = f"stats: tenant {name!r}"
        if not isinstance(tenant, dict):
            problems.append(f"{where}: not an object")
            continue
        for field in int_fields:
            value = tenant.get(field)
            if not isinstance(value, int) or value < 0:
                problems.append(
                    f"{where}: {field} must be a non-negative integer"
                )
            else:
                sums[field] += value
        micros = tenant.get("request_micros")
        if not isinstance(micros, dict):
            problems.append(f"{where}: request_micros missing")
            continue
        quantiles = [micros.get(q) for q in ("p50", "p95", "p99")]
        if not all(isinstance(q, (int, float)) and q >= 0
                   for q in quantiles):
            problems.append(f"{where}: request_micros quantiles malformed")
        elif not quantiles[0] <= quantiles[1] <= quantiles[2]:
            problems.append(
                f"{where}: request_micros quantiles not monotone "
                f"(p50={quantiles[0]} p95={quantiles[1]} "
                f"p99={quantiles[2]})"
            )
    # The per-tenant counters are dual-written at the same site as the
    # process totals, so the tenant sums can never exceed them. (Equality
    # is not required here: the process counter may also count traffic
    # from before a tenant map reset, and spill attribution is sampled.)
    counters = stats.get("counters", {})
    for field, total_name in (
        ("comparisons", "server.comparisons"),
        ("matches", "server.matches"),
        ("sessions", "server.sessions.created"),
    ):
        total = counters.get(total_name, 0)
        if sums[field] > total:
            problems.append(
                f"stats: tenant {field} sum {sums[field]} exceeds "
                f"process counter {total_name!r} = {total}"
            )
    # Quantiles of every histogram must sit inside the [min, max]
    # envelope and be monotone in q.
    for name, hist in sorted(stats.get("histograms", {}).items()):
        if not isinstance(hist, dict) or hist.get("count", 0) <= 0:
            continue
        quantiles = [hist.get(q) for q in ("p50", "p95", "p99")]
        if not all(isinstance(q, (int, float)) for q in quantiles):
            problems.append(f"stats: histogram {name!r} lacks quantiles")
            continue
        if not quantiles[0] <= quantiles[1] <= quantiles[2]:
            problems.append(
                f"stats: histogram {name!r} quantiles not monotone"
            )
        if quantiles[0] < hist.get("min", 0) or \
                quantiles[2] > hist.get("max", 0):
            problems.append(
                f"stats: histogram {name!r} quantiles escape the "
                "[min, max] envelope"
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--metrics", required=True,
                        help="--metrics-out file (minoan-stats-v1)")
    parser.add_argument("--trace",
                        help="--trace-out file (Chrome-trace JSON); "
                             "required unless --server")
    parser.add_argument("--expect-spill", action="store_true",
                        help="require non-zero spill.* counters")
    parser.add_argument("--expect-progress", action="store_true",
                        help="require a non-empty quality curve")
    parser.add_argument("--server", action="store_true",
                        help="validate a `minoan serve --metrics-out` file "
                             "(server.* counters; no trace/phase checks)")
    parser.add_argument("--no-trace", action="store_true",
                        help="validate the stats file alone (runs that "
                             "did not pass --trace-out, e.g. the "
                             "out-of-core stress job)")
    parser.add_argument("--same-counters", metavar="REF",
                        help="require every blocking.* and prune.* counter "
                             "and histogram to equal those of the stats "
                             "file REF (e.g. the unbudgeted run)")
    parser.add_argument("--tenant", action="store_true",
                        help="validate the per-tenant breakdown and "
                             "histogram quantiles (server stats files; "
                             "composes with --server, or stands alone "
                             "for mid-run rolling snapshots)")
    args = parser.parse_args()
    if not args.server and not args.trace and not args.no_trace:
        parser.error("--trace is required unless --server or --no-trace")

    problems = []
    stats = load(args.metrics, problems)
    trace = load(args.trace, problems) if args.trace else None
    reference = (load(args.same_counters, problems)
                 if args.same_counters else None)
    if stats is not None:
        if args.server:
            check_server_stats(stats, problems)
        elif not args.tenant:
            check_stats(stats, problems, args.expect_spill,
                        args.expect_progress)
        if args.tenant:
            check_tenants(stats, problems)
        if reference is not None:
            check_same_counters(stats, reference, problems)
    if trace is not None:
        check_trace(trace, problems)

    if problems:
        for problem in problems:
            print(f"validate_obs: FAIL: {problem}", file=sys.stderr)
        return 1
    counters = len(stats.get("counters", {}))
    events = len(trace.get("traceEvents", [])) if trace is not None else 0
    print(f"validate_obs: OK ({events} trace events, {counters} counters, "
          f"{len(stats.get('progress', []))} progress samples)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
