#!/usr/bin/env python3
"""CI perf-regression gate over the BENCH_*.json thread-sweep files.

Compares a freshly produced bench JSON (bench_t2_blocking /
bench_t3_metablocking output) against the checked-in baseline:

  tools/bench_compare.py --baseline bench/baselines/BENCH_t2_blocking.json \
                         --current BENCH_t2_blocking.json

Fails (exit 1) when
  * any sweep entry reports identical=false (parallel output diverged), or
  * single-thread wall time regressed more than --max-regression (default
    15%) against the baseline entry with the same phase/pruning key, or
  * the two files are not comparable (different bench, scale, or entities).

Multi-thread timings are reported but never gated: CI runners make weak
promises about spare cores, while the single-thread number is the stable
throughput signal. Wall-clock baselines are only meaningful against the
machine class that recorded them, so when the recorded
hardware_concurrency differs from the current machine's, timing
regressions downgrade to warnings (the identical=false gate still fails).
Under GitHub Actions the downgrade is surfaced as a `::warning::`
workflow annotation so it shows up on the run summary instead of being a
silent log line.

Reseeding a baseline (arms the timing gate):

  1. Use a machine of the CI runner class — >= 4 hardware cores. The
     thread-sweep harnesses run 8-thread legs; on a 2-core runner those
     numbers are meaningless and the recorded
     hardware_concurrency will disarm the gate for everyone else.
  2. Build Release and run the harness three times; keep the last
     BENCH_*.json (warm page cache), or download the `bench-json`
     artifact from a green CI run of the same runner class.
  3. tools/bench_compare.py --update \
         --baseline bench/baselines/BENCH_<x>.json --current BENCH_<x>.json
  4. Commit the refreshed baseline together with the change that moved
     the numbers, and say why in the commit message.

With --stats STATS.json (a `minoan resolve --metrics-out` file, schema
minoan-stats-v1) the tool additionally prints a per-phase wall-time
breakdown — phase name, milliseconds, share of the total, output
cardinality — plus thread-pool utilization and peak RSS. --stats can also
be used on its own, without --baseline/--current, as a quick pretty-printer:

  tools/bench_compare.py --stats metrics.json
"""

import argparse
import json
import os
import shutil
import sys


# Measurement fields: vary run to run, never part of an entry's identity.
# "advisory" marks entries whose timing is reported but never gated (e.g.
# forced-spill modes, which are disk-I/O bound and inherently jittery); the
# identical=false gate still applies to them.
MEASUREMENT_FIELDS = (
    "ms",
    "speedup",
    "identical",
    "advisory",
    "runs_spilled",
    "spill_bytes",
    "peak_rss_bytes",
)


def entry_key(entry):
    """Identity of one sweep entry: every field except the measurements."""
    return tuple(
        sorted(
            (k, v) for k, v in entry.items() if k not in MEASUREMENT_FIELDS
        )
    )


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"bench_compare: cannot read {path}: {err}")


def print_stats_breakdown(path):
    """Pretty-prints the per-phase timing breakdown of a minoan-stats-v1
    file (the `minoan resolve --metrics-out` output)."""
    stats = load(path)
    schema = stats.get("schema")
    if schema != "minoan-stats-v1":
        sys.exit(
            f"bench_compare: {path} is not a minoan-stats-v1 file "
            f"(schema {schema!r})"
        )
    phases = stats.get("phases", [])
    total_ms = sum(p.get("millis", 0.0) for p in phases)
    print(f"bench_compare: phase breakdown from {path}")
    name_width = max([len(p.get("name", "")) for p in phases] + [5])
    for phase in phases:
        millis = phase.get("millis", 0.0)
        share = (100.0 * millis / total_ms) if total_ms > 0 else 0.0
        print(
            f"  {phase.get('name', '?'):<{name_width}}  "
            f"{millis:>10.2f} ms  {share:>5.1f}%  "
            f"cardinality {phase.get('cardinality', 0)}"
        )
    print(f"  {'total':<{name_width}}  {total_ms:>10.2f} ms")
    pool = stats.get("pool", {})
    workers = pool.get("worker_busy_micros", [])
    if pool.get("tasks_executed"):
        busy_ms = pool.get("busy_micros_total", 0) / 1000.0
        print(
            f"  pool: {pool.get('tasks_executed')} tasks across "
            f"{len(workers)} workers, {busy_ms:.2f} ms busy, "
            f"{pool.get('queue_wait_micros', 0) / 1000.0:.2f} ms queue wait"
        )
    progress = stats.get("progress", [])
    if progress:
        last = progress[-1]
        print(
            f"  progress: {len(progress)} samples, final "
            f"{last.get('matches', 0)} matches / "
            f"{last.get('comparisons', 0)} comparisons"
        )
    rss = stats.get("peak_rss_bytes", 0)
    if rss:
        print(f"  peak rss: {rss / (1 << 20):.1f} MiB")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline")
    parser.add_argument("--current")
    parser.add_argument(
        "--stats",
        help="minoan-stats-v1 JSON (--metrics-out output); prints the "
        "per-phase timing breakdown",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.15,
        help="maximum tolerated single-thread slowdown (fraction, "
        "default 0.15)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="copy --current over --baseline instead of comparing",
    )
    args = parser.parse_args()

    if args.stats:
        print_stats_breakdown(args.stats)
        if not (args.baseline or args.current):
            return 0
        print()
    if not (args.baseline and args.current):
        parser.error("--baseline and --current are required unless running "
                     "--stats on its own")

    if args.update:
        shutil.copyfile(args.current, args.baseline)
        print(f"bench_compare: baseline {args.baseline} updated from "
              f"{args.current}")
        return 0

    baseline = load(args.baseline)
    current = load(args.current)

    failures = []
    for field in ("bench", "scale", "entities"):
        if baseline.get(field) != current.get(field):
            failures.append(
                f"not comparable: {field} differs "
                f"(baseline {baseline.get(field)!r}, "
                f"current {current.get(field)!r})"
            )
    # Machine class = core count: timings only gate against a baseline
    # recorded on the same class of machine.
    same_machine_class = baseline.get("hardware_concurrency") == current.get(
        "hardware_concurrency"
    )
    if not same_machine_class:
        detail = (
            "baseline was recorded on a different machine class "
            f"(hardware_concurrency {baseline.get('hardware_concurrency')} "
            f"vs {current.get('hardware_concurrency')}); timing regressions "
            "are advisory until the baseline is reseeded with --update on this "
            "runner class (>= 4 cores; see the module docstring)"
        )
        print(f"bench_compare: WARNING: {detail}")
        if os.environ.get("GITHUB_ACTIONS") == "true":
            # Workflow annotation: visible on the Actions run summary, so
            # the disarmed timing gate is never a silent downgrade.
            print(
                "::warning title=bench baseline machine-class mismatch"
                f"::{args.baseline}: {detail}"
            )
    base_entries = {entry_key(e): e for e in baseline.get("sweep", [])}
    if not base_entries:
        failures.append("baseline has no sweep entries")

    checked = 0
    for entry in current.get("sweep", []):
        label = ", ".join(
            f"{k}={v}"
            for k, v in entry.items()
            if k not in MEASUREMENT_FIELDS
        )
        if entry.get("identical") is False:
            failures.append(f"parallel output diverged: {label}")
        base = base_entries.get(entry_key(entry))
        if base is None:
            print(f"bench_compare: note: no baseline entry for {label}")
            continue
        if entry.get("threads") != 1:
            continue  # informational only; see module docstring
        base_ms, cur_ms = base.get("ms"), entry.get("ms")
        if not base_ms or base_ms <= 0:
            failures.append(f"baseline ms invalid for {label}")
            continue
        checked += 1
        ratio = (cur_ms - base_ms) / base_ms
        advisory = bool(entry.get("advisory"))
        verdict = "OK" if ratio <= args.max_regression else (
            "SLOW (advisory)" if advisory else "REGRESSED"
        )
        print(
            f"bench_compare: {verdict}: {label} "
            f"baseline {base_ms:.2f} ms, current {cur_ms:.2f} ms "
            f"({ratio:+.1%})"
        )
        if ratio > args.max_regression and same_machine_class and not advisory:
            failures.append(
                f"single-thread regression >{args.max_regression:.0%}: "
                f"{label} ({ratio:+.1%})"
            )

    if checked == 0:
        failures.append("no single-thread entries were compared")
    if failures:
        for failure in failures:
            print(f"bench_compare: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"bench_compare: OK ({checked} single-thread entries within "
          f"{args.max_regression:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
