#!/usr/bin/env python3
"""Seconds-long self-test of the end-to-end benchmark.

Runs a few-thousand-entity version of every workload in run.py through the
same code paths the benchmark uses and checks that

  * every metric BENCHMARK.json names is emitted, with its unit, by the
    untraced (end-to-end) and the traced (per-layer) run;
  * the traced run's spans nest under their parents and the layers tile
    the run;
  * match digests agree across 1 and 4 threads and two Step slice sizes,
    and a digest mismatch is counted as a failed run.

Run from the root of a checkout:  python3 e2ebench/selftest.py
Exits 0 when every check passes, 1 otherwise.
"""

import dataclasses
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Small variants: same shape and thread count, tiny corpus and budgets. The
# spill variant gets a 64 KiB budget so it really spills at this size.
SMALL = {
    "full-mixed": dict(entities=3_000, budget=0, memory_budget=0,
                       slice_size=500),
    "payg-center": dict(entities=2_000, budget=5_000, memory_budget=0,
                        slice_size=250),
    "spill-mixed": dict(entities=3_000, budget=5_000, memory_budget=64 * 1024,
                        slice_size=250),
}
SEED = 7


class Checker:
    def __init__(self):
        self.failures = []

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)
            print("FAIL " + what)


def check_metrics(c, label, metrics, spec):
    """Every metric in `spec` (BENCHMARK.json entries) emitted, with its
    unit, as a finite number; nothing emitted that the spec lacks."""
    names = {m["name"] for m in spec}
    for m in spec:
        got = metrics.get(m["name"])
        c.check(got is not None, "%s: metric %s missing" % (label, m["name"]))
        if got is None:
            continue
        c.check(got["unit"] == m["unit"], "%s: %s unit %r != %r" % (
            label, m["name"], got["unit"], m["unit"]))
        c.check(isinstance(got["value"], (int, float))
                and got["value"] == got["value"],
                "%s: %s value %r" % (label, m["name"], got["value"]))
    extra = sorted(set(metrics) - names)
    c.check(not extra, "%s: metrics not in BENCHMARK.json: %s" % (label, extra))


def check_spans(c, label, spans):
    """Parents exist and enclose their children; the top-level layers tile
    the root span in order; slices sit under progressive.step."""
    eps = 1e-9
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        c.check(s["closed"], "%s: span %s left open" % (label, s["name"]))
        c.check(s["start_s"] <= s["end_s"] + eps,
                "%s: span %s ends before it starts" % (label, s["name"]))
        if s["parent"] < 0:
            continue
        p = by_id.get(s["parent"])
        c.check(p is not None, "%s: span %s has no parent %d" % (
            label, s["name"], s["parent"]))
        if p is None:
            continue
        c.check(p["start_s"] <= s["start_s"] + eps
                and s["end_s"] <= p["end_s"] + eps,
                "%s: span %s escapes its parent %s" % (
                    label, s["name"], p["name"]))
        if s["name"] == "progressive.slice":
            c.check(p["name"] == "progressive.step",
                    "%s: slice under %s" % (label, p["name"]))
    roots = [s for s in spans if s["parent"] < 0]
    c.check(sorted(r["name"] for r in roots) == ["rdf.parse", "run"],
            "%s: roots %s" % (label, [r["name"] for r in roots]))
    root = next((r for r in roots if r["name"] == "run"), None)
    if root is None:
        return
    top = [s for s in spans if s["parent"] == root["id"]]
    c.check(tuple(s["name"] for s in top) == run.TOP_SPANS,
            "%s: top-level spans %s" % (label, [s["name"] for s in top]))
    for a, b in zip(top, top[1:]):
        c.check(a["end_s"] <= b["start_s"] + eps,
                "%s: %s overlaps %s" % (label, a["name"], b["name"]))
    slices = [s for s in spans if s["name"] == "progressive.slice"]
    c.check(len(slices) >= 2, "%s: only %d slices" % (label, len(slices)))


def main():
    spec_path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    c = Checker()
    c.check(sorted(w["name"] for w in spec["workloads"]) ==
            sorted(run.WORKLOADS), "BENCHMARK.json workloads != run.py's")

    t0 = time.monotonic()
    h = run.Harness(run.build_harness(), time.monotonic() + 600)
    work = os.path.join(run.build_dir(), "selftest")
    for name, wl in sorted(run.WORKLOADS.items()):
        small = dataclasses.replace(wl, **SMALL[name])
        label = name + " (small)"

        tally = run.Tally()
        metrics, _ = run.run_workload(h, small, SEED, 0, 0, tally)
        c.check(tally.failed == 0, "%s: untraced failures %s" % (
            label, tally.errors))
        check_metrics(c, label + " trace 0", metrics or {},
                      spec["end_to_end"])

        tally = run.Tally()
        layers, traced = run.run_workload(h, small, SEED, 0, 1, tally)
        c.check(tally.failed == 0, "%s: traced failures %s" % (
            label, tally.errors))
        check_metrics(c, label + " trace 1", layers or {}, spec["per_layer"])
        if traced:
            check_spans(c, label, traced["spans"])
        if layers:
            spilled = layers["extmem.spill_bytes"]["value"] > 0
            c.check(spilled == (small.memory_budget > 0),
                    "%s: extmem.spill_bytes %r" % (
                        label, layers["extmem.spill_bytes"]["value"]))
            pooled = layers["util.pool_busy_s"]["value"] > 0
            c.check(pooled == (small.threads > 1), "%s: util.pool_busy_s %r"
                    % (label, layers["util.pool_busy_s"]["value"]))

        # Digest gate across thread counts and Step slice sizes.
        corpus = os.path.join(work, name, "corpus")
        spill = os.path.join(work, name, "spill")
        shutil.rmtree(os.path.join(work, name), ignore_errors=True)
        h.generate(small, SEED, corpus)
        tally = run.Tally()
        runs = [("t%d slice%d" % (t, s),
                 tally.attempt(h.run, small, corpus, spill, threads=t,
                               slice_size=s))
                for t in (1, 4) for s in (0, 97, 1_000)]
        reference = runs[0][1]
        c.check(tally.failed == 0 and reference is not None,
                "%s: digest runs failed %s" % (label, tally.errors))
        if reference is not None:
            tally.check_digests(reference, runs, "gate")
            c.check(tally.failed == 0, "%s: digests differ: %s" % (
                label, tally.errors))
            # The gate must count a mismatch as a failed run.
            tampered = dict(reference, digest="0" * 16)
            probe = run.Tally()
            probe.check_digests(reference, [("tampered", tampered)], "probe")
            c.check(probe.failed == 1, "%s: mismatch not counted" % label)
        shutil.rmtree(os.path.join(work, name), ignore_errors=True)
    shutil.rmtree(work, ignore_errors=True)

    print("selftest: %d failure(s) in %.1f s" % (
        len(c.failures), time.monotonic() - t0))
    return 1 if c.failures else 0


if __name__ == "__main__":
    sys.exit(main())
