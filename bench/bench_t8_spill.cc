// Experiment T8 — external-memory shuffle: in-memory vs forced-spill.
//
// The spill engine (src/extmem/) promises two things: (1) with a memory
// budget, every shard shuffle (postings, sorted-neighborhood key sort,
// WEP/CEP edge lists, vote shards) holds bounded RAM and spills sorted runs
// to disk, and (2) the output is BYTE-identical to
// the in-memory path. This harness measures the price of promise (1) and
// asserts promise (2): the full static pipeline (blocking → cleaning →
// meta-blocking) runs in-memory and under two budgets (a roomy one and a
// pathological tiny one), at 1 and 8 threads, recording wall time, spill
// telemetry (runs/bytes written), and the process peak-RSS high-water mark
// (monotone within a process, so per-mode deltas are an upper-bound
// estimate, recorded for trend tracking rather than gating).
//
// Two mode families, each gated against its own in-memory reference:
//   * stream-*: the default token+pis workflow under a budget — the one
//     postings body takes the spilling sink, and merged postings are
//     decoded from the spill runs into the session's block store one at a
//     time;
//   * sn-extsort-*: sorted neighborhood under a budget — its one-shard key
//     shuffle takes the spilling sink, an external merge sort.
//
// Writes BENCH_t8_spill.json (consumed by tools/bench_compare.py; the
// identity flag gates, single-thread in-memory timing regresses the gate).
// Expected shape: the roomy budget costs a modest serialization overhead;
// the tiny budget pays real I/O; everything stays byte-identical.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench_common.h"
#include "core/session.h"
#include "extmem/shuffle.h"
#include "obs/report.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace minoan;        // NOLINT
using namespace minoan::bench; // NOLINT
using minoan::obs::PeakRssBytes;

namespace {

struct ModeResult {
  ResolutionReport report;
  double open_ms = 0.0;
  uint64_t runs_spilled = 0;
  uint64_t bytes_spilled = 0;
  uint64_t peak_rss_after = 0;
};

/// True when the two reports carry identical static-phase output and the
/// exact same match bits.
bool SameOutcome(const ResolutionReport& a, const ResolutionReport& b) {
  if (a.blocks_built != b.blocks_built ||
      a.blocks_after_cleaning != b.blocks_after_cleaning ||
      a.comparisons_before_meta != b.comparisons_before_meta ||
      a.comparisons_after_meta != b.comparisons_after_meta ||
      a.meta_stats.retained_edges != b.meta_stats.retained_edges ||
      std::memcmp(&a.meta_stats.mean_weight, &b.meta_stats.mean_weight,
                  sizeof(double)) != 0 ||
      a.progressive.run.comparisons_executed !=
          b.progressive.run.comparisons_executed ||
      a.progressive.run.matches.size() != b.progressive.run.matches.size()) {
    return false;
  }
  for (size_t i = 0; i < a.progressive.run.matches.size(); ++i) {
    const MatchEvent& ma = a.progressive.run.matches[i];
    const MatchEvent& mb = b.progressive.run.matches[i];
    if (ma.a != mb.a || ma.b != mb.b ||
        ma.comparisons_done != mb.comparisons_done ||
        std::memcmp(&ma.similarity, &mb.similarity, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const uint32_t scale = ParseScale(argc, argv);
  std::printf("== T8: external-memory shuffle, in-memory vs forced spill "
              "(scale %u) ==\n\n", scale);

  World w = World::Make(MakeConfig(CloudProfile::kMixed, scale));
  const uint32_t n = w.collection->num_entities();

  struct Mode {
    const char* name;
    uint64_t budget_bytes;  // 0 = in-memory
    BlockerChoice blocker;
    int reference_group;  // modes gate against the group's in-memory run
  };
  const Mode modes[] = {
      // token+pis: budgeted runs stream merged postings into the block
      // store (no materialized postings).
      {"in-memory", 0, BlockerChoice::kTokenPlusPis, 0},
      {"stream-16m", 16ull << 20, BlockerChoice::kTokenPlusPis, 0},
      // pathological: forces many runs/shard
      {"stream-64k", 64ull << 10, BlockerChoice::kTokenPlusPis, 0},
      // sorted neighborhood: the budgeted run sorts its key list with the
      // external single-stream merge sort.
      {"sn-inmem", 0, BlockerChoice::kSortedNeighborhood, 1},
      {"sn-extsort-64k", 64ull << 10, BlockerChoice::kSortedNeighborhood, 1},
  };

  Table table({"mode", "threads", "open_ms", "runs", "spill_mb",
               "peak_rss_mb", "identical"});
  std::string json = "{\n";
  json += "  \"bench\": \"t8_spill\",\n";
  json += "  \"scale\": " + std::to_string(scale) + ",\n";
  json += "  \"entities\": " + std::to_string(n) + ",\n";
  json += "  \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"sweep\": [\n";
  bool first_entry = true;
  bool all_identical = true;

  ModeResult references[2];
  bool have_reference[2] = {false, false};
  for (const Mode& mode : modes) {
    for (uint32_t threads : {1u, 8u}) {
      WorkflowOptions options;
      options.blocker = mode.blocker;
      options.num_threads = threads;
      options.progressive.matcher.threshold = 0.3;
      options.memory.shuffle_budget_bytes = mode.budget_bytes;

      // Median of three opens (the static phases are where the shuffles
      // run); the report comes from the last session — identical bytes
      // every time, which SameOutcome cross-checks below.
      ModeResult result;
      std::array<double, 3> open_ms;
      for (double& ms : open_ms) {
        extmem::ResetSpillTelemetry();
        Stopwatch watch;
        auto session = ResolutionSession::Open(*w.collection, options);
        ms = watch.ElapsedMillis();
        if (!session.ok()) {
          std::fprintf(stderr, "FAIL: open (%s, %u threads): %s\n",
                       mode.name, threads,
                       session.status().ToString().c_str());
          return 1;
        }
        session->Step(0);
        result.report = session->Report();
      }
      std::sort(open_ms.begin(), open_ms.end());
      result.open_ms = open_ms[1];
      const extmem::SpillTelemetry telemetry = extmem::GetSpillTelemetry();
      result.runs_spilled = telemetry.runs_spilled;
      result.bytes_spilled = telemetry.bytes_spilled;
      result.peak_rss_after = PeakRssBytes();

      bool identical = true;
      if (!have_reference[mode.reference_group]) {
        references[mode.reference_group] = result;
        have_reference[mode.reference_group] = true;
      } else {
        identical = SameOutcome(references[mode.reference_group].report,
                                result.report);
      }
      all_identical = all_identical && identical;

      table.AddRow()
          .Cell(mode.name)
          .Cell(uint64_t{threads})
          .Cell(result.open_ms, 1)
          .Cell(result.runs_spilled)
          .Cell(static_cast<double>(result.bytes_spilled) / (1 << 20), 2)
          .Cell(static_cast<double>(result.peak_rss_after) / (1 << 20), 1)
          .Cell(identical ? "yes" : "NO");

      // Spill modes carry advisory timings: disk-bound wall time is too
      // jittery to hard-gate, while the in-memory single-thread number is
      // the stable regression signal (and guards the fast path against
      // overhead from this refactor). Identity always gates.
      char entry[384];
      std::snprintf(
          entry, sizeof(entry),
          "    %s{\"phase\": \"pipeline\", \"mode\": \"%s\", "
          "\"threads\": %u, \"ms\": %.2f, \"advisory\": %s, "
          "\"runs_spilled\": %llu, \"spill_bytes\": %llu, "
          "\"peak_rss_bytes\": %llu, \"identical\": %s}",
          first_entry ? "" : ",", mode.name, threads, result.open_ms,
          mode.budget_bytes > 0 ? "true" : "false",
          static_cast<unsigned long long>(result.runs_spilled),
          static_cast<unsigned long long>(result.bytes_spilled),
          static_cast<unsigned long long>(result.peak_rss_after),
          identical ? "true" : "false");
      json += entry;
      json += "\n";
      first_entry = false;
    }
  }
  json += "  ]\n}\n";
  table.Print(std::cout);

  const char* json_path = "BENCH_t8_spill.json";
  std::ofstream out(json_path);
  out << json;
  std::printf("wrote %s\n", json_path);
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: spilled pipeline diverged from the "
                         "in-memory reference (see 'identical' column)\n");
    return 1;
  }
  return 0;
}
