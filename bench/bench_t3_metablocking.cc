// Experiment T3 — meta-blocking: weighting × pruning grid, plus the
// sharded-pruning thread sweep.
//
// The poster: "we accompany blocking with meta-blocking, which prunes …
// repeated comparisons [and] comparisons between descriptions that share few
// common blocks". This harness reproduces the standard grid — five
// weighting schemes × four pruning schemes — on the mixed cloud, reporting
// retained comparisons, PC retained, and PQ gain over raw blocking.
// Expected shape: 1-2 orders of magnitude fewer comparisons at single-digit
// PC loss; cardinality schemes (CEP/CNP) prune harder than weight schemes
// (WEP/WNP); node-centric schemes retain more recall than edge-centric.
//
// The thread sweep times MetaBlocking::Prune on a pool of {1, 2, 4, 8}
// workers (pool spawn included) per pruning scheme, asserts byte-identical
// output at every count, and writes BENCH_t3_metablocking.json. Expected
// shape: near-linear speedup up to the physical core count (flat on
// single-core machines — see the recorded hardware_concurrency), identical
// retained lists throughout.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <thread>

#include "bench_common.h"
#include "eval/metrics.h"
#include "metablocking/meta_blocking.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "util/table.h"

using namespace minoan;        // NOLINT
using namespace minoan::bench; // NOLINT

namespace {

double MedianOfThree(const std::function<double()>& run) {
  double a = run(), b = run(), c = run();
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

bool SameRetained(const std::vector<WeightedComparison>& a,
                  const std::vector<WeightedComparison>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(WeightedComparison)) ==
                           0);
}

}  // namespace

int main(int argc, char** argv) {
  const uint32_t scale = ParseScale(argc, argv);
  std::printf("== T3: meta-blocking weighting x pruning grid (mixed cloud, "
              "scale %u) ==\n\n", scale);

  World w = World::Make(MakeConfig(CloudProfile::kMixed, scale));
  BlockCollection blocks = TokenBlocking().Build(*w.collection);
  blocks.BuildEntityIndex(w.collection->num_entities());
  const BlockingMetrics raw = EvaluateBlocks(
      blocks, *w.collection, ResolutionMode::kCleanClean, *w.truth);
  std::printf("raw token blocking: %llu distinct comparisons, PC %.4f, "
              "PQ %.4f\n\n",
              static_cast<unsigned long long>(raw.comparisons),
              raw.pair_completeness, raw.pair_quality);

  Table table({"weighting", "pruning", "retained", "ratio_kept", "PC",
               "PC_retained", "PQ", "PQ_gain", "ms"});
  const uint64_t brute =
      BruteForceComparisons(*w.collection, ResolutionMode::kCleanClean);
  for (uint32_t ws = 0; ws < kNumWeightingSchemes; ++ws) {
    for (uint32_t ps = 0; ps < kNumPruningSchemes; ++ps) {
      MetaBlockingOptions opts;
      opts.weighting = static_cast<WeightingScheme>(ws);
      opts.pruning = static_cast<PruningScheme>(ps);
      Stopwatch watch;
      const auto retained =
          MetaBlocking(opts).Prune(blocks, *w.collection);
      const double ms = watch.ElapsedMillis();
      const BlockingMetrics m = EvaluateWeighted(retained, *w.truth, brute);
      table.AddRow()
          .Cell(WeightingSchemeName(opts.weighting))
          .Cell(PruningSchemeName(opts.pruning))
          .Cell(m.comparisons)
          .Cell(static_cast<double>(m.comparisons) /
                    static_cast<double>(raw.comparisons),
                4)
          .Cell(m.pair_completeness, 4)
          .Cell(m.pair_completeness / raw.pair_completeness, 4)
          .Cell(m.pair_quality, 4)
          .Cell(raw.pair_quality > 0 ? m.pair_quality / raw.pair_quality
                                     : 0.0,
                2)
          .Cell(ms, 1);
    }
  }
  table.Print(std::cout);

  // Reciprocal ablation for the node-centric schemes.
  std::printf("\nreciprocal node-centric variants (ECBS weighting):\n");
  Table recip({"pruning", "reciprocal", "retained", "PC", "PQ"});
  for (PruningScheme ps : {PruningScheme::kWnp, PruningScheme::kCnp}) {
    for (bool reciprocal : {false, true}) {
      MetaBlockingOptions opts;
      opts.pruning = ps;
      opts.reciprocal = reciprocal;
      const auto retained =
          MetaBlocking(opts).Prune(blocks, *w.collection);
      const BlockingMetrics m = EvaluateWeighted(retained, *w.truth, brute);
      recip.AddRow()
          .Cell(PruningSchemeName(ps))
          .Cell(reciprocal ? "yes" : "no")
          .Cell(m.comparisons)
          .Cell(m.pair_completeness, 4)
          .Cell(m.pair_quality, 4);
    }
  }
  recip.Print(std::cout);

  // ---- Sharded pruning thread sweep ---------------------------------------
  // ECBS weighting (the Web-of-Data default), all four pruning schemes.
  // Output must be byte-identical at every thread count; wall time is the
  // median of three runs.
  std::printf("\nsharded pruning thread sweep (ECBS weighting, median of 3; "
              "hardware_concurrency %u):\n",
              std::thread::hardware_concurrency());
  Table sweep({"pruning", "threads", "ms", "speedup", "identical"});
  std::string json = "{\n";
  json += "  \"bench\": \"t3_metablocking\",\n";
  json += "  \"scale\": " + std::to_string(scale) + ",\n";
  json += "  \"entities\": " +
          std::to_string(w.collection->num_entities()) + ",\n";
  json += "  \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"weighting\": \"ECBS\",\n";
  json += "  \"sweep\": [\n";
  bool first_entry = true;
  bool all_identical = true;
  for (uint32_t ps = 0; ps < kNumPruningSchemes; ++ps) {
    MetaBlockingOptions opts;
    opts.pruning = static_cast<PruningScheme>(ps);
    std::vector<WeightedComparison> reference;
    const double seq_ms = MedianOfThree([&] {
      Stopwatch watch;
      reference = MetaBlocking(opts).Prune(blocks, *w.collection);
      return watch.ElapsedMillis();
    });
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      std::vector<WeightedComparison> retained;
      const double ms =
          threads == 1 ? seq_ms : MedianOfThree([&] {
            Stopwatch watch;
            {  // spawn and join inside the timed region
              ThreadPool pool(threads);
              retained = MetaBlocking(opts).Prune(blocks, *w.collection,
                                                  nullptr, &pool);
            }
            return watch.ElapsedMillis();
          });
      const bool identical =
          threads == 1 || SameRetained(reference, retained);
      all_identical = all_identical && identical;
      const double speedup = seq_ms / std::max(0.01, ms);
      char speedup_s[32];
      std::snprintf(speedup_s, sizeof(speedup_s), "%.2f", speedup);
      sweep.AddRow()
          .Cell(PruningSchemeName(opts.pruning))
          .Cell(uint64_t{threads})
          .Cell(ms, 1)
          .Cell(speedup_s)
          .Cell(identical ? "yes" : "NO");
      char entry[256];
      std::snprintf(entry, sizeof(entry),
                    "    %s{\"pruning\": \"%s\", \"threads\": %u, "
                    "\"ms\": %.2f, \"speedup\": %.3f, \"identical\": %s}",
                    first_entry ? "" : ",", // valid JSON either way
                    std::string(PruningSchemeName(opts.pruning)).c_str(),
                    threads, ms, speedup, identical ? "true" : "false");
      json += entry;
      json += "\n";
      first_entry = false;
    }
  }
  json += "  ]\n}\n";
  sweep.Print(std::cout);
  const char* json_path = "BENCH_t3_metablocking.json";
  std::ofstream out(json_path);
  out << json;
  std::printf("wrote %s\n", json_path);
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: parallel pruning diverged from the sequential "
                 "reference (see 'identical' column)\n");
    return 1;
  }
  return 0;
}
