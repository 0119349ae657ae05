// Experiment T2 — blocking effectiveness: highly vs somehow similar, plus
// the sharded-blocking thread sweep.
//
// The poster claims token-style blocking handles "highly similar"
// descriptions (LOD center) but "may miss highly heterogeneous matching
// descriptions featuring few common tokens" (periphery). This harness
// measures PC / PQ / RR / comparisons for each blocking method on the three
// cloud profiles, plus the effect of block cleaning.
// Expected shape: token blocking PC ~ 1.0 on center, visibly lower on
// periphery; composite (token+PIS) recovers part of the gap; cleaning cuts
// comparisons at marginal PC cost.
//
// The thread sweep times sharded index construction and graph-view
// construction at 1/2/4/8 threads, asserts byte-identical output at every
// count, and writes BENCH_t2_blocking.json (consumed by the CI regression
// gate, tools/bench_compare.py). Expected shape: near-linear speedup up to
// the physical core count (flat on single-core machines — see the recorded
// hardware_concurrency), identical blocks throughout.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <thread>

#include "bench_common.h"
#include "blocking/block_cleaning.h"
#include "blocking/char_blocking.h"
#include "eval/metrics.h"
#include "metablocking/blocking_graph.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace minoan;        // NOLINT
using namespace minoan::bench; // NOLINT

namespace {

std::unique_ptr<BlockingMethod> MakeMethod(const std::string& name) {
  if (name == "token") return std::make_unique<TokenBlocking>();
  if (name == "pis") return std::make_unique<PisBlocking>();
  if (name == "attr-cluster") {
    return std::make_unique<AttributeClusteringBlocking>();
  }
  std::vector<std::unique_ptr<BlockingMethod>> methods;
  methods.push_back(std::make_unique<TokenBlocking>());
  methods.push_back(std::make_unique<PisBlocking>());
  return std::make_unique<CompositeBlocking>(std::move(methods));
}

double MedianOfThree(const std::function<double()>& run) {
  double a = run(), b = run(), c = run();
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

bool SameBlocks(const BlockCollection& a, const BlockCollection& b) {
  if (a.num_blocks() != b.num_blocks()) return false;
  for (uint32_t i = 0; i < a.num_blocks(); ++i) {
    if (a.KeyString(i) != b.KeyString(i) ||
        !std::ranges::equal(a.entities(i), b.entities(i))) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const uint32_t scale = ParseScale(argc, argv);
  std::printf("== T2: blocking on highly vs somehow similar descriptions "
              "(scale %u) ==\n\n", scale);

  Table table({"cloud", "method", "blocks", "comparisons", "PC", "PQ", "RR",
               "build_ms"});
  for (CloudProfile profile :
       {CloudProfile::kCenter, CloudProfile::kPeriphery,
        CloudProfile::kMixed}) {
    World w = World::Make(MakeConfig(profile, scale));
    for (const std::string method_name :
         {"token", "pis", "attr-cluster", "token+pis"}) {
      auto method = MakeMethod(method_name);
      Stopwatch watch;
      BlockCollection blocks = method->Build(*w.collection);
      const double build_ms = watch.ElapsedMillis();
      const BlockingMetrics m = EvaluateBlocks(
          blocks, *w.collection, ResolutionMode::kCleanClean, *w.truth);
      table.AddRow()
          .Cell(CloudProfileName(profile))
          .Cell(method_name)
          .Cell(static_cast<uint64_t>(blocks.num_blocks()))
          .Cell(m.comparisons)
          .Cell(m.pair_completeness, 4)
          .Cell(m.pair_quality, 4)
          .Cell(m.reduction_ratio, 4)
          .Cell(build_ms, 1);
    }
  }
  table.Print(std::cout);

  // Cleaning ablation on the mixed cloud: purge + filter.
  std::printf("\nblock cleaning (token blocking, mixed cloud):\n");
  World w = World::Make(MakeConfig(CloudProfile::kMixed, scale));
  Table cleaning({"stage", "blocks", "aggregate_cmp", "PC"});
  BlockCollection blocks = TokenBlocking().Build(*w.collection);
  auto report = [&](const char* stage) {
    const BlockingMetrics m = EvaluateBlocks(
        blocks, *w.collection, ResolutionMode::kCleanClean, *w.truth);
    cleaning.AddRow()
        .Cell(stage)
        .Cell(static_cast<uint64_t>(blocks.num_blocks()))
        .Cell(blocks.AggregateComparisons(*w.collection,
                                          ResolutionMode::kCleanClean))
        .Cell(m.pair_completeness, 4);
  };
  report("raw");
  AutoPurge(blocks, *w.collection, ResolutionMode::kCleanClean);
  report("+auto-purge");
  FilterBlocks(blocks, 0.8, *w.collection, ResolutionMode::kCleanClean);
  report("+filter(0.8)");
  cleaning.Print(std::cout);

  // Character noise: typos break exact token keys. On token-rich center
  // descriptions redundancy hides this; on the sparse periphery every lost
  // token costs recall, and q-grams absorb the damage.
  std::printf("\ntypo robustness (periphery cloud, typo rate sweep):\n");
  Table typo({"typo_rate", "token_PC", "qgram_PC", "sorted_nbhd_PC"});
  for (double rate : {0.0, 0.2, 0.4}) {
    datagen::LodCloudConfig cfg = MakeConfig(CloudProfile::kPeriphery, scale);
    cfg.typo_rate = rate;
    World noisy = World::Make(cfg);
    auto pc = [&](const BlockingMethod& method) {
      BlockCollection blocks = method.Build(*noisy.collection);
      return EvaluateBlocks(blocks, *noisy.collection,
                            ResolutionMode::kCleanClean, *noisy.truth)
          .pair_completeness;
    };
    TokenBlocking token;
    QGramBlocking::Options gopts;
    gopts.max_df_fraction = 0.2;
    QGramBlocking qgram(gopts);
    SortedNeighborhoodBlocking nbhd;
    typo.AddRow()
        .Cell(rate, 1)
        .Cell(pc(token), 4)
        .Cell(pc(qgram), 4)
        .Cell(pc(nbhd), 4);
  }
  typo.Print(std::cout);

  // ---- Sharded blocking + graph-view thread sweep -------------------------
  // token+pis (the Web-of-Data default) index construction and EJS graph
  // construction (the heaviest view: ARCS terms + whole-graph degree pass).
  // Output must be byte-identical at every thread count; wall time is the
  // median of three runs.
  std::printf("\nsharded blocking + graph-view thread sweep (mixed cloud, "
              "median of 3; hardware_concurrency %u):\n",
              std::thread::hardware_concurrency());
  World sw = World::Make(MakeConfig(CloudProfile::kMixed, scale));
  const uint32_t n = sw.collection->num_entities();
  Table sweep({"phase", "threads", "ms", "speedup", "identical"});
  std::string json = "{\n";
  json += "  \"bench\": \"t2_blocking\",\n";
  json += "  \"scale\": " + std::to_string(scale) + ",\n";
  json += "  \"entities\": " + std::to_string(n) + ",\n";
  json += "  \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"sweep\": [\n";
  bool first_entry = true;
  bool all_identical = true;
  const auto add_entry = [&](const char* phase, uint32_t threads, double ms,
                             double seq_ms, bool identical) {
    all_identical = all_identical && identical;
    const double speedup = seq_ms / std::max(0.01, ms);
    char speedup_s[32];
    std::snprintf(speedup_s, sizeof(speedup_s), "%.2f", speedup);
    sweep.AddRow()
        .Cell(phase)
        .Cell(uint64_t{threads})
        .Cell(ms, 1)
        .Cell(speedup_s)
        .Cell(identical ? "yes" : "NO");
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "    %s{\"phase\": \"%s\", \"threads\": %u, "
                  "\"ms\": %.2f, \"speedup\": %.3f, \"identical\": %s}",
                  first_entry ? "" : ",",  // valid JSON either way
                  phase, threads, ms, speedup, identical ? "true" : "false");
    json += entry;
    json += "\n";
    first_entry = false;
  };

  // Phase 1: composite token+pis index construction.
  {
    const auto blocker = MakeMethod("token+pis");
    BlockCollection reference;
    const double seq_ms = MedianOfThree([&] {
      Stopwatch watch;
      reference = blocker->Build(*sw.collection);
      return watch.ElapsedMillis();
    });
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      BlockCollection built;
      const double ms =
          threads == 1 ? seq_ms : MedianOfThree([&] {
            ThreadPool pool(threads);
            Stopwatch watch;
            built = blocker->Build(*sw.collection, &pool);
            return watch.ElapsedMillis();
          });
      const bool identical = threads == 1 || SameBlocks(reference, built);
      add_entry("blocking", threads, ms, seq_ms, identical);
    }
  }

  // Phase 2: EJS graph-view construction over the token blocks.
  {
    BlockCollection blocks = TokenBlocking().Build(*sw.collection);
    blocks.BuildEntityIndex(n);
    const BlockingGraphView reference(blocks, *sw.collection,
                                      WeightingScheme::kEjs,
                                      ResolutionMode::kCleanClean);
    // Divergence probe: every edge weight of the sampled entities must
    // carry the exact same bits (covers the chunked ARCS fold AND the
    // parallel EJS degree pass, not just the integer totals).
    const auto same_view = [&](const BlockingGraphView& view) {
      if (view.num_nodes() != reference.num_nodes() ||
          view.total_block_assignments() !=
              reference.total_block_assignments()) {
        return false;
      }
      NeighborScratch scratch(n);
      bool same = true;
      const EntityId sample = std::min<EntityId>(512, n);
      for (EntityId e = 0; e < sample && same; ++e) {
        reference.ForNeighbors(
            scratch, e, /*only_greater=*/true,
            [&](EntityId nb, uint32_t common, double arcs) {
              same = same && view.PairWeight(e, nb) ==
                                 reference.EdgeWeight(e, nb, common, arcs);
            });
      }
      return same;
    };
    const double seq_ms = MedianOfThree([&] {
      Stopwatch watch;
      const BlockingGraphView view(blocks, *sw.collection,
                                   WeightingScheme::kEjs,
                                   ResolutionMode::kCleanClean);
      return watch.ElapsedMillis();
    });
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      bool identical = true;
      double ms = seq_ms;
      if (threads != 1) {
        ms = MedianOfThree([&] {
          ThreadPool pool(threads);
          Stopwatch watch;
          const BlockingGraphView view(blocks, *sw.collection,
                                       WeightingScheme::kEjs,
                                       ResolutionMode::kCleanClean, &pool);
          const double elapsed = watch.ElapsedMillis();
          identical = identical && same_view(view);
          return elapsed;
        });
      }
      add_entry("graph-view", threads, ms, seq_ms, identical);
    }
  }
  json += "  ]\n}\n";
  sweep.Print(std::cout);
  const char* json_path = "BENCH_t2_blocking.json";
  std::ofstream out(json_path);
  out << json;
  std::printf("wrote %s\n", json_path);
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: parallel blocking diverged from the sequential "
                 "reference (see 'identical' column)\n");
    return 1;
  }
  return 0;
}
