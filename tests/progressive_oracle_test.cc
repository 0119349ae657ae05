// Differential oracle for the progressive loop.
//
// ReferenceLoop is a deliberately naive re-statement of the schedule →
// match → update semantics: std::map tables, a plain map of live
// (pair → priority) entries popped by a linear scan in (priority desc,
// pair asc) order, and the SimilarityEvaluator's two components combined
// by hand. It shares only the ResolutionState and the benefit models with
// production. On seeded tiny clouds, across every benefit model, update
// phase on/off, with/without seeds, several Step slicings and a mid-run
// checkpoint, the batch ProgressiveResolver must emit exactly the oracle's
// match sequence (pairs, comparison stamps and similarity bits) — so any
// rewrite of the loop's scheduler, tables or kernels is checked against it.

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "blocking/blocking_method.h"
#include "datagen/lod_generator.h"
#include "gtest/gtest.h"
#include "matching/similarity_evaluator.h"
#include "metablocking/meta_blocking.h"
#include "progressive/benefit.h"
#include "progressive/resolver.h"
#include "progressive/state.h"
#include "util/hash.h"

namespace minoan {
namespace {

class ReferenceLoop {
 public:
  ReferenceLoop(const EntityCollection& collection, const NeighborGraph& graph,
                const SimilarityEvaluator& evaluator,
                const SimilarityOptions& similarity,
                const ProgressiveOptions& options)
      : collection_(collection),
        graph_(graph),
        evaluator_(evaluator),
        similarity_(similarity),
        options_(options),
        estimator_(options.benefit, options.evidence.max_neighbors_per_side),
        state_(collection, &graph) {}

  std::vector<MatchEvent> Run(const std::vector<WeightedComparison>& candidates,
                              const std::vector<Comparison>& seeds) {
    double max_weight = 0.0;
    for (const WeightedComparison& c : candidates) {
      max_weight = std::max(max_weight, c.weight);
    }
    const double scale = max_weight > 0.0 ? 1.0 / max_weight : 1.0;
    for (const WeightedComparison& c : candidates) {
      likelihood_[PairKey(c.a, c.b)] = c.weight * scale;
    }
    // Every candidate is priced against the pristine state.
    for (const WeightedComparison& c : candidates) {
      const uint64_t pair = PairKey(c.a, c.b);
      live_[pair] = Priority(pair);
    }
    for (const Comparison& seed : seeds) {
      const uint64_t pair = PairKey(seed.a, seed.b);
      if (!executed_.insert(pair).second) continue;
      live_.erase(pair);
      state_.RecordMatch(seed.a, seed.b);
      if (options_.enable_update_phase) Update(seed.a, seed.b);
    }

    while (!live_.empty()) {
      auto top = live_.begin();
      for (auto it = live_.begin(); it != live_.end(); ++it) {
        // Ascending pair iteration: a strictly greater priority wins, so
        // ties keep the smaller pair.
        if (it->second > top->second) top = it;
      }
      const uint64_t pair = top->first;
      const double popped = top->second;
      live_.erase(top);
      if (executed_.count(pair) != 0) continue;
      const double current = Priority(pair);
      if (current + 1e-12 <
          popped * (1.0 - options_.evidence.staleness_tolerance)) {
        live_[pair] = current;
        continue;
      }
      Execute(pair);
    }
    return matches_;
  }

  uint64_t comparisons() const { return comparisons_; }

 private:
  double Priority(uint64_t pair) {
    const EntityId a = PairKeyFirst(pair);
    const EntityId b = PairKeySecond(pair);
    const auto l = likelihood_.find(pair);
    const auto ev = evidence_.find(pair);
    double likelihood = l == likelihood_.end() ? 0.0 : l->second;
    if (ev != evidence_.end()) {
      likelihood += options_.evidence.priority * std::min(1.0, ev->second);
    }
    return likelihood *
           (1.0 + options_.benefit_weight *
                      estimator_.PairBenefit(a, b, state_));
  }

  void Execute(uint64_t pair) {
    const EntityId a = PairKeyFirst(pair);
    const EntityId b = PairKeySecond(pair);
    executed_.insert(pair);
    ++comparisons_;
    const double jaccard = evaluator_.TokenJaccard(a, b);
    const double profile =
        similarity_.use_tfidf
            ? similarity_.tfidf_weight * evaluator_.TfIdfCosine(a, b) +
                  (1.0 - similarity_.tfidf_weight) * jaccard
            : jaccard;
    const auto ev = evidence_.find(pair);
    const double bonus =
        ev == evidence_.end()
            ? 0.0
            : options_.evidence.weight * std::min(1.0, ev->second);
    const double sim = profile + bonus;
    if (sim < options_.matcher.threshold) return;
    state_.RecordMatch(a, b);
    matches_.push_back(MatchEvent{comparisons_, a, b, sim});
    if (options_.enable_update_phase) Update(a, b);
  }

  void Update(EntityId a, EntityId b) {
    const auto na = graph_.Neighbors(a);
    const auto nb = graph_.Neighbors(b);
    const size_t cap = options_.evidence.max_neighbors_per_side;
    for (size_t i = 0; i < std::min(na.size(), cap); ++i) {
      for (size_t j = 0; j < std::min(nb.size(), cap); ++j) {
        const EntityId x = na[i];
        const EntityId y = nb[j];
        if (x == y) continue;
        if (options_.mode == ResolutionMode::kCleanClean &&
            !collection_.CrossKb(x, y)) {
          continue;
        }
        const uint64_t pair = PairKey(x, y);
        if (executed_.count(pair) != 0 || state_.SameCluster(x, y)) continue;
        evidence_[pair] += options_.evidence.increment;
        live_[pair] = Priority(pair);
      }
    }
  }

  const EntityCollection& collection_;
  const NeighborGraph& graph_;
  const SimilarityEvaluator& evaluator_;
  SimilarityOptions similarity_;
  ProgressiveOptions options_;
  BenefitEstimator estimator_;
  ResolutionState state_;
  std::map<uint64_t, double> likelihood_;
  std::map<uint64_t, double> evidence_;
  std::set<uint64_t> executed_;
  std::map<uint64_t, double> live_;
  std::vector<MatchEvent> matches_;
  uint64_t comparisons_ = 0;
};

struct TinyWorld {
  std::unique_ptr<EntityCollection> collection;
  std::unique_ptr<NeighborGraph> graph;
  std::unique_ptr<SimilarityEvaluator> evaluator;
  std::vector<WeightedComparison> candidates;
  std::vector<Comparison> seeds;
};

TinyWorld MakeWorld(uint64_t seed, const SimilarityOptions& similarity) {
  datagen::LodCloudConfig cfg;
  cfg.seed = seed;
  cfg.num_real_entities = 200;
  cfg.num_kbs = 4;
  cfg.center_kbs = 2;
  auto cloud = datagen::GenerateLodCloud(cfg);
  EXPECT_TRUE(cloud.ok());
  auto built = cloud->BuildCollection();
  EXPECT_TRUE(built.ok());
  TinyWorld w;
  w.collection = std::make_unique<EntityCollection>(std::move(built).value());
  BlockCollection blocks = TokenBlocking().Build(*w.collection);
  MetaBlockingOptions meta;
  meta.weighting = WeightingScheme::kEcbs;
  meta.pruning = PruningScheme::kWnp;
  w.candidates = MetaBlocking(meta).Prune(blocks, *w.collection);
  w.graph = std::make_unique<NeighborGraph>(*w.collection);
  w.evaluator =
      std::make_unique<SimilarityEvaluator>(*w.collection, similarity);
  // Seeds: every 11th candidate, one repeated (applied once), and one pair
  // blocking never produced.
  for (size_t i = 0; i < w.candidates.size(); i += 11) {
    w.seeds.emplace_back(w.candidates[i].a, w.candidates[i].b);
  }
  if (!w.seeds.empty()) w.seeds.push_back(w.seeds.front());
  w.seeds.emplace_back(0, w.collection->num_entities() - 1);
  return w;
}

/// Production run: Begin, then Step(slice) until finished.
std::vector<MatchEvent> ProductionRun(const TinyWorld& w,
                                      const ProgressiveOptions& options,
                                      bool with_seeds, uint64_t slice,
                                      uint64_t& comparisons) {
  ProgressiveResolver resolver(*w.collection, *w.graph, *w.evaluator,
                               options);
  resolver.Begin(w.candidates, with_seeds ? w.seeds : std::vector<Comparison>{});
  while (!resolver.finished()) resolver.Step(slice);
  comparisons = resolver.result().run.comparisons_executed;
  return resolver.result().run.matches;
}

void ExpectIdenticalMatches(const std::vector<MatchEvent>& want,
                            const std::vector<MatchEvent>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].a, got[i].a) << "match " << i;
    EXPECT_EQ(want[i].b, got[i].b) << "match " << i;
    EXPECT_EQ(want[i].comparisons_done, got[i].comparisons_done)
        << "match " << i;
    EXPECT_EQ(std::memcmp(&want[i].similarity, &got[i].similarity,
                          sizeof(double)),
              0)
        << "match " << i << " similarity bits differ";
  }
}

TEST(ProgressiveOracleTest, BatchLoopMatchesNaiveReference) {
  SimilarityOptions similarity;
  for (const uint64_t seed : {11u, 29u}) {
    const TinyWorld w = MakeWorld(seed, similarity);
    ASSERT_GT(w.candidates.size(), 50u);
    for (uint32_t model = 0; model < kNumBenefitModels; ++model) {
      for (const bool update : {true, false}) {
        for (const bool with_seeds : {false, true}) {
          ProgressiveOptions options;
          options.benefit = static_cast<BenefitModel>(model);
          options.enable_update_phase = update;
          options.matcher.threshold = 0.3;
          ReferenceLoop oracle(*w.collection, *w.graph, *w.evaluator,
                               similarity, options);
          const std::vector<MatchEvent> want = oracle.Run(
              w.candidates, with_seeds ? w.seeds : std::vector<Comparison>{});
          ASSERT_GT(want.size(), 0u);
          for (const uint64_t slice : {0u, 1u, 7u}) {
            SCOPED_TRACE(testing::Message()
                         << "cloud " << seed << " model " << model
                         << " update " << update << " seeds " << with_seeds
                         << " slice " << slice);
            uint64_t comparisons = 0;
            ExpectIdenticalMatches(
                want, ProductionRun(w, options, with_seeds, slice,
                                    comparisons));
            EXPECT_EQ(comparisons, oracle.comparisons());
          }
        }
      }
    }
  }
}

// A checkpoint taken mid-run — the primed run partly consumed, some of its
// entries superseded by the seeds' and the matches' update-phase pushes —
// restores into a fresh resolver that finishes with the oracle's sequence.
TEST(ProgressiveOracleTest, MidRunCheckpointReproducesReference) {
  SimilarityOptions similarity;
  const TinyWorld w = MakeWorld(11, similarity);
  for (uint32_t model = 0; model < kNumBenefitModels; ++model) {
    SCOPED_TRACE(testing::Message() << "model " << model);
    ProgressiveOptions options;
    options.benefit = static_cast<BenefitModel>(model);
    options.matcher.threshold = 0.3;
    ReferenceLoop oracle(*w.collection, *w.graph, *w.evaluator, similarity,
                         options);
    const std::vector<MatchEvent> want = oracle.Run(w.candidates, w.seeds);
    ASSERT_GT(oracle.comparisons(), 2u);

    ProgressiveResolver first(*w.collection, *w.graph, *w.evaluator, options);
    first.Begin(w.candidates, w.seeds);
    first.Step(oracle.comparisons() / 2);
    // Later pushes exist, and the schedule still holds work.
    ASSERT_GT(first.result().scheduler_pushes, w.candidates.size());
    ASSERT_FALSE(first.finished());
    std::stringstream checkpoint;
    ASSERT_TRUE(first.SaveState(checkpoint).ok());

    ProgressiveResolver restored(*w.collection, *w.graph, *w.evaluator,
                                 options);
    ASSERT_TRUE(restored.LoadState(checkpoint).ok());
    while (!restored.finished()) restored.Step(7);
    ExpectIdenticalMatches(want, restored.result().run.matches);
    EXPECT_EQ(restored.result().run.comparisons_executed,
              oracle.comparisons());
  }
}

// The Jaccard-only kernel and a comparison budget take the same path
// through the oracle (budgets stop the reference at the same prefix).
TEST(ProgressiveOracleTest, JaccardOnlyAndBudgetedRunsMatchReference) {
  SimilarityOptions similarity;
  similarity.use_tfidf = false;
  const TinyWorld w = MakeWorld(47, similarity);
  ProgressiveOptions options;
  options.benefit = BenefitModel::kRelationshipCompleteness;
  options.matcher.threshold = 0.3;
  ReferenceLoop oracle(*w.collection, *w.graph, *w.evaluator, similarity,
                       options);
  const std::vector<MatchEvent> want = oracle.Run(w.candidates, w.seeds);
  ASSERT_GT(want.size(), 0u);
  uint64_t comparisons = 0;
  ExpectIdenticalMatches(want, ProductionRun(w, options, true, 7, comparisons));

  // A budget of half the reference's comparisons keeps exactly the matches
  // stamped within it.
  options.matcher.budget = oracle.comparisons() / 2;
  std::vector<MatchEvent> prefix;
  for (const MatchEvent& m : want) {
    if (m.comparisons_done <= options.matcher.budget) prefix.push_back(m);
  }
  ExpectIdenticalMatches(prefix,
                         ProductionRun(w, options, true, 1, comparisons));
  EXPECT_EQ(comparisons, options.matcher.budget);
}

}  // namespace
}  // namespace minoan
