// Unit tests for the progressive module: scheduler, resolution state,
// benefit models, and the full scheduling/matching/update loop.

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include "datagen/lod_generator.h"
#include "eval/ground_truth.h"
#include "eval/progressive_metrics.h"
#include "gtest/gtest.h"
#include "matching/similarity_evaluator.h"
#include "metablocking/meta_blocking.h"
#include "blocking/blocking_method.h"
#include "progressive/benefit.h"
#include "progressive/resolver.h"
#include "progressive/scheduler.h"
#include "progressive/state.h"
#include "rdf/ntriples.h"
#include "util/hash.h"

namespace minoan {
namespace {

std::vector<rdf::Triple> Parse(const std::string& doc) {
  rdf::NTriplesParser parser;
  auto result = parser.ParseString(doc);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// ComparisonScheduler
// ---------------------------------------------------------------------------

TEST(SchedulerTest, PopsInPriorityOrder) {
  ComparisonScheduler s;
  s.Push(PairKey(0, 1), 0.5);
  s.Push(PairKey(0, 2), 0.9);
  s.Push(PairKey(0, 3), 0.7);
  uint64_t pair;
  double priority;
  ASSERT_TRUE(s.Pop(pair, priority));
  EXPECT_EQ(pair, PairKey(0, 2));
  ASSERT_TRUE(s.Pop(pair, priority));
  EXPECT_EQ(pair, PairKey(0, 3));
  ASSERT_TRUE(s.Pop(pair, priority));
  EXPECT_EQ(pair, PairKey(0, 1));
  EXPECT_FALSE(s.Pop(pair, priority));
}

TEST(SchedulerTest, RepushInvalidatesOldEntry) {
  ComparisonScheduler s;
  s.Push(PairKey(0, 1), 0.9);
  s.Push(PairKey(0, 2), 0.5);
  s.Push(PairKey(0, 1), 0.1);  // downgrade
  uint64_t pair;
  double priority;
  ASSERT_TRUE(s.Pop(pair, priority));
  EXPECT_EQ(pair, PairKey(0, 2));  // 0.5 now highest live
  ASSERT_TRUE(s.Pop(pair, priority));
  EXPECT_EQ(pair, PairKey(0, 1));
  EXPECT_DOUBLE_EQ(priority, 0.1);
  EXPECT_FALSE(s.Pop(pair, priority));  // stale 0.9 entry discarded
}

TEST(SchedulerTest, EachPairPoppedOnce) {
  ComparisonScheduler s;
  for (int i = 0; i < 10; ++i) {
    s.Push(PairKey(0, 1), 0.1 * (i + 1));  // same pair re-pushed 10 times
  }
  uint64_t pair;
  double priority;
  int pops = 0;
  while (s.Pop(pair, priority)) ++pops;
  EXPECT_EQ(pops, 1);
  EXPECT_EQ(s.total_pushes(), 10u);
}

TEST(SchedulerTest, TieBreakDeterministic) {
  ComparisonScheduler s;
  s.Push(PairKey(2, 3), 0.5);
  s.Push(PairKey(0, 1), 0.5);
  uint64_t pair;
  double priority;
  ASSERT_TRUE(s.Pop(pair, priority));
  EXPECT_EQ(pair, PairKey(0, 1));  // smaller pair first on tie
}

TEST(SchedulerTest, EraseRemovesLivePair) {
  ComparisonScheduler s;
  s.Push(PairKey(0, 1), 0.9);
  s.Erase(PairKey(0, 1));
  uint64_t pair;
  double priority;
  EXPECT_FALSE(s.Pop(pair, priority));
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerTest, PriorityOfReflectsLiveState) {
  ComparisonScheduler s;
  EXPECT_DOUBLE_EQ(s.PriorityOf(PairKey(0, 1)), -1.0);
  s.Push(PairKey(0, 1), 0.4);
  EXPECT_DOUBLE_EQ(s.PriorityOf(PairKey(0, 1)), 0.4);
  s.Push(PairKey(0, 1), 0.6);
  EXPECT_DOUBLE_EQ(s.PriorityOf(PairKey(0, 1)), 0.6);
}

// --- The primed run merged with the heap of later pushes -----------------

/// Drains `s`, returning the popped (pair, priority) sequence.
std::vector<std::pair<uint64_t, double>> Drain(ComparisonScheduler& s) {
  std::vector<std::pair<uint64_t, double>> out;
  uint64_t pair;
  double priority;
  while (s.Pop(pair, priority)) out.emplace_back(pair, priority);
  return out;
}

TEST(SchedulerTest, PrimeSortsUnorderedInput) {
  ComparisonScheduler s;
  s.Prime({{0.5, PairKey(0, 1)}, {0.9, PairKey(0, 2)}, {0.5, PairKey(0, 0)},
           {0.7, PairKey(0, 3)}});
  const auto popped = Drain(s);
  ASSERT_EQ(popped.size(), 4u);
  EXPECT_EQ(popped[0].first, PairKey(0, 2));
  EXPECT_EQ(popped[1].first, PairKey(0, 3));
  EXPECT_EQ(popped[2].first, PairKey(0, 0));  // tie: smaller pair first
  EXPECT_EQ(popped[3].first, PairKey(0, 1));
  EXPECT_EQ(s.pop_counts().run_pops, 4u);
  EXPECT_EQ(s.pop_counts().heap_pops, 0u);
}

TEST(SchedulerTest, RunAndHeapTiePopsSmallerPairFirst) {
  for (const bool run_holds_smaller : {true, false}) {
    ComparisonScheduler s;
    const uint64_t small = PairKey(1, 2);
    const uint64_t large = PairKey(3, 4);
    s.Prime({{0.5, run_holds_smaller ? small : large}});
    s.Push(run_holds_smaller ? large : small, 0.5);
    const auto popped = Drain(s);
    ASSERT_EQ(popped.size(), 2u);
    EXPECT_EQ(popped[0].first, small);
    EXPECT_EQ(popped[1].first, large);
    EXPECT_EQ(s.pop_counts().run_pops, 1u);
    EXPECT_EQ(s.pop_counts().heap_pops, 1u);
  }
}

TEST(SchedulerTest, PushedPairStaysSupersededAfterHeapCopyPops) {
  ComparisonScheduler s;
  s.Prime({{0.9, PairKey(0, 1)}, {0.5, PairKey(0, 2)}, {0.3, PairKey(0, 3)}});
  s.Push(PairKey(0, 3), 0.95);  // upgrade: pops before the run head
  uint64_t pair;
  double priority;
  ASSERT_TRUE(s.Pop(pair, priority));
  EXPECT_EQ(pair, PairKey(0, 3));
  EXPECT_DOUBLE_EQ(priority, 0.95);
  // The heap copy is gone; the primed 0.3 entry must not resurface.
  const auto rest = Drain(s);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].first, PairKey(0, 1));
  EXPECT_EQ(rest[1].first, PairKey(0, 2));
  EXPECT_EQ(s.pop_counts().superseded_skips, 1u);

  // A downgrade: the run's 0.9 entry dies, the 0.1 push pops last.
  ComparisonScheduler d;
  d.Prime({{0.9, PairKey(0, 1)}, {0.5, PairKey(0, 2)}});
  d.Push(PairKey(0, 1), 0.1);
  const auto order = Drain(d);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].first, PairKey(0, 2));
  EXPECT_EQ(order[1].first, PairKey(0, 1));
  EXPECT_DOUBLE_EQ(order[1].second, 0.1);
}

TEST(SchedulerTest, EraseRemovesRunOnlyPair) {
  ComparisonScheduler s;
  s.Prime({{0.9, PairKey(0, 1)}, {0.5, PairKey(0, 2)}});
  s.Erase(PairKey(0, 1));
  EXPECT_EQ(s.live_size(), 1u);
  EXPECT_DOUBLE_EQ(s.PriorityOf(PairKey(0, 1)), -1.0);
  const auto popped = Drain(s);
  ASSERT_EQ(popped.size(), 1u);
  EXPECT_EQ(popped[0].first, PairKey(0, 2));
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerTest, DuplicatePrimeEntriesCollapse) {
  ComparisonScheduler s;
  s.Prime({{0.5, PairKey(0, 1)},
           {0.7, PairKey(0, 2)},
           {0.5, PairKey(0, 1)},
           {0.5, PairKey(0, 1)}});
  EXPECT_EQ(s.total_pushes(), 4u);
  EXPECT_EQ(s.live_size(), 2u);
  const auto live = s.LiveEntries();
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0].first, PairKey(0, 1));
  EXPECT_EQ(Drain(s).size(), 2u);
}

TEST(SchedulerTest, LiveViewAfterPartialConsumption) {
  ComparisonScheduler s;
  s.Prime({{0.9, PairKey(0, 1)},
           {0.8, PairKey(0, 2)},
           {0.7, PairKey(0, 3)},
           {0.6, PairKey(0, 4)},
           {0.5, PairKey(0, 5)}});
  uint64_t pair;
  double priority;
  ASSERT_TRUE(s.Pop(pair, priority));  // consumes (0, 1)
  s.Push(PairKey(0, 4), 0.65);         // supersedes a run entry
  s.Push(PairKey(1, 2), 0.2);          // heap-only pair
  s.Erase(PairKey(0, 5));
  EXPECT_EQ(s.live_size(), 4u);
  EXPECT_FALSE(s.empty());
  EXPECT_DOUBLE_EQ(s.PriorityOf(PairKey(0, 1)), -1.0);  // consumed
  EXPECT_DOUBLE_EQ(s.PriorityOf(PairKey(0, 3)), 0.7);   // run entry
  EXPECT_DOUBLE_EQ(s.PriorityOf(PairKey(0, 4)), 0.65);  // newest push
  EXPECT_DOUBLE_EQ(s.PriorityOf(PairKey(1, 2)), 0.2);
  const std::vector<std::pair<uint64_t, double>> want = {
      {PairKey(0, 2), 0.8},
      {PairKey(0, 3), 0.7},
      {PairKey(0, 4), 0.65},
      {PairKey(1, 2), 0.2}};
  EXPECT_EQ(s.LiveEntries(), want);
  EXPECT_EQ(s.total_pushes(), 7u);
}

TEST(SchedulerTest, RestoreFromPopsIdenticalSequence) {
  ComparisonScheduler s;
  std::vector<ComparisonScheduler::Entry> primed;
  for (uint32_t i = 0; i < 40; ++i) {
    primed.push_back({0.1 * (i % 7), PairKey(i, i + 100)});
  }
  s.Prime(primed);
  uint64_t pair;
  double priority;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(s.Pop(pair, priority));
  for (uint32_t i = 0; i < 40; i += 3) {
    s.Push(PairKey(i, i + 100), 0.05 * (i % 11));
  }
  s.Erase(PairKey(39, 139));
  s.Push(PairKey(500, 600), 0.3);

  ComparisonScheduler restored;
  restored.RestoreFrom(s.LiveEntries(), s.total_pushes());
  EXPECT_EQ(restored.total_pushes(), s.total_pushes());
  EXPECT_EQ(restored.LiveEntries(), s.LiveEntries());
  EXPECT_EQ(Drain(restored), Drain(s));
}

// Random Prime/Push/Erase/Pop/RestoreFrom sequences against a plain map of
// live entries popped by a linear scan: the run/heap split, superseding
// and the live view must be invisible. Few pairs and few priority values
// force re-pushes of primed pairs and ties between the two parts.
TEST(SchedulerTest, MatchesNaiveReferenceUnderRandomOps) {
  for (uint32_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    std::mt19937 rng(seed);
    const auto random_pair = [&rng] {
      return PairKey(rng() % 6, 6 + rng() % 6);
    };
    const auto random_priority = [&rng] { return 0.125 * (rng() % 5); };
    std::map<uint64_t, double> live;
    std::vector<ComparisonScheduler::Entry> primed;
    for (int i = 0; i < 20; ++i) {
      const uint64_t pair = random_pair();
      const auto [it, fresh] = live.emplace(pair, random_priority());
      primed.push_back({it->second, pair});  // a relisted pair keeps its value
    }
    ComparisonScheduler s;
    s.Prime(primed);
    for (int op = 0; op < 200; ++op) {
      const uint32_t kind = rng() % 10;
      if (kind < 3) {
        const uint64_t pair = random_pair();
        const double priority = random_priority();
        s.Push(pair, priority);
        live[pair] = priority;
      } else if (kind < 4) {
        const uint64_t pair = random_pair();
        s.Erase(pair);
        live.erase(pair);
      } else if (kind < 9) {
        uint64_t pair;
        double priority;
        const bool popped = s.Pop(pair, priority);
        ASSERT_EQ(popped, !live.empty());
        if (!popped) continue;
        auto top = live.begin();
        for (auto it = live.begin(); it != live.end(); ++it) {
          if (it->second > top->second) top = it;
        }
        ASSERT_EQ(pair, top->first);
        ASSERT_EQ(priority, top->second);
        live.erase(top);
      } else {
        ComparisonScheduler restored;
        restored.RestoreFrom(s.LiveEntries(), s.total_pushes());
        s = std::move(restored);
      }
      ASSERT_EQ(s.live_size(), live.size());
      const uint64_t probe = random_pair();
      const auto it = live.find(probe);
      ASSERT_EQ(s.PriorityOf(probe), it == live.end() ? -1.0 : it->second);
    }
    const std::vector<std::pair<uint64_t, double>> want(live.begin(),
                                                        live.end());
    EXPECT_EQ(s.LiveEntries(), want);
  }
}

// ---------------------------------------------------------------------------
// ResolutionState
// ---------------------------------------------------------------------------

EntityCollection StateFixture() {
  EntityCollection c;
  EXPECT_TRUE(c.AddKnowledgeBase("a", Parse(R"(
<http://a/1> <http://a/p> "alpha beta" .
<http://a/1> <http://a/q> "gamma" .
<http://a/2> <http://a/p> "delta" .
<http://a/1> <http://a/rel> <http://a/2> .
)")).ok());
  EXPECT_TRUE(c.AddKnowledgeBase("b", Parse(R"(
<http://b/1> <http://b/p> "alpha" .
<http://b/1> <http://b/q> "epsilon" .
<http://b/2> <http://b/p> "delta zeta" .
<http://b/1> <http://b/rel> <http://b/2> .
)")).ok());
  EXPECT_TRUE(c.Finalize().ok());
  return c;
}

TEST(StateTest, ClusterValuesMergeOnMatch) {
  EntityCollection c = StateFixture();
  NeighborGraph graph(c);
  ResolutionState state(c, &graph);
  const EntityId a1 = c.FindByIri("http://a/1");
  const EntityId b1 = c.FindByIri("http://b/1");
  const size_t before_a = state.ClusterValues(a1).size();
  const size_t before_b = state.ClusterValues(b1).size();
  EXPECT_TRUE(state.RecordMatch(a1, b1));
  // Values "alpha beta", "gamma" + "alpha", "epsilon" -> distinct union.
  const size_t after = state.ClusterValues(a1).size();
  EXPECT_GT(after, before_a);
  EXPECT_GT(after, before_b);
  EXPECT_EQ(state.ClusterValues(a1).size(), state.ClusterValues(b1).size());
  EXPECT_EQ(state.ClusterSize(a1), 2u);
}

TEST(StateTest, RepeatMatchReturnsFalse) {
  EntityCollection c = StateFixture();
  ResolutionState state(c, nullptr);
  EXPECT_TRUE(state.RecordMatch(0, 2));
  EXPECT_FALSE(state.RecordMatch(0, 2));
  EXPECT_EQ(state.matches_recorded(), 2u);
}

TEST(StateTest, ValueGainCountsNovelValues) {
  EntityCollection c = StateFixture();
  ResolutionState state(c, nullptr);
  const EntityId a1 = c.FindByIri("http://a/1");
  const EntityId b1 = c.FindByIri("http://b/1");
  // a/1 values: {"alpha beta", "gamma"}; b/1 values: {"alpha", "epsilon"}.
  // Disjoint lexical forms -> merged 4, larger 2 -> gain 2.
  EXPECT_EQ(state.ValueGain(a1, b1), 2u);
  state.RecordMatch(a1, b1);
  EXPECT_EQ(state.ValueGain(a1, b1), 0u);  // same cluster now
}

TEST(StateTest, MatchedNeighborTracking) {
  EntityCollection c = StateFixture();
  NeighborGraph graph(c);
  ResolutionState state(c, &graph);
  const EntityId a1 = c.FindByIri("http://a/1");
  const EntityId a2 = c.FindByIri("http://a/2");
  const EntityId b1 = c.FindByIri("http://b/1");
  const EntityId b2 = c.FindByIri("http://b/2");
  EXPECT_DOUBLE_EQ(state.MatchedNeighborFraction(a1, b1, 16), 0.0);
  state.RecordMatch(a2, b2);  // neighbors of (a1, b1) now co-clustered
  EXPECT_DOUBLE_EQ(state.MatchedNeighborFraction(a1, b1, 16), 1.0);
  EXPECT_EQ(state.MatchedNeighborPairs(a1, b1, 16), 1u);
}

TEST(StateTest, NullGraphMeansNoNeighborSignal) {
  EntityCollection c = StateFixture();
  ResolutionState state(c, nullptr);
  EXPECT_DOUBLE_EQ(state.MatchedNeighborFraction(0, 2, 16), 0.0);
  EXPECT_EQ(state.MatchedNeighborPairs(0, 2, 16), 0u);
}

// ---------------------------------------------------------------------------
// Benefit models
// ---------------------------------------------------------------------------

TEST(BenefitTest, Names) {
  EXPECT_EQ(BenefitModelName(BenefitModel::kQuantity), "quantity");
  EXPECT_EQ(BenefitModelName(BenefitModel::kAttributeCompleteness),
            "attr-completeness");
  EXPECT_EQ(BenefitModelName(BenefitModel::kEntityCoverage),
            "entity-coverage");
  EXPECT_EQ(BenefitModelName(BenefitModel::kRelationshipCompleteness),
            "rel-completeness");
}

TEST(BenefitTest, QuantityIsConstant) {
  EntityCollection c = StateFixture();
  ResolutionState state(c, nullptr);
  BenefitEstimator est(BenefitModel::kQuantity);
  EXPECT_DOUBLE_EQ(est.PairBenefit(0, 2, state), 1.0);
  EXPECT_DOUBLE_EQ(est.RealizedBenefit(0, 2, state), 1.0);
}

TEST(BenefitTest, EntityCoverageDecaysWithClusterSize) {
  EntityCollection c = StateFixture();
  ResolutionState state(c, nullptr);
  BenefitEstimator est(BenefitModel::kEntityCoverage);
  const EntityId a1 = c.FindByIri("http://a/1");
  const EntityId b1 = c.FindByIri("http://b/1");
  const EntityId b2 = c.FindByIri("http://b/2");
  EXPECT_DOUBLE_EQ(est.PairBenefit(a1, b1, state), 1.0);
  EXPECT_DOUBLE_EQ(est.RealizedBenefit(a1, b1, state), 1.0);
  state.RecordMatch(a1, b1);
  // Extending the cluster adds no coverage.
  EXPECT_LT(est.PairBenefit(a1, b2, state), 1.0);
  EXPECT_DOUBLE_EQ(est.RealizedBenefit(a1, b2, state), 0.0);
}

TEST(BenefitTest, AttributeCompletenessPrefersNovelProfiles) {
  EntityCollection c = StateFixture();
  ResolutionState state(c, nullptr);
  BenefitEstimator est(BenefitModel::kAttributeCompleteness);
  const EntityId a1 = c.FindByIri("http://a/1");
  const EntityId b1 = c.FindByIri("http://b/1");  // disjoint values: gain 2
  const EntityId a2 = c.FindByIri("http://a/2");
  const EntityId b2 = c.FindByIri("http://b/2");  // disjoint values: gain 1
  EXPECT_GT(est.PairBenefit(a1, b1, state), 0.0);
  EXPECT_DOUBLE_EQ(est.RealizedBenefit(a1, b1, state), 2.0);
  EXPECT_DOUBLE_EQ(est.RealizedBenefit(a2, b2, state), 1.0);
}

TEST(BenefitTest, RelationshipCompletenessRewardsMatchedNeighbors) {
  EntityCollection c = StateFixture();
  NeighborGraph graph(c);
  ResolutionState state(c, &graph);
  BenefitEstimator est(BenefitModel::kRelationshipCompleteness);
  const EntityId a1 = c.FindByIri("http://a/1");
  const EntityId b1 = c.FindByIri("http://b/1");
  const double before = est.PairBenefit(a1, b1, state);
  state.RecordMatch(c.FindByIri("http://a/2"), c.FindByIri("http://b/2"));
  const double after = est.PairBenefit(a1, b1, state);
  EXPECT_GT(after, before);
  EXPECT_DOUBLE_EQ(est.RealizedBenefit(a1, b1, state), 1.0);
}

// ---------------------------------------------------------------------------
// ProgressiveResolver end-to-end on generated clouds
// ---------------------------------------------------------------------------

// Heap-held components so internal cross-references survive struct moves.
struct ResolverWorld {
  std::unique_ptr<EntityCollection> collection_ptr;
  std::unique_ptr<GroundTruth> truth_ptr;
  std::unique_ptr<NeighborGraph> graph_ptr;
  std::unique_ptr<SimilarityEvaluator> evaluator_ptr;
  std::vector<WeightedComparison> candidates;

  EntityCollection& collection() const { return *collection_ptr; }
  GroundTruth& truth() const { return *truth_ptr; }
  NeighborGraph& graph() const { return *graph_ptr; }
  SimilarityEvaluator& evaluator() const { return *evaluator_ptr; }

  static ResolverWorld Make(uint64_t seed, bool periphery_heavy) {
    datagen::LodCloudConfig cfg;
    cfg.seed = seed;
    cfg.num_real_entities = 250;
    cfg.num_kbs = 4;
    cfg.center_kbs = periphery_heavy ? 1 : 2;
    if (periphery_heavy) cfg.periphery_token_overlap = 0.2;
    auto cloud = datagen::GenerateLodCloud(cfg);
    EXPECT_TRUE(cloud.ok());
    auto collection_result = cloud->BuildCollection();
    EXPECT_TRUE(collection_result.ok());
    auto collection = std::make_unique<EntityCollection>(
        std::move(collection_result).value());
    auto truth_result = GroundTruth::FromCloud(*cloud, *collection);
    EXPECT_TRUE(truth_result.ok());
    auto truth =
        std::make_unique<GroundTruth>(std::move(truth_result).value());
    BlockCollection blocks = TokenBlocking().Build(*collection);
    MetaBlockingOptions meta;
    meta.weighting = WeightingScheme::kEcbs;
    meta.pruning = PruningScheme::kWnp;
    auto candidates = MetaBlocking(meta).Prune(blocks, *collection);
    auto graph = std::make_unique<NeighborGraph>(*collection);
    auto evaluator = std::make_unique<SimilarityEvaluator>(*collection);
    return ResolverWorld{std::move(collection), std::move(truth),
                         std::move(graph), std::move(evaluator),
                         std::move(candidates)};
  }
};

TEST(ResolverTest, BudgetIsRespected) {
  ResolverWorld w = ResolverWorld::Make(61, false);
  ProgressiveOptions opts;
  opts.matcher.budget = 100;
  ProgressiveResolver resolver(w.collection(), w.graph(), w.evaluator(), opts);
  const ProgressiveResult result = resolver.Resolve(w.candidates);
  EXPECT_EQ(result.run.comparisons_executed, 100u);
  for (const MatchEvent& m : result.run.matches) {
    EXPECT_LE(m.comparisons_done, 100u);
  }
}

TEST(ResolverTest, UnlimitedBudgetExecutesAtLeastAllCandidates) {
  ResolverWorld w = ResolverWorld::Make(61, false);
  ProgressiveOptions opts;
  opts.matcher.budget = 0;
  opts.enable_update_phase = false;
  ProgressiveResolver resolver(w.collection(), w.graph(), w.evaluator(), opts);
  const ProgressiveResult result = resolver.Resolve(w.candidates);
  EXPECT_EQ(result.run.comparisons_executed, w.candidates.size());
}

TEST(ResolverTest, NoDuplicateComparisons) {
  ResolverWorld w = ResolverWorld::Make(67, true);
  ProgressiveOptions opts;
  opts.matcher.budget = 0;
  ProgressiveResolver resolver(w.collection(), w.graph(), w.evaluator(), opts);
  const ProgressiveResult result = resolver.Resolve(w.candidates);
  std::set<uint64_t> seen;
  for (const MatchEvent& m : result.run.matches) {
    EXPECT_TRUE(seen.insert(PairKey(m.a, m.b)).second)
        << "pair matched twice";
  }
}

TEST(ResolverTest, DeterministicAcrossRuns) {
  ResolverWorld w = ResolverWorld::Make(71, false);
  ProgressiveOptions opts;
  opts.matcher.budget = 500;
  ProgressiveResolver r1(w.collection(), w.graph(), w.evaluator(), opts);
  ProgressiveResolver r2(w.collection(), w.graph(), w.evaluator(), opts);
  const ProgressiveResult a = r1.Resolve(w.candidates);
  const ProgressiveResult b = r2.Resolve(w.candidates);
  ASSERT_EQ(a.run.matches.size(), b.run.matches.size());
  for (size_t i = 0; i < a.run.matches.size(); ++i) {
    EXPECT_EQ(PairKey(a.run.matches[i].a, a.run.matches[i].b),
              PairKey(b.run.matches[i].a, b.run.matches[i].b));
    EXPECT_EQ(a.run.matches[i].comparisons_done,
              b.run.matches[i].comparisons_done);
  }
}

TEST(ResolverTest, UpdatePhaseDiscoversBlockingMissedMatches) {
  ResolverWorld w = ResolverWorld::Make(73, true);
  ProgressiveOptions with;
  with.enable_update_phase = true;
  with.matcher.budget = 0;
  // "Somehow similar" periphery descriptions score low on profile
  // similarity; the threshold must be calibrated to that regime.
  with.matcher.threshold = 0.3;
  ProgressiveOptions without = with;
  without.enable_update_phase = false;

  const ProgressiveResult on =
      ProgressiveResolver(w.collection(), w.graph(), w.evaluator(), with)
          .Resolve(w.candidates);
  const ProgressiveResult off =
      ProgressiveResolver(w.collection(), w.graph(), w.evaluator(), without)
          .Resolve(w.candidates);

  EXPECT_GT(on.discovered_pairs, 0u)
      << "update phase must surface pairs blocking missed";
  EXPECT_EQ(off.discovered_pairs, 0u);

  // Correct-match recall (not raw match count) must improve.
  auto correct = [&](const ProgressiveResult& r) {
    uint64_t n = 0;
    for (const MatchEvent& m : r.run.matches) {
      if (w.truth().Matches(m.a, m.b)) ++n;
    }
    return n;
  };
  EXPECT_GT(correct(on), correct(off));
}

TEST(ResolverTest, EvidenceAssistedMatchesAreCountedAndReal) {
  ResolverWorld w = ResolverWorld::Make(79, true);
  ProgressiveOptions opts;
  opts.enable_update_phase = true;
  opts.matcher.budget = 0;
  opts.matcher.threshold = 0.3;
  const ProgressiveResult result =
      ProgressiveResolver(w.collection(), w.graph(), w.evaluator(), opts)
          .Resolve(w.candidates);
  EXPECT_GT(result.evidence_assisted_matches, 0u);
  EXPECT_LE(result.discovered_matches, result.discovered_pairs);
}

TEST(ResolverTest, BenefitTraceMonotone) {
  ResolverWorld w = ResolverWorld::Make(83, false);
  for (uint32_t model = 0; model < kNumBenefitModels; ++model) {
    ProgressiveOptions opts;
    opts.benefit = static_cast<BenefitModel>(model);
    opts.matcher.budget = 400;
    const ProgressiveResult result =
        ProgressiveResolver(w.collection(), w.graph(), w.evaluator(), opts)
            .Resolve(w.candidates);
    ASSERT_EQ(result.benefit_trace.size(), result.run.matches.size());
    for (size_t i = 1; i < result.benefit_trace.size(); ++i) {
      EXPECT_GE(result.benefit_trace[i], result.benefit_trace[i - 1])
          << BenefitModelName(opts.benefit);
    }
  }
}

TEST(ResolverTest, ProgressiveBeatsRandomEarly) {
  ResolverWorld w = ResolverWorld::Make(89, false);
  ProgressiveOptions opts;
  opts.matcher.budget = 0;
  const ProgressiveResult prog =
      ProgressiveResolver(w.collection(), w.graph(), w.evaluator(), opts)
          .Resolve(w.candidates);

  // Random order over the same candidate set, same budget horizon.
  std::vector<Comparison> random_order;
  for (const auto& c : w.candidates) random_order.emplace_back(c.a, c.b);
  Rng rng(1234);
  rng.Shuffle(random_order);
  MatcherOptions mopts;
  mopts.threshold = opts.matcher.threshold;
  BatchMatcher random_matcher(w.evaluator(), mopts);
  const ResolutionRun random_run = random_matcher.Run(random_order);

  const uint64_t horizon = w.candidates.size();
  const double auc_prog =
      ProgressiveRecallAuc(prog.run, w.truth(), horizon);
  const double auc_rand =
      ProgressiveRecallAuc(random_run, w.truth(), horizon);
  EXPECT_GT(auc_prog, auc_rand * 1.2)
      << "scheduling must front-load recall vs random";
}

// Two matches whose neighborhoods both reach the same pair blocking never
// produced: the pair is discovered once, even when evidence.increment = 0
// leaves its evidence at zero after both sightings.
TEST(ResolverTest, DiscoveredPairCountedOnceAtZeroIncrement) {
  EntityCollection c;
  ASSERT_TRUE(c.AddKnowledgeBase("a", Parse(R"(
<http://a/1> <http://a/p> "alpha beta gamma" .
<http://a/1> <http://a/rel> <http://a/3> .
<http://a/2> <http://a/p> "delta epsilon zeta" .
<http://a/2> <http://a/rel> <http://a/3> .
<http://a/3> <http://a/p> "omega" .
)")).ok());
  ASSERT_TRUE(c.AddKnowledgeBase("b", Parse(R"(
<http://b/1> <http://b/p> "alpha beta gamma" .
<http://b/1> <http://b/rel> <http://b/3> .
<http://b/2> <http://b/p> "delta epsilon zeta" .
<http://b/2> <http://b/rel> <http://b/3> .
<http://b/3> <http://b/p> "sigma" .
)")).ok());
  ASSERT_TRUE(c.Finalize().ok());
  const auto id = [&c](const char* iri) { return c.FindByIri(iri); };
  const NeighborGraph graph(c);
  const SimilarityEvaluator evaluator(c);
  ProgressiveOptions opts;
  opts.evidence.increment = 0.0;
  const std::vector<WeightedComparison> candidates = {
      {id("http://a/1"), id("http://b/1"), 1.0},
      {id("http://a/2"), id("http://b/2"), 0.9}};
  const ProgressiveResult result =
      ProgressiveResolver(c, graph, evaluator, opts).Resolve(candidates);
  ASSERT_EQ(result.run.matches.size(), 2u);
  EXPECT_EQ(result.discovered_pairs, 1u);  // (a/3, b/3), reached twice
  EXPECT_EQ(result.run.comparisons_executed, 3u);
}

// A pair listed twice among Begin's candidates is scheduled once, at the
// likelihood recorded last — not at the one its earlier copy carried.
TEST(ResolverTest, RelistedCandidateUsesItsLastLikelihood) {
  EntityCollection c;
  ASSERT_TRUE(c.AddKnowledgeBase("a", Parse(R"(
<http://a/1> <http://a/p> "alpha beta gamma" .
<http://a/2> <http://a/p> "delta epsilon zeta" .
)")).ok());
  ASSERT_TRUE(c.AddKnowledgeBase("b", Parse(R"(
<http://b/1> <http://b/p> "alpha beta gamma" .
<http://b/2> <http://b/p> "delta epsilon zeta" .
)")).ok());
  ASSERT_TRUE(c.Finalize().ok());
  const auto id = [&c](const char* iri) { return c.FindByIri(iri); };
  const NeighborGraph graph(c);
  const SimilarityEvaluator evaluator(c);
  ProgressiveOptions opts;
  opts.enable_update_phase = false;
  const std::vector<WeightedComparison> candidates = {
      {id("http://a/1"), id("http://b/1"), 1.0},
      {id("http://a/2"), id("http://b/2"), 0.5},
      {id("http://a/1"), id("http://b/1"), 0.1}};
  const ProgressiveResult result =
      ProgressiveResolver(c, graph, evaluator, opts).Resolve(candidates);
  ASSERT_EQ(result.run.matches.size(), 2u);
  EXPECT_EQ(PairKey(result.run.matches[0].a, result.run.matches[0].b),
            PairKey(id("http://a/2"), id("http://b/2")));
  EXPECT_EQ(result.run.comparisons_executed, 2u);
  EXPECT_EQ(result.scheduler_pushes, 3u);
}

TEST(ResolverTest, SchedulerOverheadBounded) {
  ResolverWorld w = ResolverWorld::Make(97, false);
  ProgressiveOptions opts;
  opts.matcher.budget = 0;
  const ProgressiveResult result =
      ProgressiveResolver(w.collection(), w.graph(), w.evaluator(), opts)
          .Resolve(w.candidates);
  // Heap pushes stay within a small multiple of work done (no runaway
  // re-scheduling loops).
  EXPECT_LT(result.scheduler_pushes,
            20 * (result.run.comparisons_executed + w.candidates.size()));
}

}  // namespace
}  // namespace minoan
