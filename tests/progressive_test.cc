// Unit tests for the progressive module: scheduler, resolution state,
// benefit models, and the full scheduling/matching/update loop.

#include <algorithm>
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
