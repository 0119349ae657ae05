// Unit tests for the eval module: ground truth, blocking/matching metrics,
// progressive recall curves & AUC, and the quality-aspect metrics.

#include <sys/resource.h>

#include <cmath>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "eval/progressive_metrics.h"
#include "gtest/gtest.h"
#include "rdf/ntriples.h"

namespace minoan {
namespace {

std::vector<rdf::Triple> Parse(const std::string& doc) {
  rdf::NTriplesParser parser;
  auto result = parser.ParseString(doc);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// GroundTruth
// ---------------------------------------------------------------------------

TEST(GroundTruthTest, TransitiveClosureTaken) {
  GroundTruth truth(6, {{0, 1}, {1, 2}, {4, 5}});
  EXPECT_TRUE(truth.Matches(0, 2));  // via closure
  EXPECT_TRUE(truth.Matches(4, 5));
  EXPECT_FALSE(truth.Matches(0, 4));
  EXPECT_FALSE(truth.Matches(3, 3));
  // Pairs: C(3,2) + C(2,2) = 3 + 1.
  EXPECT_EQ(truth.num_pairs(), 4u);
  EXPECT_EQ(truth.num_matchable_entities(), 5u);
  EXPECT_EQ(truth.clusters().size(), 2u);
}

TEST(GroundTruthTest, SingletonsHaveNoCluster) {
  GroundTruth truth(4, {{0, 1}});
  EXPECT_EQ(truth.ClusterOf(2), kInvalidEntity);
  EXPECT_NE(truth.ClusterOf(0), kInvalidEntity);
  EXPECT_EQ(truth.ClusterOf(0), truth.ClusterOf(1));
}

TEST(GroundTruthTest, EmptyTruth) {
  GroundTruth truth(3, {});
  EXPECT_EQ(truth.num_pairs(), 0u);
  EXPECT_FALSE(truth.Matches(0, 1));
}

// ---------------------------------------------------------------------------
// Blocking metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, CandidateEvaluation) {
  GroundTruth truth(6, {{0, 3}, {1, 4}});
  std::vector<Comparison> candidates = {
      Comparison(0, 3),  // hit
      Comparison(1, 5),  // miss
      Comparison(2, 4),  // miss
      Comparison(0, 3),  // duplicate hit (counted once for PC)
  };
  const BlockingMetrics m = EvaluateCandidates(candidates, truth, 9);
  EXPECT_EQ(m.comparisons, 4u);
  EXPECT_EQ(m.matching_pairs, 1u);
  EXPECT_EQ(m.truth_pairs, 2u);
  EXPECT_DOUBLE_EQ(m.pair_completeness, 0.5);
  EXPECT_DOUBLE_EQ(m.pair_quality, 0.25);
  EXPECT_NEAR(m.reduction_ratio, 1.0 - 4.0 / 9.0, 1e-12);
}

TEST(MetricsTest, BruteForceCounts) {
  EntityCollection c;
  ASSERT_TRUE(c.AddKnowledgeBase("a", Parse(R"(
<http://a/1> <http://a/p> "x" .
<http://a/2> <http://a/p> "y" .
<http://a/3> <http://a/p> "z" .
)")).ok());
  ASSERT_TRUE(c.AddKnowledgeBase("b", Parse(R"(
<http://b/1> <http://b/p> "x" .
<http://b/2> <http://b/p> "y" .
)")).ok());
  ASSERT_TRUE(c.Finalize().ok());
  // n = 5: dirty = 10; clean-clean = 10 - C(3,2) - C(2,2) = 10 - 3 - 1 = 6.
  EXPECT_EQ(BruteForceComparisons(c, ResolutionMode::kDirty), 10u);
  EXPECT_EQ(BruteForceComparisons(c, ResolutionMode::kCleanClean), 6u);
}

/// Peak resident set size of this process so far, in bytes (Linux reports
/// ru_maxrss in KiB).
uint64_t PeakRssBytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

TEST(MetricsTest, EvaluateBlocksMemoryIsLinearInEntities) {
  // One block holding 2,500 descriptions from each of two KBs induces
  // 6.25M distinct cross-KB pairs. Evaluating it must count them, not
  // materialize them: peak RSS may grow by less than 64 MB across the call.
  constexpr uint32_t kPerKb = 2500;
  EntityCollection c;
  for (const std::string kb : {"a", "b"}) {
    std::string doc;
    for (uint32_t i = 0; i < kPerKb; ++i) {
      doc += "<http://" + kb + "/" + std::to_string(i) +
             "> <http://p/name> \"x\" .\n";
    }
    ASSERT_TRUE(c.AddKnowledgeBase(kb, Parse(doc)).ok());
  }
  ASSERT_TRUE(c.Finalize().ok());
  ASSERT_EQ(c.num_entities(), 2 * kPerKb);

  // Description i of KB a matches description i of KB b.
  std::vector<std::pair<EntityId, EntityId>> pairs;
  for (uint32_t i = 0; i < kPerKb; ++i) {
    pairs.emplace_back(c.FindByIri("http://a/" + std::to_string(i)),
                       c.FindByIri("http://b/" + std::to_string(i)));
  }
  const GroundTruth truth(c.num_entities(), pairs);
  std::vector<EntityId> everyone(c.num_entities());
  std::iota(everyone.begin(), everyone.end(), EntityId{0});
  BlockCollection blocks;
  ASSERT_TRUE(blocks.AddBlock(everyone));

  const uint64_t peak_before = PeakRssBytes();
  const BlockingMetrics m =
      EvaluateBlocks(blocks, c, ResolutionMode::kCleanClean, truth);
  const uint64_t growth = PeakRssBytes() - peak_before;

  EXPECT_EQ(m.comparisons, uint64_t{kPerKb} * kPerKb);
  EXPECT_EQ(m.matching_pairs, kPerKb);
  EXPECT_EQ(m.truth_pairs, kPerKb);
  EXPECT_DOUBLE_EQ(m.pair_completeness, 1.0);
  EXPECT_DOUBLE_EQ(m.reduction_ratio, 0.0);
  EXPECT_LT(growth, uint64_t{64} << 20)
      << "EvaluateBlocks grew peak RSS by " << (growth >> 20) << " MB";
}

TEST(MetricsTest, MatchingMetricsMath) {
  GroundTruth truth(6, {{0, 3}, {1, 4}});
  std::vector<MatchEvent> matches = {
      {1, 0, 3, 0.9},  // correct
      {2, 2, 5, 0.8},  // wrong
      {3, 0, 3, 0.7},  // duplicate (ignored)
  };
  const MatchingMetrics m = EvaluateMatches(matches, truth);
  EXPECT_EQ(m.emitted, 2u);
  EXPECT_EQ(m.correct, 1u);
  EXPECT_DOUBLE_EQ(m.precision, 0.5);
  EXPECT_DOUBLE_EQ(m.recall, 0.5);
  EXPECT_DOUBLE_EQ(m.f1, 0.5);
}

TEST(MetricsTest, EmptyMatchSet) {
  GroundTruth truth(4, {{0, 1}});
  const MatchingMetrics m = EvaluateMatches({}, truth);
  EXPECT_DOUBLE_EQ(m.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.f1, 0.0);
}

// ---------------------------------------------------------------------------
// Progressive recall curve & AUC
// ---------------------------------------------------------------------------

ResolutionRun MakeRun(std::vector<MatchEvent> matches, uint64_t executed) {
  ResolutionRun run;
  run.matches = std::move(matches);
  run.comparisons_executed = executed;
  return run;
}

TEST(CurveTest, CurvePointsAtCorrectMatches) {
  GroundTruth truth(8, {{0, 4}, {1, 5}, {2, 6}, {3, 7}});
  const ResolutionRun run = MakeRun(
      {
          {2, 0, 4, 0.9},   // correct at comparison 2
          {5, 1, 2, 0.8},   // wrong pair: no recall change
          {7, 1, 5, 0.7},   // correct at comparison 7
      },
      10);
  const auto curve = ProgressiveRecallCurve(run, truth);
  // (0,0), (2,0.25), (7,0.5), (10,0.5).
  ASSERT_EQ(curve.size(), 4u);
  EXPECT_EQ(curve[1].comparisons, 2u);
  EXPECT_DOUBLE_EQ(curve[1].recall, 0.25);
  EXPECT_EQ(curve[2].comparisons, 7u);
  EXPECT_DOUBLE_EQ(curve[2].recall, 0.5);
  EXPECT_EQ(curve[3].comparisons, 10u);
  EXPECT_DOUBLE_EQ(curve[3].recall, 0.5);
}

TEST(CurveTest, AucStepIntegration) {
  GroundTruth truth(4, {{0, 2}, {1, 3}});
  // Recall jumps to 0.5 at comparison 1 and to 1.0 at 5; horizon 10.
  const ResolutionRun run = MakeRun({{1, 0, 2, 0.9}, {5, 1, 3, 0.8}}, 10);
  // Area = 0*(1) + 0.5*(5-1) + 1.0*(10-5) = 7 over 10.
  EXPECT_NEAR(ProgressiveRecallAuc(run, truth, 10), 0.7, 1e-12);
}

TEST(CurveTest, AucEarlyBeatsLate) {
  GroundTruth truth(4, {{0, 2}, {1, 3}});
  const ResolutionRun early = MakeRun({{1, 0, 2, 1}, {2, 1, 3, 1}}, 100);
  const ResolutionRun late = MakeRun({{98, 0, 2, 1}, {99, 1, 3, 1}}, 100);
  EXPECT_GT(ProgressiveRecallAuc(early, truth, 100),
            ProgressiveRecallAuc(late, truth, 100) * 10);
}

TEST(CurveTest, AucDefaultHorizonIsRunLength) {
  GroundTruth truth(4, {{0, 2}});
  const ResolutionRun run = MakeRun({{1, 0, 2, 1}}, 4);
  // Area = 1.0 * (4-1) / 4.
  EXPECT_NEAR(ProgressiveRecallAuc(run, truth), 0.75, 1e-12);
}

TEST(CurveTest, EmptyRunScoresZero) {
  GroundTruth truth(4, {{0, 2}});
  const ResolutionRun run = MakeRun({}, 0);
  EXPECT_DOUBLE_EQ(ProgressiveRecallAuc(run, truth, 0), 0.0);
}

TEST(TruncateTest, CutsAtBudget) {
  const ResolutionRun run =
      MakeRun({{1, 0, 2, 1}, {5, 1, 3, 1}, {9, 4, 5, 1}}, 10);
  const ResolutionRun cut = TruncateRun(run, 5);
  EXPECT_EQ(cut.comparisons_executed, 5u);
  ASSERT_EQ(cut.matches.size(), 2u);
  EXPECT_EQ(cut.matches.back().comparisons_done, 5u);
}

TEST(TruncateTest, BudgetBeyondRunKeepsAll) {
  const ResolutionRun run = MakeRun({{1, 0, 2, 1}}, 3);
  const ResolutionRun cut = TruncateRun(run, 100);
  EXPECT_EQ(cut.comparisons_executed, 3u);
  EXPECT_EQ(cut.matches.size(), 1u);
}

// ---------------------------------------------------------------------------
// Quality aspects
// ---------------------------------------------------------------------------

/// Fixture: two real entities, each described in both KBs with partly
/// disjoint values; e1's descriptions are related to e2's within each KB.
struct QualityFixture {
  EntityCollection collection;
  EntityId a1, a2, b1, b2;

  QualityFixture() {
    EXPECT_TRUE(collection.AddKnowledgeBase("a", Parse(R"(
<http://a/1> <http://a/p> "red" .
<http://a/1> <http://a/q> "round" .
<http://a/2> <http://a/p> "blue" .
<http://a/2> <http://a/q> "matte" .
<http://a/1> <http://a/rel> <http://a/2> .
)")).ok());
    EXPECT_TRUE(collection.AddKnowledgeBase("b", Parse(R"(
<http://b/1> <http://b/p> "red" .
<http://b/1> <http://b/q> "shiny" .
<http://b/2> <http://b/p> "blue" .
<http://b/2> <http://b/q> "heavy" .
<http://b/1> <http://b/rel> <http://b/2> .
)")).ok());
    EXPECT_TRUE(collection.Finalize().ok());
    a1 = collection.FindByIri("http://a/1");
    a2 = collection.FindByIri("http://a/2");
    b1 = collection.FindByIri("http://b/1");
    b2 = collection.FindByIri("http://b/2");
  }

  GroundTruth Truth() const {
    return GroundTruth(collection.num_entities(), {{a1, b1}, {a2, b2}});
  }
};

TEST(QualityTest, NothingResolvedScoresFloor) {
  QualityFixture f;
  const GroundTruth truth = f.Truth();
  NeighborGraph graph(f.collection);
  const ResolutionRun run = MakeRun({}, 0);
  const QualityAspects q =
      EvaluateQualityAspects(run, truth, f.collection, graph);
  EXPECT_DOUBLE_EQ(q.entity_coverage, 0.0);
  EXPECT_DOUBLE_EQ(q.relationship_completeness, 0.0);
  // Largest fragment is a single description: its own value share.
  EXPECT_GT(q.attribute_completeness, 0.0);
  EXPECT_LT(q.attribute_completeness, 1.0);
}

TEST(QualityTest, FullResolutionScoresOne) {
  QualityFixture f;
  const GroundTruth truth = f.Truth();
  NeighborGraph graph(f.collection);
  const ResolutionRun run =
      MakeRun({{1, f.a1, f.b1, 0.9}, {2, f.a2, f.b2, 0.8}}, 2);
  const QualityAspects q =
      EvaluateQualityAspects(run, truth, f.collection, graph);
  EXPECT_DOUBLE_EQ(q.attribute_completeness, 1.0);
  EXPECT_DOUBLE_EQ(q.entity_coverage, 1.0);
  EXPECT_DOUBLE_EQ(q.relationship_completeness, 1.0);
}

TEST(QualityTest, PartialResolutionInBetween) {
  QualityFixture f;
  const GroundTruth truth = f.Truth();
  NeighborGraph graph(f.collection);
  // Only entity 1 resolved: coverage 1/2; the a1-a2 and b1-b2 relation
  // edges each have one unresolved endpoint.
  const ResolutionRun run = MakeRun({{1, f.a1, f.b1, 0.9}}, 1);
  const QualityAspects q =
      EvaluateQualityAspects(run, truth, f.collection, graph);
  EXPECT_DOUBLE_EQ(q.entity_coverage, 0.5);
  EXPECT_DOUBLE_EQ(q.relationship_completeness, 0.0);
  EXPECT_LT(q.attribute_completeness, 1.0);
  EXPECT_GT(q.attribute_completeness, 0.4);
}

TEST(QualityTest, FalsePositiveMergesDoNotCount) {
  QualityFixture f;
  const GroundTruth truth = f.Truth();
  NeighborGraph graph(f.collection);
  // Wrong merge a1-b2: no real entity resolved.
  const ResolutionRun run = MakeRun({{1, f.a1, f.b2, 0.9}}, 1);
  const QualityAspects q =
      EvaluateQualityAspects(run, truth, f.collection, graph);
  EXPECT_DOUBLE_EQ(q.entity_coverage, 0.0);
  EXPECT_DOUBLE_EQ(q.relationship_completeness, 0.0);
}

TEST(QualityTest, AttributeCompletenessGrowsWithValues) {
  QualityFixture f;
  const GroundTruth truth = f.Truth();
  NeighborGraph graph(f.collection);
  const QualityAspects none = EvaluateQualityAspects(
      MakeRun({}, 0), truth, f.collection, graph);
  const QualityAspects one = EvaluateQualityAspects(
      MakeRun({{1, f.a1, f.b1, 0.9}}, 1), truth, f.collection, graph);
  const QualityAspects both = EvaluateQualityAspects(
      MakeRun({{1, f.a1, f.b1, 0.9}, {2, f.a2, f.b2, 0.8}}, 2), truth,
      f.collection, graph);
  EXPECT_LT(none.attribute_completeness, one.attribute_completeness);
  EXPECT_LT(one.attribute_completeness, both.attribute_completeness);
}

}  // namespace
}  // namespace minoan
