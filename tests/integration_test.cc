// Integration tests: the full MinoanEr pipeline (Figure 1) over generated
// LOD clouds, exercising blocking -> cleaning -> meta-blocking ->
// progressive resolution end to end, plus file-based ingestion.

#include <filesystem>

#include "core/minoan_er.h"
#include "datagen/lod_generator.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "eval/progressive_metrics.h"
#include "gtest/gtest.h"
#include "rdf/ntriples.h"

namespace minoan {
namespace {

datagen::LodCloudConfig MediumConfig(uint64_t seed) {
  datagen::LodCloudConfig cfg;
  cfg.seed = seed;
  cfg.num_real_entities = 400;
  cfg.num_kbs = 5;
  cfg.center_kbs = 2;
  return cfg;
}

struct World {
  std::unique_ptr<EntityCollection> collection;
  std::unique_ptr<GroundTruth> truth;

  static World Make(const datagen::LodCloudConfig& cfg) {
    auto cloud = datagen::GenerateLodCloud(cfg);
    EXPECT_TRUE(cloud.ok());
    auto collection = cloud->BuildCollection();
    EXPECT_TRUE(collection.ok());
    auto col = std::make_unique<EntityCollection>(
        std::move(collection).value());
    auto truth = GroundTruth::FromCloud(*cloud, *col);
    EXPECT_TRUE(truth.ok());
    return World{std::move(col), std::make_unique<GroundTruth>(
                                     std::move(truth).value())};
  }
};

TEST(PipelineTest, RunsEndToEndWithDefaults) {
  World w = World::Make(MediumConfig(201));
  MinoanEr er;
  auto report = er.Run(*w.collection);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->blocks_built, 0u);
  EXPECT_GT(report->blocks_after_cleaning, 0u);
  EXPECT_GT(report->comparisons_after_meta, 0u);
  EXPECT_GT(report->progressive.run.matches.size(), 0u);
  EXPECT_FALSE(report->Summary().empty());
  EXPECT_EQ(report->phases.size(), 5u);
}

TEST(PipelineTest, RejectsUnfinalizedCollection) {
  EntityCollection unfinalized;
  MinoanEr er;
  auto report = er.Run(unfinalized);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PipelineTest, AchievesGoodQualityOnCenterHeavyCloud) {
  datagen::LodCloudConfig cfg = MediumConfig(203);
  cfg.center_kbs = 4;
  World w = World::Make(cfg);
  WorkflowOptions opts;
  opts.progressive.matcher.threshold = 0.4;
  MinoanEr er(opts);
  auto report = er.Run(*w.collection);
  ASSERT_TRUE(report.ok());
  const MatchingMetrics m =
      EvaluateMatches(report->progressive.run.matches, *w.truth);
  EXPECT_GT(m.recall, 0.6) << "highly similar data should mostly resolve";
  EXPECT_GT(m.precision, 0.8);
}

TEST(PipelineTest, UpdatePhaseLiftsPeripheryRecall) {
  datagen::LodCloudConfig cfg = MediumConfig(207);
  cfg.center_kbs = 1;
  cfg.periphery_token_overlap = 0.2;
  World w = World::Make(cfg);

  WorkflowOptions on;
  on.progressive.matcher.threshold = 0.3;
  on.progressive.enable_update_phase = true;
  WorkflowOptions off = on;
  off.progressive.enable_update_phase = false;

  auto r_on = MinoanEr(on).Run(*w.collection);
  auto r_off = MinoanEr(off).Run(*w.collection);
  ASSERT_TRUE(r_on.ok());
  ASSERT_TRUE(r_off.ok());
  const MatchingMetrics m_on =
      EvaluateMatches(r_on->progressive.run.matches, *w.truth);
  const MatchingMetrics m_off =
      EvaluateMatches(r_off->progressive.run.matches, *w.truth);
  EXPECT_GT(m_on.recall, m_off.recall)
      << "neighbor evidence must recover blocking-missed matches";
  EXPECT_GT(r_on->progressive.discovered_pairs, 0u);
}

TEST(PipelineTest, BudgetLimitsWork) {
  World w = World::Make(MediumConfig(211));
  WorkflowOptions opts;
  opts.progressive.matcher.budget = 50;
  MinoanEr er(opts);
  auto report = er.Run(*w.collection);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->progressive.run.comparisons_executed, 50u);
}

TEST(PipelineTest, MetaBlockingReducesComparisons) {
  // The candidates the schedule receives are a strict subset of the
  // blocking graph's edges (every distinct co-occurring pair).
  World w = World::Make(MediumConfig(213));
  auto report = MinoanEr().Run(*w.collection);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->comparisons_after_meta, 0u);
  EXPECT_LT(report->comparisons_after_meta, report->meta_stats.graph_edges);
}

TEST(PipelineTest, DeterministicReports) {
  World w = World::Make(MediumConfig(217));
  MinoanEr er;
  auto a = er.Run(*w.collection);
  auto b = er.Run(*w.collection);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->blocks_built, b->blocks_built);
  EXPECT_EQ(a->comparisons_after_meta, b->comparisons_after_meta);
  ASSERT_EQ(a->progressive.run.matches.size(),
            b->progressive.run.matches.size());
}

TEST(PipelineTest, AllBlockerChoicesRun) {
  World w = World::Make(MediumConfig(219));
  for (BlockerChoice choice :
       {BlockerChoice::kToken, BlockerChoice::kPis,
        BlockerChoice::kAttributeClustering, BlockerChoice::kTokenPlusPis}) {
    WorkflowOptions opts;
    opts.blocker = choice;
    MinoanEr er(opts);
    auto report = er.Run(*w.collection);
    ASSERT_TRUE(report.ok()) << BlockerChoiceName(choice);
    EXPECT_GT(report->blocks_built, 0u) << BlockerChoiceName(choice);
  }
}

TEST(PipelineTest, FileBasedRoundTrip) {
  // Generate -> write N-Triples -> re-ingest from disk -> resolve.
  const std::string dir = ::testing::TempDir() + "/pipeline_cloud";
  std::filesystem::remove_all(dir);
  auto cloud = datagen::GenerateLodCloud(MediumConfig(223));
  ASSERT_TRUE(cloud.ok());
  ASSERT_TRUE(cloud->WriteTo(dir).ok());

  rdf::NTriplesParser parser;
  EntityCollection collection;
  for (const auto& kb : cloud->kbs) {
    auto triples = parser.ParseFile(dir + "/" + kb.name + ".nt");
    ASSERT_TRUE(triples.ok());
    ASSERT_TRUE(collection.AddKnowledgeBase(kb.name, *triples).ok());
  }
  ASSERT_TRUE(collection.Finalize().ok());
  auto truth = GroundTruth::FromTsv(dir + "/ground_truth.tsv", collection);
  ASSERT_TRUE(truth.ok());

  MinoanEr er;
  auto report = er.Run(collection);
  ASSERT_TRUE(report.ok());
  const MatchingMetrics m =
      EvaluateMatches(report->progressive.run.matches, *truth);
  EXPECT_GT(m.recall, 0.3);
  EXPECT_GT(m.precision, 0.6);
}

TEST(PipelineTest, BenefitModelsAllProduceProgress) {
  World w = World::Make(MediumConfig(227));
  NeighborGraph graph(*w.collection);
  for (uint32_t model = 0; model < kNumBenefitModels; ++model) {
    WorkflowOptions opts;
    opts.progressive.benefit = static_cast<BenefitModel>(model);
    opts.progressive.matcher.budget = 2000;
    MinoanEr er(opts);
    auto report = er.Run(*w.collection);
    ASSERT_TRUE(report.ok());
    const QualityAspects q = EvaluateQualityAspects(
        report->progressive.run, *w.truth, *w.collection, graph);
    EXPECT_GT(q.entity_coverage, 0.0)
        << BenefitModelName(opts.progressive.benefit);
  }
}

}  // namespace
}  // namespace minoan
