// Unit tests for the blocking module: blocks, token/PIS/attribute-clustering
// blocking, purging, filtering, and comparison counting.

#include <algorithm>
#include <set>

#include "block_pairs.h"
#include "blocking/block.h"
#include "blocking/block_cleaning.h"
#include "blocking/blocking_method.h"
#include "datagen/lod_generator.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
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

/// Two tiny KBs with a known matching pair (heraklion) sharing tokens.
EntityCollection TinyCollection() {
  EntityCollection c;
  EXPECT_TRUE(c.AddKnowledgeBase("a", Parse(R"(
<http://a/r/heraklion> <http://a/v/name> "heraklion port" .
<http://a/r/athens> <http://a/v/name> "athens capital" .
<http://a/r/sparta> <http://a/v/name> "sparta war" .
)")).ok());
  EXPECT_TRUE(c.AddKnowledgeBase("b", Parse(R"(
<http://b/x/h1> <http://b/p/label> "heraklion crete port" .
<http://b/x/a1> <http://b/p/label> "athens greece" .
)")).ok());
  EXPECT_TRUE(c.Finalize().ok());
  return c;
}

EntityId Find(const EntityCollection& c, std::string_view iri) {
  const EntityId e = c.FindByIri(iri);
  EXPECT_NE(e, kInvalidEntity) << iri;
  return e;
}

// ---------------------------------------------------------------------------
// Block / BlockCollection mechanics
// ---------------------------------------------------------------------------

TEST(BlockTest, DirtyComparisonsIsChoose2) {
  EntityCollection c = TinyCollection();
  BlockCollection blocks;
  blocks.AddBlock("b", {0, 1, 2, 3});
  EXPECT_EQ(blocks.NumComparisons(0, c, ResolutionMode::kDirty), 6u);
}

TEST(BlockTest, CleanCleanComparisonsCrossKbOnly) {
  EntityCollection c = TinyCollection();
  // Entities 0..2 are in KB a, 3..4 in KB b.
  BlockCollection blocks;
  blocks.AddBlock("b", {0, 1, 3});
  blocks.AddBlock("same_kb", {0, 1, 2});
  // pairs: (0,3), (1,3) cross; (0,1) same-KB.
  EXPECT_EQ(blocks.NumComparisons(0, c, ResolutionMode::kCleanClean), 2u);
  EXPECT_EQ(blocks.NumComparisons(1, c, ResolutionMode::kCleanClean), 0u);
}

TEST(BlockCollectionTest, AddBlockDropsSingletonsAndDupes) {
  BlockCollection blocks;
  blocks.AddBlock("solo", {4});
  blocks.AddBlock("dupes", {2, 2, 1});
  ASSERT_EQ(blocks.num_blocks(), 1u);
  EXPECT_TRUE(
      std::ranges::equal(blocks.entities(0), std::vector<EntityId>{1, 2}));
  EXPECT_EQ(blocks.KeyString(0), "dupes");
}

TEST(BlockCollectionTest, GraphEdgesDedupeAcrossBlocks) {
  EntityCollection c = TinyCollection();
  BlockCollection blocks;
  blocks.AddBlock("k1", {0, 3});
  blocks.AddBlock("k2", {0, 3, 4});
  const auto distinct =
      testutil::BlockPairs(blocks, c, ResolutionMode::kCleanClean);
  // (0,3) appears twice across blocks but once distinct; plus (0,4), (3,4)
  // is same-KB (both b)... 3 and 4 are both KB b -> excluded.
  std::set<std::pair<EntityId, EntityId>> expect{{0, 3}, {0, 4}};
  std::set<std::pair<EntityId, EntityId>> got;
  for (const Comparison& cmp : distinct) got.insert({cmp.a, cmp.b});
  EXPECT_EQ(got, expect);
}

TEST(BlockCollectionTest, EntityIndexInvertsBlocks) {
  EntityCollection c = TinyCollection();
  BlockCollection blocks;
  blocks.AddBlock("k1", {0, 1});
  blocks.AddBlock("k2", {1, 2});
  blocks.BuildEntityIndex(c.num_entities());
  EXPECT_EQ(blocks.BlocksOf(1).size(), 2u);
  EXPECT_EQ(blocks.BlocksOf(0).size(), 1u);
  EXPECT_EQ(blocks.BlocksOf(4).size(), 0u);
}

TEST(BlockCollectionTest, GraphNodesArePlacedEntities) {
  EntityCollection c = TinyCollection();
  BlockCollection blocks;
  blocks.AddBlock("k1", {0, 1});
  blocks.AddBlock("k2", {1, 2});
  const BlockingGraphView view(blocks, c, WeightingScheme::kCbs,
                               ResolutionMode::kDirty);
  EXPECT_EQ(view.num_nodes(), 3.0);
}

// ---------------------------------------------------------------------------
// Token blocking
// ---------------------------------------------------------------------------

TEST(TokenBlockingTest, SharedTokenCreatesBlock) {
  EntityCollection c = TinyCollection();
  TokenBlocking blocking;
  BlockCollection blocks = blocking.Build(c);
  // "heraklion" is shared by a/r/heraklion and b/x/h1.
  const EntityId ha = Find(c, "http://a/r/heraklion");
  const EntityId hb = Find(c, "http://b/x/h1");
  bool together = false;
  for (uint32_t bi = 0; bi < blocks.num_blocks(); ++bi) {
    const bool has_a = std::ranges::binary_search(blocks.entities(bi), ha);
    const bool has_b = std::ranges::binary_search(blocks.entities(bi), hb);
    if (has_a && has_b) together = true;
  }
  EXPECT_TRUE(together);
}

TEST(TokenBlockingTest, MinDfFiltersUniqueTokens) {
  EntityCollection c = TinyCollection();
  TokenBlocking blocking;  // min_df = 2
  BlockCollection blocks = blocking.Build(c);
  for (uint32_t bi = 0; bi < blocks.num_blocks(); ++bi) {
    EXPECT_GE(blocks.block_size(bi), 2u);
  }
}

TEST(TokenBlockingTest, MaxDfDropsStopTokens) {
  // Token "common" present in every entity: with max_df_fraction = 0.5 its
  // block must disappear.
  EntityCollection c;
  ASSERT_TRUE(c.AddKnowledgeBase("a", Parse(R"(
<http://a/1> <http://a/p> "common alpha" .
<http://a/2> <http://a/p> "common beta" .
)")).ok());
  ASSERT_TRUE(c.AddKnowledgeBase("b", Parse(R"(
<http://b/3> <http://b/p> "common gamma" .
<http://b/4> <http://b/p> "common delta" .
)")).ok());
  ASSERT_TRUE(c.Finalize().ok());
  TokenBlocking::Options opts;
  opts.max_df_fraction = 0.5;
  TokenBlocking blocking(opts);
  BlockCollection blocks = blocking.Build(c);
  for (uint32_t bi = 0; bi < blocks.num_blocks(); ++bi) {
    EXPECT_NE(blocks.KeyString(bi), "common");
  }
}

TEST(TokenBlockingTest, RecallOnGeneratedCenterCloud) {
  datagen::LodCloudConfig cfg;
  cfg.seed = 31;
  cfg.num_real_entities = 400;
  cfg.num_kbs = 3;
  cfg.center_kbs = 3;  // center-only: highly similar descriptions
  auto cloud = datagen::GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto c = cloud->BuildCollection();
  ASSERT_TRUE(c.ok());
  auto truth = GroundTruth::FromCloud(*cloud, *c);
  ASSERT_TRUE(truth.ok());
  TokenBlocking blocking;
  BlockCollection blocks = blocking.Build(*c);
  const BlockingMetrics m =
      EvaluateBlocks(blocks, *c, ResolutionMode::kCleanClean, *truth);
  EXPECT_GT(m.pair_completeness, 0.95)
      << "token blocking must be near-complete on highly similar data";
  EXPECT_GT(m.reduction_ratio, 0.0);
}

TEST(TokenBlockingTest, RecallDropsOnPeripheryCloud) {
  datagen::LodCloudConfig cfg;
  cfg.seed = 31;
  cfg.num_real_entities = 400;
  cfg.num_kbs = 3;
  cfg.center_kbs = 0;  // periphery-only: somehow similar descriptions
  cfg.periphery_token_overlap = 0.15;
  auto cloud = datagen::GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto c = cloud->BuildCollection();
  ASSERT_TRUE(c.ok());
  auto truth = GroundTruth::FromCloud(*cloud, *c);
  ASSERT_TRUE(truth.ok());
  BlockCollection blocks = TokenBlocking().Build(*c);
  const BlockingMetrics m =
      EvaluateBlocks(blocks, *c, ResolutionMode::kCleanClean, *truth);
  EXPECT_LT(m.pair_completeness, 0.95)
      << "few common tokens: token blocking must miss pairs (poster claim)";
}

// ---------------------------------------------------------------------------
// PIS blocking
// ---------------------------------------------------------------------------

TEST(PisBlockingTest, SharedSuffixCreatesBlock) {
  EntityCollection c;
  ASSERT_TRUE(c.AddKnowledgeBase("a", Parse(R"(
<http://a/r/Heraklion> <http://a/p/x> "portcity" .
<http://a/r/Athens> <http://a/p/x> "capitalcity" .
)")).ok());
  ASSERT_TRUE(c.AddKnowledgeBase("b", Parse(R"(
<http://b/place/Heraklion> <http://b/p/y> "island town" .
)")).ok());
  ASSERT_TRUE(c.Finalize().ok());
  PisBlocking blocking;
  BlockCollection blocks = blocking.Build(c);
  bool suffix_block = false;
  for (uint32_t bi = 0; bi < blocks.num_blocks(); ++bi) {
    if (blocks.KeyString(bi) == "sfx:Heraklion") {
      suffix_block = true;
      EXPECT_EQ(blocks.block_size(bi), 2u);
    }
  }
  EXPECT_TRUE(suffix_block);
}

TEST(PisBlockingTest, InfixOptional) {
  EntityCollection c;
  ASSERT_TRUE(c.AddKnowledgeBase("a", Parse(R"(
<http://a/res/x1> <http://a/p> "v1" .
<http://a/res/x2> <http://a/p> "v2" .
)")).ok());
  ASSERT_TRUE(c.Finalize().ok());
  PisBlocking::Options opts;
  opts.use_infix = true;
  opts.tokenize_suffix = false;
  PisBlocking blocking(opts);
  BlockCollection blocks = blocking.Build(c);
  bool infix_block = false;
  for (uint32_t bi = 0; bi < blocks.num_blocks(); ++bi) {
    if (blocks.KeyString(bi) == "ifx:/res") infix_block = true;
  }
  EXPECT_TRUE(infix_block);
}

TEST(PisBlockingTest, CatchesMatchesWithDisjointValues) {
  // Same IRI suffix, zero shared value tokens: PIS finds it, token misses.
  EntityCollection c;
  ASSERT_TRUE(c.AddKnowledgeBase("a", Parse(R"(
<http://a/r/knossos_palace> <http://a/p> "alpha beta" .
)")).ok());
  ASSERT_TRUE(c.AddKnowledgeBase("b", Parse(R"(
<http://b/r/knossos_palace> <http://b/p> "gamma delta" .
)")).ok());
  ASSERT_TRUE(c.Finalize().ok());
  PisBlocking blocking;
  BlockCollection blocks = blocking.Build(c);
  EXPECT_GT(blocks.num_blocks(), 0u);
  bool together = false;
  for (uint32_t bi = 0; bi < blocks.num_blocks(); ++bi) {
    if (blocks.block_size(bi) == 2) together = true;
  }
  EXPECT_TRUE(together);
}

// ---------------------------------------------------------------------------
// Attribute-clustering blocking
// ---------------------------------------------------------------------------

TEST(AttrClusteringTest, SimilarVocabulariesCluster) {
  EntityCollection c;
  ASSERT_TRUE(c.AddKnowledgeBase("a", Parse(R"(
<http://a/1> <http://a/v/name> "minoan palace knossos" .
<http://a/2> <http://a/v/name> "venetian harbor chania" .
)")).ok());
  ASSERT_TRUE(c.AddKnowledgeBase("b", Parse(R"(
<http://b/1> <http://b/v/title> "minoan palace knossos" .
<http://b/2> <http://b/v/title> "venetian harbor chania" .
)")).ok());
  ASSERT_TRUE(c.Finalize().ok());
  AttributeClusteringBlocking blocking;
  const std::vector<uint32_t> clusters = blocking.ClusterPredicates(c);
  const uint32_t name_id = c.predicates().Find("http://a/v/name");
  const uint32_t title_id = c.predicates().Find("http://b/v/title");
  ASSERT_NE(name_id, kInternNotFound);
  ASSERT_NE(title_id, kInternNotFound);
  EXPECT_EQ(clusters[name_id], clusters[title_id]);
  EXPECT_NE(clusters[name_id], 0u) << "linked predicates leave glue cluster";
}

TEST(AttrClusteringTest, DisjointVocabulariesStaySeparate) {
  EntityCollection c;
  ASSERT_TRUE(c.AddKnowledgeBase("a", Parse(R"(
<http://a/1> <http://a/v/name> "alpha beta gamma" .
<http://a/2> <http://a/v/color> "red green blue" .
)")).ok());
  ASSERT_TRUE(c.Finalize().ok());
  AttributeClusteringBlocking blocking;
  const std::vector<uint32_t> clusters = blocking.ClusterPredicates(c);
  const uint32_t name_id = c.predicates().Find("http://a/v/name");
  const uint32_t color_id = c.predicates().Find("http://a/v/color");
  // Both unlinked -> glue cluster 0 for both.
  EXPECT_EQ(clusters[name_id], 0u);
  EXPECT_EQ(clusters[color_id], 0u);
}

TEST(AttrClusteringTest, BlocksKeyedByClusterAndToken) {
  EntityCollection c;
  ASSERT_TRUE(c.AddKnowledgeBase("a", Parse(R"(
<http://a/1> <http://a/v/name> "shared token" .
<http://a/2> <http://a/v/name> "shared token" .
)")).ok());
  ASSERT_TRUE(c.Finalize().ok());
  AttributeClusteringBlocking blocking;
  BlockCollection blocks = blocking.Build(c);
  ASSERT_GT(blocks.num_blocks(), 0u);
  for (uint32_t bi = 0; bi < blocks.num_blocks(); ++bi) {
    EXPECT_EQ(blocks.KeyString(bi).substr(0, 1), "c");
  }
}

// ---------------------------------------------------------------------------
// Composite blocking
// ---------------------------------------------------------------------------

TEST(CompositeBlockingTest, UnionOfMethods) {
  // IRIs share suffixes across KBs so PIS produces non-singleton blocks.
  EntityCollection c;
  ASSERT_TRUE(c.AddKnowledgeBase("a", Parse(R"(
<http://a/r/heraklion> <http://a/v/name> "heraklion port" .
<http://a/r/athens> <http://a/v/name> "athens capital" .
)")).ok());
  ASSERT_TRUE(c.AddKnowledgeBase("b", Parse(R"(
<http://b/x/heraklion> <http://b/p/label> "heraklion crete" .
<http://b/x/athens> <http://b/p/label> "athens greece" .
)")).ok());
  ASSERT_TRUE(c.Finalize().ok());
  std::vector<std::unique_ptr<BlockingMethod>> methods;
  methods.push_back(std::make_unique<TokenBlocking>());
  methods.push_back(std::make_unique<PisBlocking>());
  CompositeBlocking composite(std::move(methods));
  BlockCollection combined = composite.Build(c);
  BlockCollection token_only = TokenBlocking().Build(c);
  EXPECT_GE(combined.num_blocks(), token_only.num_blocks());
  // Keys carry the method prefix.
  bool token_prefixed = false, pis_prefixed = false;
  for (uint32_t bi = 0; bi < combined.num_blocks(); ++bi) {
    const auto key = combined.KeyString(bi);
    if (key.substr(0, 6) == "token:") token_prefixed = true;
    if (key.substr(0, 4) == "pis:") pis_prefixed = true;
  }
  EXPECT_TRUE(token_prefixed);
  EXPECT_TRUE(pis_prefixed);
}

// ---------------------------------------------------------------------------
// Cleaning: purging & filtering
// ---------------------------------------------------------------------------

BlockCollection OversizedBlocks() {
  BlockCollection blocks;
  blocks.AddBlock("small1", {0, 3});
  blocks.AddBlock("small2", {1, 3});
  blocks.AddBlock("huge", {0, 1, 2, 3, 4});
  return blocks;
}

TEST(PurgingTest, PurgeBySizeDropsLargeBlocks) {
  EntityCollection c = TinyCollection();
  BlockCollection blocks = OversizedBlocks();
  const CleaningStats stats =
      PurgeBySize(blocks, 3, c, ResolutionMode::kDirty);
  EXPECT_EQ(stats.blocks_before, 3u);
  EXPECT_EQ(stats.blocks_after, 2u);
  EXPECT_LT(stats.comparisons_after, stats.comparisons_before);
  for (uint32_t bi = 0; bi < blocks.num_blocks(); ++bi) {
    EXPECT_LE(blocks.block_size(bi), 3u);
  }
}

TEST(PurgingTest, AutoPurgeNeverIncreasesComparisons) {
  datagen::LodCloudConfig cfg;
  cfg.seed = 37;
  cfg.num_real_entities = 300;
  cfg.num_kbs = 4;
  auto cloud = datagen::GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto c = cloud->BuildCollection();
  ASSERT_TRUE(c.ok());
  BlockCollection blocks = TokenBlocking().Build(*c);
  const CleaningStats stats =
      AutoPurge(blocks, *c, ResolutionMode::kCleanClean);
  EXPECT_LE(stats.comparisons_after, stats.comparisons_before);
  EXPECT_LE(stats.blocks_after, stats.blocks_before);
  EXPECT_GT(stats.blocks_after, 0u);
}

TEST(FilteringTest, RatioOneKeepsEverything) {
  EntityCollection c = TinyCollection();
  BlockCollection blocks = OversizedBlocks();
  const CleaningStats stats =
      FilterBlocks(blocks, 1.0, c, ResolutionMode::kDirty);
  EXPECT_EQ(stats.blocks_after, stats.blocks_before);
  EXPECT_EQ(stats.comparisons_after, stats.comparisons_before);
}

TEST(FilteringTest, KeepsSmallestBlocksPerEntity) {
  EntityCollection c = TinyCollection();
  BlockCollection blocks = OversizedBlocks();
  // Entity 3 sits in all three blocks; ratio 0.5 keeps ceil(1.5) = 2 of its
  // smallest, so the "huge" block must lose it.
  FilterBlocks(blocks, 0.5, c, ResolutionMode::kDirty);
  for (uint32_t bi = 0; bi < blocks.num_blocks(); ++bi) {
    if (blocks.KeyString(bi) == "huge") {
      EXPECT_FALSE(std::ranges::binary_search(blocks.entities(bi), EntityId{3}))
          << "entity 3's largest block must lose it";
    }
  }
}

TEST(FilteringTest, ReducesComparisonsOnRealisticBlocks) {
  datagen::LodCloudConfig cfg;
  cfg.seed = 41;
  cfg.num_real_entities = 300;
  cfg.num_kbs = 4;
  auto cloud = datagen::GenerateLodCloud(cfg);
  ASSERT_TRUE(cloud.ok());
  auto c = cloud->BuildCollection();
  ASSERT_TRUE(c.ok());
  BlockCollection blocks = TokenBlocking().Build(*c);
  const CleaningStats stats =
      FilterBlocks(blocks, 0.5, c.value(), ResolutionMode::kCleanClean);
  EXPECT_LT(stats.comparisons_after, stats.comparisons_before);
}

}  // namespace
}  // namespace minoan
