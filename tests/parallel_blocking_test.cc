// Parity suite for the parallel pipeline front: sharded blocking-index
// construction, parallel BlockingGraphView construction, and the fan-out of
// one workflow --threads flag through blocking → graph → candidate scoring
// → matching. Every path must be BYTE-identical to the sequential one at
// every thread count (1/2/4/7), on a generated LOD corpus large enough to
// span several fixed-size work chunks.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "blocking/block_cleaning.h"
#include "blocking/blocking_method.h"
#include "blocking/char_blocking.h"
#include "blocking/sharded_blocking.h"
#include "core/session.h"
#include "datagen/lod_generator.h"
#include "gtest/gtest.h"
#include "metablocking/blocking_graph.h"
#include "metablocking/meta_blocking.h"
#include "metablocking/sharded_prune.h"
#include "online/online_resolver.h"
#include "util/thread_pool.h"

namespace minoan {
namespace {

/// True when two block collections hold the same entity membership: same
/// block count and the same entity list per block, in order — i.e. the same
/// CSR offsets and entity array. Keys are not compared.
::testing::AssertionResult SameMembership(const BlockCollection& a,
                                          const BlockCollection& b) {
  if (a.num_blocks() != b.num_blocks()) {
    return ::testing::AssertionFailure()
           << "block count mismatch: " << a.num_blocks() << " vs "
           << b.num_blocks();
  }
  for (uint32_t i = 0; i < a.num_blocks(); ++i) {
    if (!std::ranges::equal(a.entities(i), b.entities(i))) {
      return ::testing::AssertionFailure()
             << "block " << i << " entity list mismatch";
    }
  }
  return ::testing::AssertionSuccess();
}

/// True when two keyed block collections are identical: same blocks, same
/// keys, same entity lists, same order.
::testing::AssertionResult SameBlocks(const BlockCollection& a,
                                      const BlockCollection& b) {
  if (::testing::AssertionResult same = SameMembership(a, b); !same) {
    return same;
  }
  for (uint32_t i = 0; i < a.num_blocks(); ++i) {
    if (a.KeyString(i) != b.KeyString(i)) {
      return ::testing::AssertionFailure()
             << "block " << i << " key mismatch: \"" << a.KeyString(i)
             << "\" vs \"" << b.KeyString(i) << "\"";
    }
  }
  return ::testing::AssertionSuccess();
}

/// True when every block of `cleaned` still carries the key of the `raw`
/// block it was cleaned from. Keys name blocks uniquely, and cleaning only
/// drops blocks or entities, so the raw block under a cleaned block's key
/// must contain all of the cleaned block's entities.
::testing::AssertionResult KeysFollowBlocks(const BlockCollection& raw,
                                            const BlockCollection& cleaned) {
  std::unordered_map<std::string_view, uint32_t> raw_block;
  for (uint32_t i = 0; i < raw.num_blocks(); ++i) {
    if (!raw_block.emplace(raw.KeyString(i), i).second) {
      return ::testing::AssertionFailure()
             << "duplicate key \"" << raw.KeyString(i) << "\"";
    }
  }
  for (uint32_t i = 0; i < cleaned.num_blocks(); ++i) {
    const std::string_view key = cleaned.KeyString(i);
    const auto it = raw_block.find(key);
    if (it == raw_block.end()) {
      return ::testing::AssertionFailure()
             << "cleaned block " << i << " has unknown key \"" << key << "\"";
    }
    if (!std::ranges::includes(raw.entities(it->second),
                               cleaned.entities(i))) {
      return ::testing::AssertionFailure()
             << "cleaned block " << i << " (\"" << key
             << "\") is not a subset of the raw block with that key";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameMatches(const std::vector<MatchEvent>& a,
                                       const std::vector<MatchEvent>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "match count mismatch: " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].a != b[i].a || a[i].b != b[i].b ||
        a[i].comparisons_done != b[i].comparisons_done ||
        std::memcmp(&a[i].similarity, &b[i].similarity, sizeof(double)) !=
            0) {
      return ::testing::AssertionFailure()
             << "match " << i << " differs: (" << a[i].a << "," << a[i].b
             << "@" << a[i].comparisons_done << ") vs (" << b[i].a << ","
             << b[i].b << "@" << b[i].comparisons_done << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

class ParallelBlockingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::LodCloudConfig cfg;
    cfg.seed = 20260401;
    cfg.num_real_entities = 700;
    cfg.num_kbs = 5;
    cfg.center_kbs = 2;
    auto cloud = datagen::GenerateLodCloud(cfg);
    ASSERT_TRUE(cloud.ok());
    auto collection = cloud->BuildCollection();
    ASSERT_TRUE(collection.ok());
    collection_ = new EntityCollection(std::move(collection).value());
    // The parity claim is only meaningful when the corpus spans several
    // fixed-size entity chunks.
    ASSERT_GT(collection_->num_entities(), 3 * kBlockingChunkEntities);
  }
  static void TearDownTestSuite() {
    delete collection_;
    collection_ = nullptr;
  }

  static EntityCollection* collection_;
};

EntityCollection* ParallelBlockingTest::collection_ = nullptr;

// ---------------------------------------------------------------------------
// Blocking-method parity: sequential vs pool at every thread count
// ---------------------------------------------------------------------------

TEST_F(ParallelBlockingTest, EveryMethodIsByteIdenticalAcrossThreadCounts) {
  std::vector<std::unique_ptr<BlockingMethod>> methods;
  methods.push_back(std::make_unique<TokenBlocking>());
  methods.push_back(std::make_unique<PisBlocking>());
  methods.push_back(std::make_unique<AttributeClusteringBlocking>());
  methods.push_back(std::make_unique<QGramBlocking>());
  methods.push_back(std::make_unique<SortedNeighborhoodBlocking>());
  {
    std::vector<std::unique_ptr<BlockingMethod>> parts;
    parts.push_back(std::make_unique<TokenBlocking>());
    parts.push_back(std::make_unique<PisBlocking>());
    methods.push_back(std::make_unique<CompositeBlocking>(std::move(parts)));
  }
  for (const auto& method : methods) {
    const BlockCollection sequential = method->Build(*collection_);
    EXPECT_GT(sequential.num_blocks(), 0u) << method->name();

    // The keyless store the session pipeline builds holds the same CSR.
    BlockCollection keyless;
    BlockCollectionSink keyless_sink(keyless, /*keyed=*/false);
    method->BuildInto(*collection_, nullptr, keyless_sink);
    EXPECT_TRUE(SameMembership(sequential, keyless)) << method->name();

    // Keys follow their blocks through AutoPurge's in-place filter and
    // FilterBlocks' rebuild, and the key side array never changes what
    // cleaning keeps.
    BlockCollection cleaned = sequential;
    for (BlockCollection* store : {&cleaned, &keyless}) {
      AutoPurge(*store, *collection_, ResolutionMode::kCleanClean);
      FilterBlocks(*store, 0.8, *collection_, ResolutionMode::kCleanClean);
    }
    EXPECT_GT(cleaned.num_blocks(), 0u) << method->name();
    EXPECT_TRUE(KeysFollowBlocks(sequential, cleaned)) << method->name();
    EXPECT_TRUE(SameMembership(cleaned, keyless)) << method->name();

    for (uint32_t threads : {2u, 4u, 7u}) {
      ThreadPool pool(threads);
      const BlockCollection parallel = method->Build(*collection_, &pool);
      EXPECT_TRUE(SameBlocks(sequential, parallel))
          << method->name() << " at " << threads << " threads";
    }
  }
}

TEST_F(ParallelBlockingTest, AttributeProfilingIsThreadCountInvariant) {
  // The per-attribute segment fold must reproduce the sequential
  // first-scan cap prefix exactly: identical clusters, identical blocks.
  AttributeClusteringBlocking::Options opts;
  opts.max_profile_tokens = 64;  // small cap so inclusion boundaries bite
  const AttributeClusteringBlocking method(opts);
  const std::vector<uint32_t> sequential =
      method.ClusterPredicates(*collection_);
  const BlockCollection seq_blocks = method.Build(*collection_);
  for (uint32_t threads : {2u, 4u, 7u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(sequential, method.ClusterPredicates(*collection_, &pool))
        << threads << " threads";
    EXPECT_TRUE(SameBlocks(seq_blocks, method.Build(*collection_, &pool)))
        << threads << " threads";
  }
}

TEST_F(ParallelBlockingTest, BlockCleaningIsThreadCountInvariant) {
  const BlockCollection raw = TokenBlocking().Build(*collection_);
  ASSERT_GT(raw.num_blocks(), 0u);

  BlockCollection seq_purged = raw;
  const CleaningStats seq_purge_stats = AutoPurge(
      seq_purged, *collection_, ResolutionMode::kCleanClean);
  BlockCollection seq_filtered = seq_purged;
  const CleaningStats seq_filter_stats = FilterBlocks(
      seq_filtered, 0.8, *collection_, ResolutionMode::kCleanClean);
  ASSERT_GT(seq_filtered.num_blocks(), 0u);

  for (uint32_t threads : {1u, 2u, 4u, 7u}) {
    ThreadPool pool(threads);
    BlockCollection purged = raw;
    const CleaningStats purge_stats =
        AutoPurge(purged, *collection_, ResolutionMode::kCleanClean,
                  /*smoothing=*/1.025, &pool);
    EXPECT_TRUE(SameBlocks(seq_purged, purged)) << threads << " threads";
    EXPECT_EQ(seq_purge_stats.blocks_after, purge_stats.blocks_after);
    EXPECT_EQ(seq_purge_stats.comparisons_after,
              purge_stats.comparisons_after);

    BlockCollection filtered = purged;
    const CleaningStats filter_stats =
        FilterBlocks(filtered, 0.8, *collection_, ResolutionMode::kCleanClean,
                     &pool);
    EXPECT_TRUE(SameBlocks(seq_filtered, filtered)) << threads << " threads";
    EXPECT_EQ(seq_filter_stats.blocks_after, filter_stats.blocks_after);
    EXPECT_EQ(seq_filter_stats.comparisons_after,
              filter_stats.comparisons_after);
  }
}

TEST_F(ParallelBlockingTest, PoolReuseAcrossBuildsIsSafe) {
  // One pool serving several consecutive builds (the session pattern).
  ThreadPool pool(4);
  const BlockCollection first = TokenBlocking().Build(*collection_, &pool);
  const BlockCollection second = TokenBlocking().Build(*collection_, &pool);
  const BlockCollection pis = PisBlocking().Build(*collection_, &pool);
  EXPECT_TRUE(SameBlocks(first, second));
  EXPECT_GT(pis.num_blocks(), 0u);
}

// ---------------------------------------------------------------------------
// Graph-view construction parity
// ---------------------------------------------------------------------------

TEST_F(ParallelBlockingTest, GraphViewConstructionMatchesSequential) {
  BlockCollection blocks = TokenBlocking().Build(*collection_);
  blocks.BuildEntityIndex(collection_->num_entities());
  for (const WeightingScheme scheme :
       {WeightingScheme::kArcs, WeightingScheme::kEjs,
        WeightingScheme::kEcbs}) {
    const BlockingGraphView sequential(blocks, *collection_, scheme,
                                       ResolutionMode::kCleanClean);
    for (uint32_t threads : {2u, 4u, 7u}) {
      ThreadPool pool(threads);
      const BlockingGraphView parallel(blocks, *collection_, scheme,
                                       ResolutionMode::kCleanClean, &pool);
      EXPECT_EQ(sequential.num_nodes(), parallel.num_nodes());
      EXPECT_EQ(sequential.num_blocks(), parallel.num_blocks());
      EXPECT_EQ(sequential.total_block_assignments(),
                parallel.total_block_assignments());
      // Every edge weight — ARCS terms, EJS degrees and all — must carry
      // the exact same bits.
      NeighborScratch scratch(collection_->num_entities());
      const EntityId sample =
          std::min<EntityId>(3 * kBlockingChunkEntities + 16,
                             collection_->num_entities());
      for (EntityId e = 0; e < sample; ++e) {
        sequential.ForNeighbors(
            scratch, e, /*only_greater=*/true,
            [&](EntityId nb, uint32_t common, double arcs) {
              const double seq_w = sequential.EdgeWeight(e, nb, common, arcs);
              const double par_w = parallel.PairWeight(e, nb);
              EXPECT_EQ(seq_w, par_w)
                  << WeightingSchemeName(scheme) << " edge (" << e << ","
                  << nb << ") at " << threads << " threads";
            });
      }
    }
  }
}

TEST_F(ParallelBlockingTest, PruneOverParallelViewIsByteIdentical) {
  // End-to-end through the pruning core: a view constructed on a pool must
  // feed ShardedPrune the exact same terms as a sequential view.
  BlockCollection blocks = TokenBlocking().Build(*collection_);
  blocks.BuildEntityIndex(collection_->num_entities());
  MetaBlockingOptions opts;
  opts.weighting = WeightingScheme::kArcs;  // weights ARE the arcs terms
  opts.pruning = PruningScheme::kWnp;
  const BlockingGraphView seq_view(blocks, *collection_, opts.weighting,
                                   opts.mode);
  const auto sequential = ShardedPrune(seq_view, opts, nullptr);
  ASSERT_GT(sequential.size(), 0u);
  for (uint32_t threads : {2u, 7u}) {
    ThreadPool pool(threads);
    const BlockingGraphView par_view(blocks, *collection_, opts.weighting,
                                     opts.mode, &pool);
    const auto parallel = ShardedPrune(par_view, opts, &pool);
    ASSERT_EQ(sequential.size(), parallel.size()) << threads << " threads";
    EXPECT_EQ(std::memcmp(sequential.data(), parallel.data(),
                          sequential.size() * sizeof(WeightedComparison)),
              0)
        << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Whole-workflow fan-out: one --threads flag, identical matches
// ---------------------------------------------------------------------------

TEST_F(ParallelBlockingTest, SessionMatchSequenceIsThreadCountInvariant) {
  const auto run = [&](uint32_t threads) {
    WorkflowOptions options;
    options.num_threads = threads;
    options.progressive.matcher.threshold = 0.3;
    auto session = ResolutionSession::Open(*collection_, options);
    EXPECT_TRUE(session.ok());
    session->Step(0);
    return session->Report();
  };
  const ResolutionReport reference = run(1);
  EXPECT_GT(reference.progressive.run.matches.size(), 0u);
  for (uint32_t threads : {2u, 4u, 7u}) {
    const ResolutionReport report = run(threads);
    EXPECT_EQ(reference.blocks_built, report.blocks_built);
    EXPECT_EQ(reference.blocks_after_cleaning, report.blocks_after_cleaning);
    EXPECT_EQ(reference.comparisons_before_meta,
              report.comparisons_before_meta);
    EXPECT_EQ(reference.comparisons_after_meta,
              report.comparisons_after_meta);
    EXPECT_EQ(reference.progressive.run.comparisons_executed,
              report.progressive.run.comparisons_executed);
    EXPECT_TRUE(SameMatches(reference.progressive.run.matches,
                            report.progressive.run.matches))
        << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Online warm-start scoring parity
// ---------------------------------------------------------------------------

TEST_F(ParallelBlockingTest, OnlineWarmStartIsThreadCountInvariant) {
  datagen::LodCloudConfig cfg;
  cfg.seed = 20260402;
  cfg.num_real_entities = 400;
  cfg.num_kbs = 4;
  cfg.center_kbs = 2;
  const auto matches_at = [&](uint32_t threads) {
    auto cloud = datagen::GenerateLodCloud(cfg);
    EXPECT_TRUE(cloud.ok());
    auto collection = cloud->BuildCollection();
    EXPECT_TRUE(collection.ok());
    online::OnlineOptions options;
    options.matcher.threshold = 0.3;
    ThreadPool pool(threads);
    online::OnlineResolver resolver(options, std::move(collection).value(),
                                    &pool);
    resolver.ResolveBudget(1'000'000'000);
    return resolver.run().matches;
  };
  const std::vector<MatchEvent> reference = matches_at(1);
  EXPECT_GT(reference.size(), 0u);
  for (uint32_t threads : {2u, 4u, 7u}) {
    EXPECT_TRUE(SameMatches(reference, matches_at(threads)))
        << threads << " threads";
  }
}

}  // namespace
}  // namespace minoan
