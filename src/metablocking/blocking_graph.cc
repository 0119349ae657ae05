#include "metablocking/blocking_graph.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "util/thread_pool.h"

namespace minoan {

namespace {

/// Blocks per ARCS-term work chunk. Fixed (like the sharded-prune chunk
/// size) so the per-chunk partial sums fold identically at every thread
/// count; the folded quantities are integers, so even the fold order is
/// immaterial — the constant just bounds task-scheduling overhead.
constexpr uint32_t kGraphChunkBlocks = 256;

}  // namespace

NeighborScratch& TlsNeighborScratch(uint32_t num_entities) {
  thread_local std::unique_ptr<NeighborScratch> scratch;
  if (!scratch || scratch->size() != num_entities) {
    scratch = std::make_unique<NeighborScratch>(num_entities);
  }
  return *scratch;
}

BlockingGraphView::BlockingGraphView(BlockCollection& blocks,
                                     const EntityCollection& collection,
                                     WeightingScheme weighting,
                                     ResolutionMode mode, ThreadPool* pool)
    : blocks_(&blocks),
      collection_(&collection),
      weighting_(weighting),
      mode_(mode) {
  if (!blocks.has_entity_index()) {
    blocks.BuildEntityIndex(collection.num_entities());
  }
  num_blocks_ = static_cast<double>(blocks.num_blocks());

  // ARCS terms and the assignment total, folded per fixed block chunk.
  // arcs_term_ writes are disjoint per block; the per-chunk assignment
  // counts are integers, so the merged totals are identical to the
  // sequential scan for every thread count.
  arcs_term_.resize(blocks.num_blocks());
  std::vector<uint64_t> chunk_assignments(
      NumChunks(blocks.num_blocks(), kGraphChunkBlocks), 0);
  RunChunkedTasks(pool, blocks.num_blocks(), kGraphChunkBlocks,
                  [&](size_t c, size_t begin, size_t end) {
                    uint64_t assignments = 0;
                    for (size_t bi = begin; bi < end; ++bi) {
                      const uint64_t card = blocks.NumComparisons(
                          static_cast<uint32_t>(bi), collection, mode);
                      arcs_term_[bi] =
                          card > 0 ? 1.0 / static_cast<double>(card) : 0.0;
                      assignments +=
                          blocks.block_size(static_cast<uint32_t>(bi));
                    }
                    chunk_assignments[c] = assignments;
                  });
  for (const uint64_t a : chunk_assignments) total_assignments_ += a;

  // Placed-node count off the freshly built entity index (an entity is a
  // graph node iff it appears in some block) — a chunked integer count
  // instead of the sequential hash-set scan over every block.
  const uint32_t num_entities = collection.num_entities();
  std::vector<uint64_t> chunk_placed(
      NumChunks(num_entities, kGraphChunkBlocks), 0);
  RunChunkedTasks(pool, num_entities, kGraphChunkBlocks,
                  [&](size_t c, size_t begin, size_t end) {
                    uint64_t placed = 0;
                    for (size_t e = begin; e < end; ++e) {
                      if (!blocks.BlocksOf(static_cast<EntityId>(e))
                               .empty()) {
                        ++placed;
                      }
                    }
                    chunk_placed[c] = placed;
                  });
  uint64_t placed_nodes = 0;
  for (const uint64_t p : chunk_placed) placed_nodes += p;
  num_nodes_ = static_cast<double>(placed_nodes);
  if (weighting_ == WeightingScheme::kEjs) {
    const uint32_t n = collection.num_entities();
    degree_.assign(n, 0);
    const auto degree_of = [this, n](EntityId e) {
      uint32_t deg = 0;
      ForNeighbors(TlsNeighborScratch(n), e, /*only_greater=*/false,
                   [&](EntityId, uint32_t, double) { ++deg; });
      return deg;
    };
    if (pool != nullptr && n > 0) {
      // Disjoint per-entity writes; counts are integers, so the result is
      // identical to the sequential pass.
      pool->ParallelFor(n, [this, &degree_of](size_t e) {
        degree_[e] = degree_of(static_cast<EntityId>(e));
      });
    } else {
      for (EntityId e = 0; e < n; ++e) degree_[e] = degree_of(e);
    }
  }
}

double BlockingGraphView::PairWeight(EntityId a, EntityId b) const {
  if (a == b) return 0.0;
  if (mode_ == ResolutionMode::kCleanClean && !collection_->CrossKb(a, b)) {
    return 0.0;
  }
  uint32_t common = 0;
  double arcs = 0.0;
  for (uint32_t bi : blocks_->BlocksOf(a)) {
    for (EntityId n : blocks_->entities(bi)) {
      if (n == b) {
        ++common;
        arcs += arcs_term_[bi];
        break;
      }
    }
  }
  return common == 0 ? 0.0 : EdgeWeight(a, b, common, arcs);
}

double BlockingGraphView::EdgeWeight(EntityId a, EntityId b, uint32_t common,
                                     double arcs_sum) const {
  const double ba = static_cast<double>(NumBlocksOf(a));
  const double bb = static_cast<double>(NumBlocksOf(b));
  switch (weighting_) {
    case WeightingScheme::kCbs:
      return static_cast<double>(common);
    case WeightingScheme::kEcbs: {
      const double la = ba > 0 ? std::log(num_blocks_ / ba) : 0.0;
      const double lb = bb > 0 ? std::log(num_blocks_ / bb) : 0.0;
      return static_cast<double>(common) * la * lb;
    }
    case WeightingScheme::kJs: {
      const double denom = ba + bb - static_cast<double>(common);
      return denom > 0 ? static_cast<double>(common) / denom : 0.0;
    }
    case WeightingScheme::kEjs: {
      const double denom = ba + bb - static_cast<double>(common);
      const double js = denom > 0 ? static_cast<double>(common) / denom : 0.0;
      const double da = static_cast<double>(degree_[a]);
      const double db = static_cast<double>(degree_[b]);
      const double la = da > 0 ? std::log(num_nodes_ / da) : 0.0;
      const double lb = db > 0 ? std::log(num_nodes_ / db) : 0.0;
      return js * la * lb;
    }
    case WeightingScheme::kArcs:
      return arcs_sum;
  }
  return 0.0;
}

}  // namespace minoan
