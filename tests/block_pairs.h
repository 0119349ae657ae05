// Copyright 2026 The MinoanER Authors.
// BlockPairs: shared test helper (blocking, online, property and robustness
// suites) listing the distinct comparisons of a block collection — each
// co-occurring pair once — by walking the blocking graph's edges, the same
// enumerator meta-blocking and EvaluateBlocks use.

#ifndef MINOAN_TESTS_BLOCK_PAIRS_H_
#define MINOAN_TESTS_BLOCK_PAIRS_H_

#include <vector>

#include "blocking/block.h"
#include "kb/collection.h"
#include "metablocking/blocking_graph.h"

namespace minoan {
namespace testutil {

/// Distinct comparisons of `blocks` under `mode`, ordered by the smaller
/// entity. Builds the blocks' entity index if missing.
inline std::vector<Comparison> BlockPairs(BlockCollection& blocks,
                                          const EntityCollection& collection,
                                          ResolutionMode mode) {
  const BlockingGraphView view(blocks, collection, WeightingScheme::kCbs,
                               mode);
  NeighborScratch scratch(collection.num_entities());
  std::vector<Comparison> out;
  for (EntityId e = 0; e < collection.num_entities(); ++e) {
    view.ForNeighbors(scratch, e, /*only_greater=*/true,
                      [&](EntityId n, uint32_t, double) {
                        out.emplace_back(e, n);
                      });
  }
  return out;
}

}  // namespace testutil
}  // namespace minoan

#endif  // MINOAN_TESTS_BLOCK_PAIRS_H_
