// Copyright 2026 The MinoanER Authors.
// Blocking- and matching-quality metrics.

#ifndef MINOAN_EVAL_METRICS_H_
#define MINOAN_EVAL_METRICS_H_

#include <cstdint>
#include <vector>

#include "blocking/block.h"
#include "eval/ground_truth.h"
#include "kb/collection.h"
#include "matching/matcher.h"
#include "metablocking/meta_blocking_types.h"

namespace minoan {

/// Standard blocking quality triple.
struct BlockingMetrics {
  uint64_t comparisons = 0;      // distinct candidate pairs
  uint64_t matching_pairs = 0;   // candidates that are true matches
  uint64_t truth_pairs = 0;      // |ground truth|
  double pair_completeness = 0;  // PC: recall of the candidate set
  double pair_quality = 0;       // PQ: precision of the candidate set
  double reduction_ratio = 0;    // RR: 1 - comparisons / brute-force
};

/// Evaluates a candidate comparison set against the truth. `brute_force` is
/// the comparison count of the exhaustive baseline (for RR): all cross-KB
/// pairs for clean-clean, C(n,2) for dirty.
BlockingMetrics EvaluateCandidates(const std::vector<Comparison>& candidates,
                                   const GroundTruth& truth,
                                   uint64_t brute_force);

/// Evaluates the distinct comparisons of `blocks` (each co-occurring pair
/// once) in O(entities) memory. Builds the blocks' entity index if missing,
/// the only mutation.
BlockingMetrics EvaluateBlocks(BlockCollection& blocks,
                               const EntityCollection& collection,
                               ResolutionMode mode, const GroundTruth& truth);

/// Convenience overload.
BlockingMetrics EvaluateWeighted(
    const std::vector<WeightedComparison>& candidates,
    const GroundTruth& truth, uint64_t brute_force);

/// Number of brute-force comparisons under `mode`.
uint64_t BruteForceComparisons(const EntityCollection& collection,
                               ResolutionMode mode);

/// Pair-level precision / recall / F1 of a match set.
struct MatchingMetrics {
  uint64_t emitted = 0;
  uint64_t correct = 0;
  double precision = 0;
  double recall = 0;
  double f1 = 0;
};

MatchingMetrics EvaluateMatches(const std::vector<MatchEvent>& matches,
                                const GroundTruth& truth);

}  // namespace minoan

#endif  // MINOAN_EVAL_METRICS_H_
