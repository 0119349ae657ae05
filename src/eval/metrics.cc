#include "eval/metrics.h"

#include <unordered_set>

#include "metablocking/blocking_graph.h"
#include "util/hash.h"

namespace minoan {

namespace {

/// Fills PC, PQ and RR from the counts already in `m`.
BlockingMetrics WithRatios(BlockingMetrics m, uint64_t brute_force) {
  m.pair_completeness =
      m.truth_pairs == 0 ? 0.0
                         : static_cast<double>(m.matching_pairs) /
                               static_cast<double>(m.truth_pairs);
  m.pair_quality = m.comparisons == 0
                       ? 0.0
                       : static_cast<double>(m.matching_pairs) /
                             static_cast<double>(m.comparisons);
  m.reduction_ratio =
      brute_force == 0 ? 0.0
                       : 1.0 - static_cast<double>(m.comparisons) /
                                   static_cast<double>(brute_force);
  return m;
}

}  // namespace

BlockingMetrics EvaluateCandidates(const std::vector<Comparison>& candidates,
                                   const GroundTruth& truth,
                                   uint64_t brute_force) {
  BlockingMetrics m;
  m.comparisons = candidates.size();
  m.truth_pairs = truth.num_pairs();
  std::unordered_set<uint64_t> found;
  for (const Comparison& c : candidates) {
    if (truth.Matches(c.a, c.b)) {
      found.insert(PairKey(c.a, c.b));
    }
  }
  m.matching_pairs = found.size();
  return WithRatios(m, brute_force);
}

BlockingMetrics EvaluateBlocks(BlockCollection& blocks,
                               const EntityCollection& collection,
                               ResolutionMode mode, const GroundTruth& truth) {
  // The distinct comparisons are the blocking graph's edges. Walking each
  // edge once from its smaller endpoint keeps memory at O(entities), however
  // many pairs the blocks induce.
  const BlockingGraphView view(blocks, collection, WeightingScheme::kCbs,
                               mode);
  NeighborScratch scratch(collection.num_entities());
  BlockingMetrics m;
  m.truth_pairs = truth.num_pairs();
  for (EntityId e = 0; e < collection.num_entities(); ++e) {
    view.ForNeighbors(scratch, e, /*only_greater=*/true,
                      [&](EntityId n, uint32_t, double) {
                        ++m.comparisons;
                        if (truth.Matches(e, n)) ++m.matching_pairs;
                      });
  }
  return WithRatios(m, BruteForceComparisons(collection, mode));
}

BlockingMetrics EvaluateWeighted(
    const std::vector<WeightedComparison>& candidates,
    const GroundTruth& truth, uint64_t brute_force) {
  std::vector<Comparison> plain;
  plain.reserve(candidates.size());
  for (const WeightedComparison& c : candidates) plain.emplace_back(c.a, c.b);
  return EvaluateCandidates(plain, truth, brute_force);
}

uint64_t BruteForceComparisons(const EntityCollection& collection,
                               ResolutionMode mode) {
  const uint64_t n = collection.num_entities();
  if (mode == ResolutionMode::kDirty) return n * (n - 1) / 2;
  uint64_t same_kb = 0;
  for (uint32_t k = 0; k < collection.num_kbs(); ++k) {
    const uint64_t nk = collection.kb(k).num_entities();
    same_kb += nk * (nk - 1) / 2;
  }
  return n * (n - 1) / 2 - same_kb;
}

MatchingMetrics EvaluateMatches(const std::vector<MatchEvent>& matches,
                                const GroundTruth& truth) {
  MatchingMetrics m;
  std::unordered_set<uint64_t> emitted, correct;
  for (const MatchEvent& e : matches) {
    if (!emitted.insert(PairKey(e.a, e.b)).second) continue;
    if (truth.Matches(e.a, e.b)) correct.insert(PairKey(e.a, e.b));
  }
  m.emitted = emitted.size();
  m.correct = correct.size();
  m.precision = m.emitted == 0 ? 0.0
                               : static_cast<double>(m.correct) /
                                     static_cast<double>(m.emitted);
  m.recall = truth.num_pairs() == 0
                 ? 0.0
                 : static_cast<double>(m.correct) /
                       static_cast<double>(truth.num_pairs());
  m.f1 = (m.precision + m.recall) == 0.0
             ? 0.0
             : 2.0 * m.precision * m.recall / (m.precision + m.recall);
  return m;
}

}  // namespace minoan
