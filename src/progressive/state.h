// Copyright 2026 The MinoanER Authors.
// Mutable resolution state: clusters, cluster profiles, neighbor bookkeeping.
//
// The progressive resolver updates this state after every confirmed match;
// benefit estimators read it to score candidate comparisons against the
// *current* partial result — the essence of pay-as-you-go ER.

#ifndef MINOAN_PROGRESSIVE_STATE_H_
#define MINOAN_PROGRESSIVE_STATE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "kb/collection.h"
#include "kb/entity.h"
#include "kb/neighbor_graph.h"
#include "matching/union_find.h"

namespace minoan {

/// Tracks the partial resolution result during a progressive run.
class ResolutionState {
 public:
  ResolutionState(const EntityCollection& collection,
                  const NeighborGraph* graph);

  /// Records the match (a, b): merges clusters and cluster profiles.
  /// Returns true when the two were not already in the same cluster.
  bool RecordMatch(EntityId a, EntityId b);

  /// Extends the state to cover entities appended to the collection after
  /// construction (online mode): every id in [previous size, id] becomes a
  /// singleton cluster whose profile is its own attribute values. No-op for
  /// ids already covered.
  void AddEntity(EntityId id);

  /// Online alternative to the frozen NeighborGraph: a growable adjacency
  /// (indexed by entity id) consulted when no graph was given at
  /// construction. The pointee must outlive this state and may grow; order
  /// within each list is irrelevant.
  void SetDynamicNeighbors(
      const std::vector<std::vector<EntityId>>* adjacency) {
    dynamic_neighbors_ = adjacency;
  }

  bool SameCluster(EntityId a, EntityId b) {
    return clusters_.SameSet(a, b);
  }
  uint32_t ClusterSize(EntityId e) { return clusters_.SetSize(e); }

  /// Sorted distinct attribute-value ids of e's cluster.
  const std::vector<uint32_t>& ClusterValues(EntityId e) {
    return values_[clusters_.Find(e)];
  }

  /// Number of values the merged cluster of (a, b) would gain relative to
  /// the larger constituent — the attribute-completeness gain of the match.
  uint32_t ValueGain(EntityId a, EntityId b);

  /// Fraction of neighbor pairs (na ∈ N(a), nb ∈ N(b)) already resolved to
  /// the same cluster; 0 when either side has no neighbors. Neighbor lists
  /// are truncated to `cap` entries per side.
  double MatchedNeighborFraction(EntityId a, EntityId b, uint32_t cap);

  /// Count (not fraction) of already-co-clustered neighbor pairs.
  uint32_t MatchedNeighborPairs(EntityId a, EntityId b, uint32_t cap);

  /// Relation neighbors of e: the frozen NeighborGraph when one was given
  /// (and covers e), else the dynamic adjacency, else none.
  std::span<const EntityId> NeighborsOf(EntityId e) const;

  UnionFind& clusters() { return clusters_; }
  uint64_t matches_recorded() const { return matches_recorded_; }

 private:
  const EntityCollection* collection_;
  const NeighborGraph* graph_;  // may be null (no relationship reasoning)
  const std::vector<std::vector<EntityId>>* dynamic_neighbors_ = nullptr;
  UnionFind clusters_;
  /// Per current root: sorted distinct value ids of the cluster profile.
  std::vector<std::vector<uint32_t>> values_;
  uint64_t matches_recorded_ = 0;
};

}  // namespace minoan

#endif  // MINOAN_PROGRESSIVE_STATE_H_
