// Copyright 2026 The MinoanER Authors.
// IncrementalBlockIndex: blocking under insertions, emitting delta pairs.
//
// Batch blocking rebuilds every block from scratch; online resolution cannot
// afford that per entity. This index maintains the token and PIS (IRI
// suffix) inverted postings under appends and, for each new entity, emits
// exactly the *new* candidate comparisons it creates — each unordered pair
// at most once over the index lifetime.
//
// Parity with batch blocking: each posting keeps a watermark — the prefix of
// members among which every pair has been emitted. Whenever an insertion
// finds the posting "live" (within [min block size, size cap]), the
// watermark catches up to the current size, emitting all missing pairs; so
// pairs skipped while a posting was outside its validity window (too small,
// or temporarily over a cap that later grows with the collection) are
// recovered at the next live insertion, never lost. With size caps disabled
// the union of all emitted deltas equals the distinct comparisons (the
// blocking-graph edges) of a batch rebuild over the final collection
// (tested in online_test.cc). With caps enabled the cap is
// evaluated against the *current* collection size, which remains an
// approximation in two directions: pairs emitted before a posting outgrew
// the cap cannot be retracted, and a posting that receives no further
// insertions after its cap lifts keeps its watermark short.

#ifndef MINOAN_ONLINE_INCREMENTAL_BLOCK_INDEX_H_
#define MINOAN_ONLINE_INCREMENTAL_BLOCK_INDEX_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "blocking/block.h"
#include "blocking/blocking_method.h"
#include "kb/collection.h"

namespace minoan {
namespace online {

/// Which keys the incremental index maintains. Mirrors the batch
/// BlockerChoice kToken / kTokenPlusPis configurations.
struct OnlineBlockingOptions {
  bool use_token_keys = true;
  TokenBlocking::Options token;
  bool use_pis_keys = false;
  PisBlocking::Options pis;
  ResolutionMode mode = ResolutionMode::kCleanClean;
};

/// One candidate comparison created by an ingest, with the number of keys
/// that co-bucketed the pair during this delta and a Jaccard-style weight
/// over the two entities' current key sets.
struct DeltaPair {
  EntityId a;
  EntityId b;
  uint32_t common_keys;
  double weight;
};

class IncrementalBlockIndex {
 public:
  explicit IncrementalBlockIndex(OnlineBlockingOptions options = {});

  /// Indexes entity `id` (which must already be in `collection`) and appends
  /// the candidate pairs its arrival creates to `out`. Pairs are emitted in
  /// a deterministic order and globally deduplicated: a pair returned here
  /// was never returned by an earlier call.
  void AddEntity(const EntityCollection& collection, EntityId id,
                 std::vector<DeltaPair>& out);

  uint64_t num_pairs_emitted() const { return pairs_emitted_; }
  uint64_t num_token_postings() const { return live_token_postings_; }
  uint64_t num_pis_postings() const { return pis_postings_.size(); }

  /// Number of blocking keys entity `e` currently participates in.
  uint32_t KeysOf(EntityId e) const {
    return e < entity_keys_.size() ? entity_keys_[e] : 0;
  }

  const OnlineBlockingOptions& options() const { return options_; }

  /// Serializes the full index state (postings, watermarks, the emitted-pair
  /// set, per-entity key counts) in a canonical order (util/serde.h format).
  void Save(std::ostream& out) const;

  /// Restores a Save stream, replacing this index's state. Every entity id
  /// must be < `num_entities`; returns false on a truncated, corrupt, or
  /// out-of-range stream (leaving the index unusable — discard it).
  bool Load(std::istream& in, uint32_t num_entities);

 private:
  struct Posting {
    std::vector<EntityId> members;
    /// Watermark: all pairs among members[0, emitted_prefix) have been
    /// collected (and globally deduplicated) already.
    uint32_t emitted_prefix = 0;
  };

  /// Inserts `id` into one posting and, when the posting is live under
  /// [min_size, max_size] (max 0 = uncapped), advances the watermark,
  /// collecting the missing co-occurrences into pair_counts_.
  void InsertIntoPosting(Posting& posting, EntityId id, uint32_t min_size,
                         uint64_t max_size);
  void CountPair(EntityId a, EntityId b);

  OnlineBlockingOptions options_;
  const EntityCollection* collection_ = nullptr;  // valid during AddEntity

  std::vector<Posting> token_postings_;  // by token id
  std::unordered_map<std::string, Posting> pis_postings_;
  std::vector<uint32_t> entity_keys_;  // postings per entity
  std::unordered_set<uint64_t> emitted_;
  uint64_t pairs_emitted_ = 0;
  uint64_t live_token_postings_ = 0;

  // Per-AddEntity scratch: pair key -> co-bucketing key count, plus the
  // first-seen order for deterministic emission.
  std::unordered_map<uint64_t, uint32_t> pair_counts_;
  std::vector<uint64_t> pair_order_;
  std::vector<std::string> pis_key_scratch_;
  std::vector<std::string> pis_token_scratch_;
};

}  // namespace online
}  // namespace minoan

#endif  // MINOAN_ONLINE_INCREMENTAL_BLOCK_INDEX_H_
