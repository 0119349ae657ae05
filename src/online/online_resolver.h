// Copyright 2026 The MinoanER Authors.
// OnlineResolver: the long-running, updatable progressive resolution engine.
//
// The batch pipeline runs schedule → match → update until a budget is spent,
// then throws its state away. The online engine keeps that state alive and
// exposes three operations a service can interleave freely:
//
//   Ingest(kb, triples)   — absorb one new entity description: assign a
//                           dense id, index it, and push only the *delta*
//                           candidate comparisons it creates (plus, when
//                           enabled, its trusted owl:sameAs links as
//                           zero-cost warm seeds).
//   ResolveBudget(n)      — spend up to n comparisons now, highest priority
//                           first, exactly like the batch resolver's loop;
//                           fully resumable: two calls of n/2 execute the
//                           same schedule as one call of n.
//   Query(e, k)           — on-demand top-k match candidates for one
//                           entity: its pending comparisons are executed
//                           first (prioritized ahead of the global queue),
//                           then all known candidates are ranked by current
//                           similarity. Idempotent between mutations.
//
// The engine drives the batch resolver's progressive loop
// (progressive/loop.h); likelihoods come from the incremental block index's
// key-set Jaccard instead of a global meta-blocking pass, since a global
// pruning graph is unavailable under insertions.

#ifndef MINOAN_ONLINE_ONLINE_RESOLVER_H_
#define MINOAN_ONLINE_ONLINE_RESOLVER_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "matching/matcher.h"
#include "matching/similarity_evaluator.h"
#include "online/incremental_block_index.h"
#include "online/incremental_collection.h"
#include "progressive/benefit.h"
#include "progressive/evidence_options.h"
#include "progressive/loop.h"
#include "progressive/state.h"
#include "util/status.h"

namespace minoan {
namespace online {

/// Online engine configuration. Defaults mirror the batch Web-of-Data
/// defaults where a counterpart exists.
struct OnlineOptions {
  CollectionOptions collection;
  OnlineBlockingOptions blocking;
  /// Match threshold; the `budget` field is ignored (budgets are per
  /// ResolveBudget call).
  MatcherOptions matcher;
  SimilarityOptions similarity;
  BenefitModel benefit = BenefitModel::kQuantity;
  double benefit_weight = 1.0;
  /// Evidence-propagation knobs, shared with ProgressiveOptions.
  EvidenceOptions evidence;
  /// Treat ingested owl:sameAs links as trusted zero-cost matches.
  bool use_same_as_seeds = false;
  /// Size of the pool a warm-starting server lends the warm constructor
  /// (0 = hardware concurrency); results are identical for every value.
  uint32_t num_threads = 1;

  /// Checks the loop knobs (threshold, benefit weight, evidence, TF-IDF
  /// weight) with the same rules as WorkflowOptions::Validate.
  Status Validate() const;
};

/// One ranked candidate returned by Query.
struct QueryCandidate {
  EntityId id;
  /// Profile similarity plus current neighbor-evidence bonus.
  double similarity;
  /// Already resolved into the query entity's cluster.
  bool matched;
};

class OnlineResolver {
 public:
  explicit OnlineResolver(OnlineOptions options = {});

  /// Warm start from a finalized batch collection: every existing entity is
  /// indexed (producing the full batch candidate set) before the engine
  /// accepts new ones. `pool` (optional, caller-owned, only used during
  /// construction) fans out the loop's bulk scoring of those candidates;
  /// the schedule is identical with or without it.
  OnlineResolver(OnlineOptions options, EntityCollection&& warm,
                 ThreadPool* pool = nullptr);

  /// Reopens an engine from a SaveState stream. `options` must be the
  /// options the saving engine ran with (digest verified). For current (v2)
  /// states `warm` is superseded by the collection embedded in the stream;
  /// for legacy v1 states it must be the exact snapshot the saving engine
  /// held (entity/KB/triple counts are verified). Unlike the warm
  /// constructor nothing is re-indexed or re-scored: the incremental index,
  /// the pair tables, the schedule, and the cluster state all come from
  /// the stream, so resolution (and further ingests) continue exactly where
  /// the saved engine stopped — byte-identically.
  static Result<std::unique_ptr<OnlineResolver>> Restore(
      OnlineOptions options, EntityCollection&& warm, std::istream& in);

  /// Self-contained restore: the collection snapshot is read from the
  /// stream itself (SaveState serializes it since MNER-ONLN-v2), so the
  /// caller supplies nothing but the original options. Rejects v1 states —
  /// those carry no collection and need the overload above.
  static Result<std::unique_ptr<OnlineResolver>> Restore(
      OnlineOptions options, std::istream& in);

  /// Pinned: loop_ holds the addresses of coll_'s collection, neighbors_
  /// and this engine, so a compiler-generated move would leave it dangling.
  OnlineResolver(const OnlineResolver&) = delete;
  OnlineResolver& operator=(const OnlineResolver&) = delete;
  OnlineResolver(OnlineResolver&&) = delete;
  OnlineResolver& operator=(OnlineResolver&&) = delete;

  /// Finds or creates a knowledge base by name.
  uint32_t EnsureKb(std::string_view name) { return coll_.EnsureKb(name); }

  /// Ingests one entity (triples sharing a single subject). Returns its id.
  Result<EntityId> Ingest(uint32_t kb_id,
                          const std::vector<rdf::Triple>& triples);

  /// Executes up to `max_comparisons` scheduled comparisons.
  StepResult ResolveBudget(uint64_t max_comparisons);

  /// Executes every pending comparison involving `id` (and any its matches
  /// discover for it), then returns the top-k candidates by similarity
  /// (ties broken by ascending id). Empty for unknown ids or k == 0.
  std::vector<QueryCandidate> Query(EntityId id, uint32_t k);

  /// Serializes the full engine state — the collection snapshot itself
  /// (MNER-ONLN-v2; restores are self-contained), the incremental index
  /// (postings + watermarks + emitted pairs), pair rows, schedule,
  /// neighbor/partner adjacencies, the cluster-merge log, and the run
  /// record — in the fixed little-endian util/serde.h format, for a later
  /// Restore.
  Status SaveState(std::ostream& out) const;

  /// Restores a SaveState stream into this engine, replacing its dynamic
  /// state. The engine's collection must match the saving engine's. On
  /// failure the engine is left half-overwritten and must be discarded —
  /// never resume a live engine from an unverified stream directly; use
  /// the static Restore, which discards the engine when loading fails.
  Status LoadState(std::istream& in);

  // --- Introspection ------------------------------------------------------

  const EntityCollection& collection() const { return coll_.collection(); }
  /// Cumulative run record (comparisons from ResolveBudget AND Query).
  const ResolutionRun& run() const { return loop_.result().run; }
  /// Live scheduled pairs; a scan of the unconsumed schedule, for stats.
  size_t pending_comparisons() const {
    return loop_.scheduler().live_size();
  }
  uint64_t discovered_pairs() const {
    return loop_.result().discovered_pairs;
  }
  uint64_t evidence_assisted_matches() const {
    return loop_.result().evidence_assisted_matches;
  }
  uint64_t candidate_pairs_created() const {
    return index_.num_pairs_emitted();
  }
  ResolutionState& state() { return loop_.state(); }
  const OnlineOptions& options() const { return options_; }

 private:
  /// Restore paths (and the base of the public constructors): adopt `warm`,
  /// or start from an empty store, without indexing, scoring or building a
  /// run — LoadState fills every structure from the stream instead (the
  /// embedded v2 collection included).
  struct RestoreTag {};
  OnlineResolver(OnlineOptions options, EntityCollection&& warm, RestoreTag);
  OnlineResolver(OnlineOptions options, RestoreTag);

  /// The loop over this engine's collection, adjacency and similarity
  /// kernel, with partner registration as its new-pair hook.
  ProgressiveLoop MakeLoop();
  /// Indexes one entity and registers its delta candidates with the loop;
  /// the pairs to schedule go to `to_score` with their likelihoods when
  /// given (warm-start bulk scoring), else are pushed one by one.
  void IndexEntity(
      EntityId id,
      std::vector<ComparisonScheduler::Entry>* to_score = nullptr);
  /// Applies any not-yet-consumed ingested owl:sameAs links as zero-cost
  /// trusted matches (no-op unless use_same_as_seeds).
  void ConsumeSameAsSeeds();
  /// Profile similarity with the current (possibly grown) vocabulary.
  double ProfileSimilarity(EntityId a, EntityId b) const;
  /// Same, with a's TF-IDF vector already built (hoisted out of ranking
  /// loops over one entity's partners).
  double ProfileSimilarityWithA(EntityId a,
                                const std::vector<WeightedToken>& a_tfidf,
                                EntityId b) const;

  OnlineOptions options_;
  IncrementalCollection coll_;
  IncrementalBlockIndex index_;

  /// Incremental undirected adjacency over relation edges (the online
  /// counterpart of NeighborGraph, growable per ingest).
  std::vector<std::vector<EntityId>> neighbors_;
  /// Every entity this entity shares a known candidate pair with, in
  /// first-seen order (drives Query).
  std::vector<std::vector<EntityId>> partners_;

  ProgressiveLoop loop_;
  size_t same_as_consumed_ = 0;

  // Scratch buffers (ingest + similarity), reused across calls.
  std::vector<DeltaPair> delta_scratch_;
  mutable std::vector<WeightedToken> tfidf_a_;
  mutable std::vector<WeightedToken> tfidf_b_;
};

}  // namespace online
}  // namespace minoan

#endif  // MINOAN_ONLINE_ONLINE_RESOLVER_H_
