// Copyright 2026 The MinoanER Authors.
// The progressive resolver — MinoanER's core contribution (Figure 1).
//
// Implements the iterative workflow the poster describes:
//
//   Scheduling:  candidate comparisons (from blocking + meta-blocking) are
//                prioritized by likelihood × marginal benefit, so "those
//                comparisons are executed before less promising ones and
//                thus, higher benefit is provided early on in the process".
//   Matching:    the top comparison is executed; profile similarity plus any
//                accumulated neighbor evidence decides the match.
//   Update:      "propagates the results of matching, such that a new
//                scheduling phase will promote the comparison of pairs that
//                were influenced by the previous matches" — every neighbor
//                pair of a confirmed match gains similarity evidence, gets
//                (re)prioritized, and pairs blocking never produced are
//                *discovered* as new candidates. This is how "somehow
//                similar" descriptions with few common tokens are resolved.
//   Budget:      "this iterative process continues until the cost budget is
//                consumed" — the budget is a comparison count (similarity
//                evaluations), the standard cost unit of progressive ER.
//
// The resolver is the batch driver of the one progressive loop
// (progressive/loop.h): Begin() normalizes the meta-blocking weights into
// likelihoods and primes the loop's schedule, Step(n) spends up to n more
// comparisons under the matcher.budget stop rule, and the loop state
// persists between calls, so Step(n/2) twice is byte-identical to Step(n).
// The legacy run-to-completion Resolve()/ResolveWithSeeds() are
// thin wrappers, and SaveState/LoadState round-trip the loop state in the
// MNER-PROG-v1 format for checkpointable sessions (core/session.h).

#ifndef MINOAN_PROGRESSIVE_RESOLVER_H_
#define MINOAN_PROGRESSIVE_RESOLVER_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "kb/collection.h"
#include "kb/neighbor_graph.h"
#include "matching/matcher.h"
#include "matching/similarity_evaluator.h"
#include "metablocking/meta_blocking_types.h"
#include "obs/progress.h"
#include "progressive/loop.h"
#include "util/status.h"

namespace minoan {

/// Drives the scheduling / matching / update loop over one collection.
class ProgressiveResolver {
 public:
  /// Streaming sink for confirmed matches (invoked in discovery order,
  /// synchronously from within Step).
  using MatchCallback = ProgressiveLoop::MatchCallback;

  /// `pool` (optional, caller-owned, must outlive the resolver) serves the
  /// batch-parallel setup phase (scoring the initial candidates against the
  /// pristine state); without it that phase runs inline. The iterative
  /// schedule/match/update loop is sequential either way, and results are
  /// identical with or without a pool.
  ProgressiveResolver(const EntityCollection& collection,
                      const NeighborGraph& graph,
                      const SimilarityEvaluator& evaluator,
                      ProgressiveOptions options, ThreadPool* pool = nullptr);

  // --- Stateful pay-as-you-go interface -----------------------------------

  /// Initializes a resolution from the given candidates (meta-blocking
  /// output: weighted comparisons; weights are normalized to [0, 1]
  /// likelihoods) plus optional warm-start seeds (see ResolveWithSeeds).
  /// Resets any previous run.
  void Begin(const std::vector<WeightedComparison>& candidates,
             const std::vector<Comparison>& seeds = {});

  /// Spends up to `max_comparisons` more comparisons (0 = until the overall
  /// options budget or the queue is exhausted). Resumable: Step(n/2) twice
  /// executes the byte-identical schedule as Step(n) once.
  StepResult Step(uint64_t max_comparisons);

  /// True after Begin/LoadState, until the result is taken by Resolve.
  bool begun() const { return begun_; }
  /// True once the schedule drained (further Steps are no-ops).
  bool exhausted() const { return exhausted_; }
  /// True once the overall options budget (matcher.budget, if any) is
  /// spent. Distinct from exhausted(): the queue may still hold work.
  bool budget_spent() const {
    return options_.matcher.budget != 0 &&
           loop_.result().run.comparisons_executed >= options_.matcher.budget;
  }
  /// Nothing left to spend: queue drained OR overall budget consumed.
  /// The correct condition for "keep stepping" loops.
  bool finished() const { return exhausted_ || budget_spent(); }
  /// Cumulative outcome of every Step so far.
  const ProgressiveResult& result() const { return loop_.result(); }

  /// Installs (or clears) the streaming match sink.
  void set_match_callback(MatchCallback callback) {
    loop_.set_match_callback(std::move(callback));
  }

  /// Installs (or clears) the progressive-quality sampler (caller-owned,
  /// must outlive the resolver). Observational only: the meter sees the
  /// cumulative (comparisons, matches) totals after every executed
  /// comparison and never influences scheduling.
  void set_progress_meter(obs::ProgressMeter* meter) {
    loop_.set_progress_meter(meter);
  }

  // --- Checkpoint / restore ------------------------------------------------

  /// Serializes the complete loop state (schedule, evidence, executed set,
  /// partial result). Requires an active run (Begin was called). The
  /// collection/graph/evaluator are NOT serialized — a restoring process
  /// rebuilds them deterministically and calls LoadState.
  Status SaveState(std::ostream& out) const;

  /// Restores the loop state saved by SaveState against the same collection;
  /// stepping then continues exactly where the saved run left off.
  Status LoadState(std::istream& in);

  // --- Legacy run-to-completion interface ----------------------------------

  /// Resolves from the given initial candidates: Begin + Step to exhaustion.
  ProgressiveResult Resolve(const std::vector<WeightedComparison>& candidates);

  /// Warm start: `seeds` are trusted equivalences known before matching —
  /// existing owl:sameAs interlinks, or the output of a previous
  /// pay-as-you-go session. They are recorded into the resolution state at
  /// zero budget cost and propagated through the update phase, so their
  /// neighborhoods are prioritized from the first comparison on. Seeds do
  /// not appear among the returned matches (they were not discovered by
  /// this run).
  ProgressiveResult ResolveWithSeeds(
      const std::vector<WeightedComparison>& candidates,
      const std::vector<Comparison>& seeds);

 private:
  const EntityCollection* collection_;
  ProgressiveOptions options_;
  ThreadPool* pool_;  // optional, not owned
  ProgressiveLoop loop_;
  /// Leading entries of the loop's merge log that are warm-start seeds
  /// (Begin applies seeds before any comparison), written as the
  /// checkpoint's seed section.
  size_t num_seeds_ = 0;
  bool begun_ = false;
  bool exhausted_ = false;
};

}  // namespace minoan

#endif  // MINOAN_PROGRESSIVE_RESOLVER_H_
