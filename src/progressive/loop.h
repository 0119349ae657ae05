// Copyright 2026 The MinoanER Authors.
// The progressive loop: MinoanER's schedule → match → update engine, once.
//
// The batch ProgressiveResolver (meta-blocking candidates, frozen
// NeighborGraph) and the online OnlineResolver (per-ingest delta
// candidates, growable adjacency) both drive this loop; they keep only the
// candidate source, the stop rule and their checkpoint formats. The loop
// owns the per-pair tables, the scheduler, the resolution state and the
// run counters. Invariant: Step(n/2) twice executes the byte-identical
// comparison sequence as Step(n) once.

#ifndef MINOAN_PROGRESSIVE_LOOP_H_
#define MINOAN_PROGRESSIVE_LOOP_H_

#include <cstdint>
#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "kb/collection.h"
#include "kb/neighbor_graph.h"
#include "matching/matcher.h"
#include "matching/similarity_evaluator.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "progressive/benefit.h"
#include "progressive/evidence_options.h"
#include "progressive/scheduler.h"
#include "progressive/state.h"
#include "util/flat_table.h"
#include "util/status.h"

namespace minoan {

class ThreadPool;

/// Progressive-resolution configuration.
struct ProgressiveOptions {
  BenefitModel benefit = BenefitModel::kQuantity;
  /// Strength of the benefit multiplier in the priority (0 = pure
  /// likelihood ordering).
  double benefit_weight = 1.0;
  /// Match decision threshold and comparison budget (0 = unlimited).
  MatcherOptions matcher;
  /// Master switch of the update phase (T6 ablation).
  bool enable_update_phase = true;
  /// Evidence-propagation knobs, shared with the online engine.
  EvidenceOptions evidence;
  ResolutionMode mode = ResolutionMode::kCleanClean;
};

/// Checks the knobs every progressive driver shares: the match threshold,
/// the benefit weight, the evidence knobs and the similarity mix. Called by
/// WorkflowOptions::Validate and OnlineOptions::Validate.
Status ValidateLoopOptions(const ProgressiveOptions& options,
                           const SimilarityOptions& similarity);

/// Outcome of a progressive run.
struct ProgressiveResult {
  ResolutionRun run;
  /// Cumulative realized benefit after each match (parallel to run.matches).
  std::vector<double> benefit_trace;
  /// Pairs scheduled purely by the update phase (absent from blocking).
  uint64_t discovered_pairs = 0;
  /// ... of which were confirmed as matches.
  uint64_t discovered_matches = 0;
  /// Matches that needed neighbor evidence to clear the threshold (profile
  /// similarity alone was below it).
  uint64_t evidence_assisted_matches = 0;
  /// Scheduling overhead: total pushes, primed candidates included.
  uint64_t scheduler_pushes = 0;
};

/// Outcome of one budgeted stepping call (batch session or online engine).
struct StepResult {
  /// Comparisons executed by THIS call.
  uint64_t comparisons = 0;
  /// Matches confirmed by this call (comparisons_done stamps are cumulative
  /// across the whole resolution).
  std::vector<MatchEvent> matches;
  /// True when the queue drained before the budget was spent.
  bool exhausted = false;
  /// Wall time this call took (filled by the session-level drivers;
  /// observational, never part of any determinism contract).
  double wall_millis = 0.0;
  /// Metrics-registry snapshot taken as the call returned (filled by
  /// ResolutionSession::Step while the registry is enabled; null
  /// otherwise). Shared: snapshots are immutable once taken.
  std::shared_ptr<const obs::StatsSnapshot> stats;
};

/// One schedule/match/update engine over one collection.
class ProgressiveLoop {
 public:
  /// Profile similarity of two descriptions (the matching phase adds the
  /// evidence bonus on top).
  using Similarity = std::function<double(EntityId, EntityId)>;
  /// Streaming sink for confirmed matches, in discovery order.
  using MatchCallback = std::function<void(const MatchEvent&)>;
  /// Called once per pair the loop sees for the first time (new to all
  /// three tables): a candidate, a seed or an update-phase discovery.
  using NewPairHook = std::function<void(uint64_t pair)>;

  /// A checkpoint's worth of loop state, filled by a driver's reader and
  /// installed whole by Restore.
  struct Snapshot {
    FlatPairMap<double> likelihood;
    FlatPairMap<double> evidence;
    FlatPairSet executed;
    std::vector<std::pair<uint64_t, double>> live;
    uint64_t total_pushes = 0;
    /// Every cluster merge (seeds and matches) in call order.
    std::vector<std::pair<EntityId, EntityId>> merges;
    ProgressiveResult result;
  };

  /// Neighbors come from `graph` when given, else from `dynamic_neighbors`
  /// (see ResolutionState); both pointees must outlive the loop. The loop
  /// holds no run until Reset or Restore.
  ProgressiveLoop(const EntityCollection& collection,
                  const NeighborGraph* graph,
                  const std::vector<std::vector<EntityId>>* dynamic_neighbors,
                  ProgressiveOptions options, Similarity similarity);

  /// Starts an empty run: clears the tables, schedule, counters and merge
  /// log, and builds a pristine ResolutionState over the collection.
  void Reset();
  /// Moves the result out and frees every per-run structure (one-shot runs).
  ProgressiveResult TakeResult();
  /// Installs a checkpointed run; the cluster state is rebuilt by replaying
  /// the merge log, which reproduces it exactly (RecordMatch is
  /// deterministic in call order).
  void Restore(Snapshot&& snapshot);

  /// Checkpoint sections both drivers' formats share, byte for byte: the
  /// live schedule (ascending pair) with the push counter, and the run
  /// (comparisons executed, then the matches). The readers fill `snapshot`
  /// and return false on truncation or an entity id >= num_entities.
  void WriteSchedule(std::ostream& out) const;
  void WriteRun(std::ostream& out) const;
  static bool ReadSchedule(std::istream& in, uint32_t num_entities,
                           Snapshot& snapshot);
  static bool ReadRun(std::istream& in, uint32_t num_entities,
                      Snapshot& snapshot);

  // --- Candidates and seeds ------------------------------------------------

  /// Pre-sizes the likelihood table for `candidates` blocking candidates.
  /// (The executed set grows with the comparisons actually run.)
  void Reserve(size_t candidates);
  /// Records (or overwrites) a blocking candidate's likelihood.
  void SetLikelihood(uint64_t pair, double likelihood);
  /// Pushes `pair` at its priority against the current state.
  void Schedule(uint64_t pair);
  /// Primes a fresh schedule with a batch of candidates. Each entry comes
  /// in carrying its pair's recorded likelihood in `priority` and leaves
  /// priced by the one priority formula, PriorityFrom(likelihood, a, b);
  /// the entries then become the scheduler's sorted run. Preconditions:
  /// the schedule is fresh (nothing pushed since Reset) and the state is
  /// pristine (no merge, no evidence), so a pair's priority is a function
  /// of its likelihood and PairBenefit only reads. Each entry's score lands
  /// in its own slot, so the schedule is identical with or without `pool`.
  void ScoreAndPush(std::vector<ComparisonScheduler::Entry> entries,
                    ThreadPool* pool);
  /// Applies a trusted match at zero budget cost and propagates it through
  /// the update phase. Returns false (no-op) when the pair was already
  /// executed.
  bool ApplySeed(EntityId a, EntityId b);

  // --- Matching --------------------------------------------------------------

  /// Spends up to `max_comparisons` scheduled comparisons (0 = until the
  /// queue drains): pop the highest priority, skip executed pairs, re-queue
  /// entries whose priority drifted down past the staleness tolerance,
  /// execute the rest.
  StepResult Step(uint64_t max_comparisons);
  /// Executes a not-yet-executed pair ahead of the schedule, dropping its
  /// queued entry (online Query).
  void ExecuteOutOfOrder(uint64_t pair);

  /// Similarity bonus of the pair's accumulated neighbor evidence.
  double EvidenceBonus(uint64_t pair) const;

  // --- Hooks -----------------------------------------------------------------

  void set_match_callback(MatchCallback callback) {
    on_match_ = std::move(callback);
  }
  void set_new_pair_hook(NewPairHook hook) { on_new_pair_ = std::move(hook); }
  /// Observational only: sees the cumulative (comparisons, matches) totals
  /// after every comparison Step executes.
  void set_progress_meter(obs::ProgressMeter* meter) { progress_ = meter; }

  // --- Introspection (checkpoint writers read these) ---------------------

  const ProgressiveResult& result() const { return result_; }
  const FlatPairMap<double>& likelihoods() const { return likelihood_; }
  const FlatPairMap<double>& evidence() const { return evidence_; }
  const FlatPairSet& executed() const { return executed_; }
  const ComparisonScheduler& scheduler() const { return scheduler_; }
  const std::vector<std::pair<EntityId, EntityId>>& merges() const {
    return merges_;
  }
  ResolutionState& state() { return *state_; }

 private:
  /// The priority formula: likelihood × (1 + benefit_weight · benefit).
  double PriorityFrom(double likelihood, EntityId a, EntityId b) const;
  /// PriorityFrom of the pair's recorded likelihood plus, once neighbor
  /// evidence exists, the evidence priority.
  double Priority(EntityId a, EntityId b, uint64_t pair) const;
  void Execute(uint64_t pair);
  void UpdatePhase(EntityId a, EntityId b);
  /// Merges (a, b) in the cluster state and appends it to the merge log.
  void RecordMerge(EntityId a, EntityId b);

  const EntityCollection* collection_;
  const NeighborGraph* graph_;
  const std::vector<std::vector<EntityId>>* dynamic_neighbors_;
  ProgressiveOptions options_;
  BenefitEstimator estimator_;
  Similarity similarity_;
  MatchCallback on_match_;
  NewPairHook on_new_pair_;
  obs::ProgressMeter* progress_ = nullptr;  // optional, not owned

  // Flat open-addressing tables: every scheduled comparison probes
  // likelihood, evidence and the executed set, so these are the hottest
  // lookups of the whole loop. Writers canonicalize to ascending-pair
  // order, so the layout never shows in checkpoint bytes.
  FlatPairMap<double> likelihood_;
  FlatPairMap<double> evidence_;
  FlatPairSet executed_;
  /// Set once SetLikelihood overwrote a likelihood since Reset: a
  /// candidate's carried likelihood may then be stale, and ScoreAndPush
  /// re-reads the table.
  bool likelihood_overwritten_ = false;
  std::unique_ptr<ResolutionState> state_;
  ComparisonScheduler scheduler_;
  ProgressiveResult result_;
  std::vector<std::pair<EntityId, EntityId>> merges_;
};

}  // namespace minoan

#endif  // MINOAN_PROGRESSIVE_LOOP_H_
