#include "progressive/loop.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/hash.h"
#include "util/serde.h"
#include "util/thread_pool.h"

namespace minoan {

namespace {

/// InvalidArgument unless v is finite and in [0, hi].
Status CheckKnob(const char* name, double v, double hi = HUGE_VAL) {
  if (std::isfinite(v) && v >= 0.0 && v <= hi) return Status::Ok();
  std::ostringstream os;
  os << name << " must be " << (hi == HUGE_VAL ? ">= 0" : "in [0, 1]")
     << ", got " << v;
  return Status::InvalidArgument(os.str());
}

/// Scheduler telemetry, flushed once per ScoreAndPush and per Step.
struct ScheduleCounters {
  obs::Counter& prime_candidates;
  obs::Counter& run_pops;
  obs::Counter& heap_pops;
  obs::Counter& superseded_skips;
};

ScheduleCounters& Counters() {
  static ScheduleCounters counters{
      obs::MetricsRegistry::Default().counter("progressive.prime_candidates"),
      obs::MetricsRegistry::Default().counter("progressive.run_pops"),
      obs::MetricsRegistry::Default().counter("progressive.heap_pops"),
      obs::MetricsRegistry::Default().counter("progressive.superseded_skips")};
  return counters;
}

}  // namespace

Status ValidateLoopOptions(const ProgressiveOptions& options,
                           const SimilarityOptions& similarity) {
  const EvidenceOptions& ev = options.evidence;
  MINOAN_RETURN_IF_ERROR(
      CheckKnob("matcher.threshold", options.matcher.threshold, 1.0));
  MINOAN_RETURN_IF_ERROR(CheckKnob("benefit_weight", options.benefit_weight));
  MINOAN_RETURN_IF_ERROR(CheckKnob("evidence.increment", ev.increment));
  MINOAN_RETURN_IF_ERROR(CheckKnob("evidence.weight", ev.weight));
  MINOAN_RETURN_IF_ERROR(CheckKnob("evidence.priority", ev.priority));
  MINOAN_RETURN_IF_ERROR(CheckKnob("evidence.staleness_tolerance",
                                   ev.staleness_tolerance, 1.0));
  return CheckKnob("similarity.tfidf_weight", similarity.tfidf_weight, 1.0);
}

ProgressiveLoop::ProgressiveLoop(
    const EntityCollection& collection, const NeighborGraph* graph,
    const std::vector<std::vector<EntityId>>* dynamic_neighbors,
    ProgressiveOptions options, Similarity similarity)
    : collection_(&collection),
      graph_(graph),
      dynamic_neighbors_(dynamic_neighbors),
      options_(options),
      estimator_(options.benefit, options.evidence.max_neighbors_per_side),
      similarity_(std::move(similarity)) {}

void ProgressiveLoop::Reset() {
  likelihood_.Clear();
  evidence_.Clear();
  executed_.Clear();
  likelihood_overwritten_ = false;
  scheduler_ = ComparisonScheduler();
  result_ = ProgressiveResult();
  merges_.clear();
  state_ = std::make_unique<ResolutionState>(*collection_, graph_);
  state_->SetDynamicNeighbors(dynamic_neighbors_);
}

ProgressiveResult ProgressiveLoop::TakeResult() {
  ProgressiveResult out = std::move(result_);
  // The run is over: drop O(candidates) of loop state instead of carrying
  // it until the next Reset.
  result_ = ProgressiveResult();
  likelihood_ = {};
  evidence_ = {};
  executed_ = {};
  scheduler_ = ComparisonScheduler();
  state_.reset();
  merges_ = {};
  return out;
}

void ProgressiveLoop::Restore(Snapshot&& snapshot) {
  Reset();
  likelihood_ = std::move(snapshot.likelihood);
  evidence_ = std::move(snapshot.evidence);
  executed_ = std::move(snapshot.executed);
  scheduler_.RestoreFrom(snapshot.live, snapshot.total_pushes);
  result_ = std::move(snapshot.result);
  result_.scheduler_pushes = snapshot.total_pushes;
  merges_.reserve(snapshot.merges.size());
  for (const auto& [a, b] : snapshot.merges) RecordMerge(a, b);
}

void ProgressiveLoop::WriteSchedule(std::ostream& out) const {
  const auto live = scheduler_.LiveEntries();
  serde::WriteU64(out, live.size());
  for (const auto& [pair, priority] : live) {
    serde::WriteU64(out, pair);
    serde::WriteDouble(out, priority);
  }
  serde::WriteU64(out, scheduler_.total_pushes());
}

void ProgressiveLoop::WriteRun(std::ostream& out) const {
  serde::WriteU64(out, result_.run.comparisons_executed);
  serde::WriteU64(out, result_.run.matches.size());
  for (const MatchEvent& m : result_.run.matches) {
    serde::WriteU64(out, m.comparisons_done);
    serde::WriteU32(out, m.a);
    serde::WriteU32(out, m.b);
    serde::WriteDouble(out, m.similarity);
  }
}

bool ProgressiveLoop::ReadSchedule(std::istream& in, uint32_t num_entities,
                                   Snapshot& snapshot) {
  uint64_t n;
  if (!serde::ReadU64(in, n)) return false;
  snapshot.live.reserve(std::min(n, serde::kMaxUpfrontReserve));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t pair;
    double priority;
    if (!serde::ReadU64(in, pair) || !serde::ReadDouble(in, priority) ||
        !serde::ValidPairKey(pair, num_entities)) {
      return false;
    }
    snapshot.live.emplace_back(pair, priority);
  }
  return serde::ReadU64(in, snapshot.total_pushes);
}

bool ProgressiveLoop::ReadRun(std::istream& in, uint32_t num_entities,
                              Snapshot& snapshot) {
  ResolutionRun& run = snapshot.result.run;
  uint64_t n;
  if (!serde::ReadU64(in, run.comparisons_executed) ||
      !serde::ReadU64(in, n)) {
    return false;
  }
  run.matches.reserve(std::min(n, serde::kMaxUpfrontReserve));
  for (uint64_t i = 0; i < n; ++i) {
    MatchEvent m;
    if (!serde::ReadU64(in, m.comparisons_done) || !serde::ReadU32(in, m.a) ||
        !serde::ReadU32(in, m.b) || !serde::ReadDouble(in, m.similarity) ||
        m.a >= num_entities || m.b >= num_entities) {
      return false;
    }
    run.matches.push_back(m);
  }
  return true;
}

void ProgressiveLoop::Reserve(size_t candidates) {
  likelihood_.Reserve(candidates);
}

void ProgressiveLoop::SetLikelihood(uint64_t pair, double likelihood) {
  bool created = false;
  likelihood_.FindOrInsert(pair, &created) = likelihood;
  if (!created) likelihood_overwritten_ = true;
  if (created && on_new_pair_ && !evidence_.Contains(pair) &&
      !executed_.Contains(pair)) {
    on_new_pair_(pair);
  }
}

double ProgressiveLoop::PriorityFrom(double likelihood, EntityId a,
                                     EntityId b) const {
  const double benefit = estimator_.PairBenefit(a, b, *state_);
  return likelihood * (1.0 + options_.benefit_weight * benefit);
}

double ProgressiveLoop::Priority(EntityId a, EntityId b,
                                 uint64_t pair) const {
  const double* base = likelihood_.Find(pair);
  const double* ev = evidence_.Find(pair);
  double likelihood = base == nullptr ? 0.0 : *base;
  if (ev != nullptr) {
    likelihood += options_.evidence.priority * std::min(1.0, *ev);
  }
  return PriorityFrom(likelihood, a, b);
}

double ProgressiveLoop::EvidenceBonus(uint64_t pair) const {
  const double* ev = evidence_.Find(pair);
  return ev == nullptr ? 0.0 : options_.evidence.weight * std::min(1.0, *ev);
}

void ProgressiveLoop::Schedule(uint64_t pair) {
  scheduler_.Push(pair, Priority(PairKeyFirst(pair), PairKeySecond(pair), pair));
}

void ProgressiveLoop::ScoreAndPush(
    std::vector<ComparisonScheduler::Entry> entries, ThreadPool* pool) {
  const auto score = [&](size_t i) {
    ComparisonScheduler::Entry& e = entries[i];
    // A relisted pair's earlier copies carry an overwritten likelihood;
    // the table holds the one every copy must be priced from.
    const double likelihood =
        likelihood_overwritten_ ? *likelihood_.Find(e.pair) : e.priority;
    e.priority =
        PriorityFrom(likelihood, PairKeyFirst(e.pair), PairKeySecond(e.pair));
  };
  // The gate only decides where the loop runs; the scores are identical
  // either way.
  if (pool != nullptr && entries.size() >= 256) {
    pool->ParallelFor(entries.size(), score);
  } else {
    for (size_t i = 0; i < entries.size(); ++i) score(i);
  }
  Counters().prime_candidates.Add(entries.size());
  scheduler_.Prime(std::move(entries));
  result_.scheduler_pushes = scheduler_.total_pushes();
}

bool ProgressiveLoop::ApplySeed(EntityId a, EntityId b) {
  const uint64_t pair = PairKey(a, b);
  if (!executed_.Insert(pair)) return false;
  if (on_new_pair_ && !likelihood_.Contains(pair) && !evidence_.Contains(pair)) {
    on_new_pair_(pair);
  }
  scheduler_.Erase(pair);
  // Raw (a, b) argument order: RecordMatch's union-find layout depends on
  // it, and a restore replays the merge log verbatim.
  RecordMerge(a, b);
  if (options_.enable_update_phase) UpdatePhase(a, b);
  result_.scheduler_pushes = scheduler_.total_pushes();
  return true;
}

void ProgressiveLoop::RecordMerge(EntityId a, EntityId b) {
  merges_.emplace_back(a, b);
  state_->RecordMatch(a, b);
}

StepResult ProgressiveLoop::Step(uint64_t max_comparisons) {
  StepResult out;
  const size_t match_mark = result_.run.matches.size();
  const double tolerance = options_.evidence.staleness_tolerance;
  const ComparisonScheduler::PopCounts pops = scheduler_.pop_counts();
  uint64_t pair = 0;
  double popped_priority = 0.0;
  while (max_comparisons == 0 || out.comparisons < max_comparisons) {
    if (!scheduler_.Pop(pair, popped_priority)) {
      out.exhausted = true;
      break;
    }
    if (executed_.Contains(pair)) continue;
    // Priority drift: the state may have changed since this entry was
    // pushed. Re-queue significantly stale entries instead of executing.
    const double current =
        Priority(PairKeyFirst(pair), PairKeySecond(pair), pair);
    if (current + 1e-12 < popped_priority * (1.0 - tolerance)) {
      scheduler_.Push(pair, current);
      continue;
    }
    Execute(pair);
    ++out.comparisons;
    if (progress_ != nullptr) {
      progress_->OnProgress(result_.run.comparisons_executed,
                            result_.run.matches.size());
    }
  }
  out.matches.assign(result_.run.matches.begin() + match_mark,
                     result_.run.matches.end());
  result_.scheduler_pushes = scheduler_.total_pushes();
  const ComparisonScheduler::PopCounts& now = scheduler_.pop_counts();
  ScheduleCounters& counters = Counters();
  counters.run_pops.Add(now.run_pops - pops.run_pops);
  counters.heap_pops.Add(now.heap_pops - pops.heap_pops);
  counters.superseded_skips.Add(now.superseded_skips - pops.superseded_skips);
  return out;
}

void ProgressiveLoop::ExecuteOutOfOrder(uint64_t pair) {
  scheduler_.Erase(pair);
  Execute(pair);
}

void ProgressiveLoop::Execute(uint64_t pair) {
  // ---- Matching phase -----------------------------------------------------
  const EntityId a = PairKeyFirst(pair);
  const EntityId b = PairKeySecond(pair);
  executed_.Insert(pair);
  ++result_.run.comparisons_executed;
  const double profile_sim = similarity_(a, b);
  const double sim = profile_sim + EvidenceBonus(pair);
  if (sim < options_.matcher.threshold) return;

  // ---- Confirmed match ----------------------------------------------------
  const double realized = estimator_.RealizedBenefit(a, b, *state_);
  RecordMerge(a, b);
  const double cumulative =
      (result_.benefit_trace.empty() ? 0.0 : result_.benefit_trace.back()) +
      realized;
  result_.run.matches.push_back(
      MatchEvent{result_.run.comparisons_executed, a, b, sim});
  result_.benefit_trace.push_back(cumulative);
  if (profile_sim < options_.matcher.threshold) {
    ++result_.evidence_assisted_matches;
  }
  if (!likelihood_.Contains(pair)) ++result_.discovered_matches;
  if (on_match_) on_match_(result_.run.matches.back());

  // ---- Update phase -------------------------------------------------------
  if (options_.enable_update_phase) UpdatePhase(a, b);
}

void ProgressiveLoop::UpdatePhase(EntityId a, EntityId b) {
  const auto na = state_->NeighborsOf(a);
  const auto nb = state_->NeighborsOf(b);
  const size_t la =
      std::min<size_t>(na.size(), options_.evidence.max_neighbors_per_side);
  const size_t lb =
      std::min<size_t>(nb.size(), options_.evidence.max_neighbors_per_side);
  const bool clean = options_.mode == ResolutionMode::kCleanClean;
  for (size_t i = 0; i < la; ++i) {
    for (size_t j = 0; j < lb; ++j) {
      const EntityId x = na[i];
      const EntityId y = nb[j];
      if (x == y) continue;
      if (clean && !collection_->CrossKb(x, y)) continue;
      const uint64_t pair = PairKey(x, y);
      if (executed_.Contains(pair)) continue;
      if (state_->SameCluster(x, y)) continue;
      // Accumulate similarity evidence: the matched pair (a, b) vouches for
      // its aligned neighbors.
      bool created = false;
      evidence_.FindOrInsert(pair, &created) += options_.evidence.increment;
      if (created && !likelihood_.Contains(pair)) {
        // A candidate blocking never produced: discovered via the graph.
        ++result_.discovered_pairs;
        if (on_new_pair_) on_new_pair_(pair);
      }
      scheduler_.Push(pair, Priority(x, y, pair));
    }
  }
}

}  // namespace minoan
