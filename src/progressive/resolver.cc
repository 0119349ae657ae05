#include "progressive/resolver.h"

#include <algorithm>
#include <string>

#include "util/hash.h"
#include "util/serde.h"

namespace minoan {

namespace {

/// Format tag of the serialized loop state; bump on layout changes.
constexpr std::string_view kStateMagic = "MNER-PROG-v1";

}  // namespace

ProgressiveResolver::ProgressiveResolver(const EntityCollection& collection,
                                         const NeighborGraph& graph,
                                         const SimilarityEvaluator& evaluator,
                                         ProgressiveOptions options,
                                         ThreadPool* pool)
    : collection_(&collection),
      options_(options),
      pool_(pool),
      loop_(collection, &graph, /*dynamic_neighbors=*/nullptr, options,
            [&evaluator](EntityId a, EntityId b) {
              return evaluator.Similarity(a, b);
            }) {}

void ProgressiveResolver::Begin(
    const std::vector<WeightedComparison>& candidates,
    const std::vector<Comparison>& seeds) {
  loop_.Reset();
  loop_.Reserve(candidates.size());
  exhausted_ = false;

  // Normalize blocking-graph weights into [0, 1] likelihoods.
  double max_weight = 0.0;
  for (const WeightedComparison& c : candidates) {
    max_weight = std::max(max_weight, c.weight);
  }
  const double scale = max_weight > 0.0 ? 1.0 / max_weight : 1.0;
  std::vector<ComparisonScheduler::Entry> run(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const uint64_t pair = PairKey(candidates[i].a, candidates[i].b);
    const double likelihood = candidates[i].weight * scale;
    loop_.SetLikelihood(pair, likelihood);
    run[i] = {likelihood, pair};
  }
  // Seeds apply after the bulk pass: it needs the pristine state.
  loop_.ScoreAndPush(std::move(run), pool_);

  // Warm-start seeds: trusted matches at zero budget cost, propagated so
  // their neighborhoods get evidence before anything is compared. Only the
  // seeds actually applied enter the merge log.
  num_seeds_ = 0;
  for (const Comparison& seed : seeds) {
    if (loop_.ApplySeed(seed.a, seed.b)) ++num_seeds_;
  }
  begun_ = true;
}

StepResult ProgressiveResolver::Step(uint64_t max_comparisons) {
  if (!begun_ || exhausted_ || budget_spent()) {
    StepResult out;
    out.exhausted = exhausted_;
    return out;
  }
  // The overall comparison budget caps this call.
  uint64_t cap = max_comparisons;
  if (options_.matcher.budget != 0) {
    const uint64_t left = options_.matcher.budget -
                          loop_.result().run.comparisons_executed;
    cap = cap == 0 ? left : std::min(cap, left);
  }
  StepResult out = loop_.Step(cap);
  exhausted_ = out.exhausted;
  return out;
}

ProgressiveResult ProgressiveResolver::Resolve(
    const std::vector<WeightedComparison>& candidates) {
  return ResolveWithSeeds(candidates, {});
}

ProgressiveResult ProgressiveResolver::ResolveWithSeeds(
    const std::vector<WeightedComparison>& candidates,
    const std::vector<Comparison>& seeds) {
  Begin(candidates, seeds);
  Step(0);
  begun_ = false;
  return loop_.TakeResult();
}

// ---------------------------------------------------------------------------
// Checkpoint / restore
// ---------------------------------------------------------------------------

namespace {

/// Writes an unordered (pair -> double) map in canonical ascending-key order.
void WritePairDoubleMap(std::ostream& out, const FlatPairMap<double>& map) {
  std::vector<std::pair<uint64_t, double>> entries;
  entries.reserve(map.size());
  map.ForEach([&entries](uint64_t pair, const double& value) {
    entries.emplace_back(pair, value);
  });
  std::sort(entries.begin(), entries.end());
  serde::WriteU64(out, entries.size());
  for (const auto& [pair, value] : entries) {
    serde::WriteU64(out, pair);
    serde::WriteDouble(out, value);
  }
}

using serde::kMaxUpfrontReserve;
using serde::ValidPairKey;

bool ReadPairDoubleMap(std::istream& in, uint32_t num_entities,
                       FlatPairMap<double>& map) {
  uint64_t n;
  if (!serde::ReadU64(in, n)) return false;
  map.Clear();
  map.Reserve(std::min(n, kMaxUpfrontReserve));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t pair;
    double value;
    if (!serde::ReadU64(in, pair) || !serde::ReadDouble(in, value) ||
        !ValidPairKey(pair, num_entities)) {
      return false;
    }
    map.InsertOrAssign(pair, value);
  }
  return true;
}

}  // namespace

Status ProgressiveResolver::SaveState(std::ostream& out) const {
  if (!begun_) {
    return Status::FailedPrecondition(
        "no active resolution to save (call Begin first)");
  }
  serde::WriteString(out, kStateMagic);
  WritePairDoubleMap(out, loop_.likelihoods());
  WritePairDoubleMap(out, loop_.evidence());

  std::vector<uint64_t> executed;
  executed.reserve(loop_.executed().size());
  loop_.executed().ForEach(
      [&executed](uint64_t pair) { executed.push_back(pair); });
  std::sort(executed.begin(), executed.end());
  serde::WriteU64(out, executed.size());
  for (const uint64_t pair : executed) serde::WriteU64(out, pair);

  loop_.WriteSchedule(out);

  serde::WriteU64(out, num_seeds_);
  for (size_t i = 0; i < num_seeds_; ++i) {
    serde::WriteU32(out, loop_.merges()[i].first);
    serde::WriteU32(out, loop_.merges()[i].second);
  }

  loop_.WriteRun(out);
  const ProgressiveResult& result = loop_.result();
  serde::WriteU64(out, result.benefit_trace.size());
  for (const double v : result.benefit_trace) serde::WriteDouble(out, v);
  serde::WriteU64(out, result.discovered_pairs);
  serde::WriteU64(out, result.discovered_matches);
  serde::WriteU64(out, result.evidence_assisted_matches);
  // Cumulative realized benefit: the trace's last entry.
  serde::WriteDouble(out, result.benefit_trace.empty()
                              ? 0.0
                              : result.benefit_trace.back());
  serde::WriteU8(out, exhausted_ ? 1 : 0);
  if (!out) return Status::IoError("checkpoint write failed");
  return Status::Ok();
}

Status ProgressiveResolver::LoadState(std::istream& in) {
  const auto truncated = [] {
    return Status::ParseError("truncated or corrupt resolver state");
  };
  const uint32_t num_entities = collection_->num_entities();
  std::string magic;
  if (!serde::ReadString(in, magic, kStateMagic.size())) return truncated();
  if (magic != kStateMagic) {
    return Status::ParseError("bad resolver-state magic: \"" + magic + "\"");
  }
  ProgressiveLoop::Snapshot snap;
  if (!ReadPairDoubleMap(in, num_entities, snap.likelihood)) {
    return truncated();
  }
  if (!ReadPairDoubleMap(in, num_entities, snap.evidence)) return truncated();

  uint64_t n_executed;
  if (!serde::ReadU64(in, n_executed)) return truncated();
  snap.executed.Reserve(std::min(n_executed, kMaxUpfrontReserve));
  for (uint64_t i = 0; i < n_executed; ++i) {
    uint64_t pair;
    if (!serde::ReadU64(in, pair) || !ValidPairKey(pair, num_entities)) {
      return truncated();
    }
    snap.executed.Insert(pair);
  }

  if (!ProgressiveLoop::ReadSchedule(in, num_entities, snap)) {
    return truncated();
  }

  uint64_t n_seeds;
  if (!serde::ReadU64(in, n_seeds)) return truncated();
  snap.merges.reserve(std::min(n_seeds, kMaxUpfrontReserve));
  for (uint64_t i = 0; i < n_seeds; ++i) {
    uint32_t a, b;
    if (!serde::ReadU32(in, a) || !serde::ReadU32(in, b)) return truncated();
    if (a >= num_entities || b >= num_entities) {
      return Status::ParseError("seed entity id out of range");
    }
    snap.merges.emplace_back(a, b);
  }

  ProgressiveResult& result = snap.result;
  if (!ProgressiveLoop::ReadRun(in, num_entities, snap)) return truncated();
  uint64_t n_trace;
  if (!serde::ReadU64(in, n_trace)) return truncated();
  if (n_trace != result.run.matches.size()) {
    return Status::ParseError("benefit trace length mismatch");
  }
  result.benefit_trace.resize(n_trace);
  for (uint64_t i = 0; i < n_trace; ++i) {
    if (!serde::ReadDouble(in, result.benefit_trace[i])) return truncated();
  }
  double cumulative_benefit;  // implied by the trace; read for the layout
  uint8_t exhausted;
  if (!serde::ReadU64(in, result.discovered_pairs) ||
      !serde::ReadU64(in, result.discovered_matches) ||
      !serde::ReadU64(in, result.evidence_assisted_matches) ||
      !serde::ReadDouble(in, cumulative_benefit) ||
      !serde::ReadU8(in, exhausted)) {
    return truncated();
  }

  // The merge log is the seeds followed by the matches, in call order.
  num_seeds_ = snap.merges.size();
  for (const MatchEvent& m : result.run.matches) {
    snap.merges.emplace_back(m.a, m.b);
  }
  loop_.Restore(std::move(snap));
  exhausted_ = exhausted != 0;
  begun_ = true;
  return Status::Ok();
}

}  // namespace minoan
