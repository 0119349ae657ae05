#include "online/online_resolver.h"

#include <algorithm>
#include <bit>
#include <string_view>

#include "obs/metrics.h"
#include "text/similarity.h"
#include "util/hash.h"
#include "util/serde.h"

namespace minoan {
namespace online {

namespace {

/// Format tags of the serialized engine state; bump on layout changes.
/// v1: dynamic state only — Restore needs the caller to rebuild the exact
///     collection snapshot. Still loadable (golden blobs, old checkpoints).
/// v2: v1 plus the serialized IncrementalCollection right after the header,
///     so a v2 stream restores self-contained. The dynamic-state sections
///     are byte-identical to v1's.
constexpr std::string_view kOnlineStateMagicV1 = "MNER-ONLN-v1";
constexpr std::string_view kOnlineStateMagicV2 = "MNER-ONLN-v2";

uint64_t MixU(uint64_t seed, uint64_t v) { return HashCombine(seed, v); }
uint64_t MixD(uint64_t seed, double v) {
  return HashCombine(seed, std::bit_cast<uint64_t>(v));
}

/// Digest of every option that shapes the online resolution trajectory; a
/// restored engine must step identically to the saving one, so mismatched
/// options are rejected instead of silently diverging.
uint64_t OnlineOptionsDigest(const OnlineOptions& o) {
  uint64_t h = Fnv1a64("minoan-online-options");
  h = MixD(h, o.matcher.threshold);
  h = MixU(h, static_cast<uint64_t>(o.benefit));
  h = MixD(h, o.benefit_weight);
  h = MixD(h, o.evidence.increment);
  h = MixD(h, o.evidence.weight);
  h = MixD(h, o.evidence.priority);
  h = MixU(h, static_cast<uint64_t>(o.evidence.max_neighbors_per_side));
  h = MixD(h, o.evidence.staleness_tolerance);
  h = MixU(h, static_cast<uint64_t>(o.use_same_as_seeds));
  h = MixU(h, static_cast<uint64_t>(o.similarity.use_tfidf));
  h = MixD(h, o.similarity.tfidf_weight);
  h = MixU(h, static_cast<uint64_t>(o.blocking.use_token_keys));
  h = MixD(h, o.blocking.token.max_df_fraction);
  h = MixU(h, o.blocking.token.min_df);
  h = MixU(h, static_cast<uint64_t>(o.blocking.use_pis_keys));
  h = MixU(h, static_cast<uint64_t>(o.blocking.pis.use_suffix));
  h = MixU(h, static_cast<uint64_t>(o.blocking.pis.use_infix));
  h = MixU(h, static_cast<uint64_t>(o.blocking.pis.tokenize_suffix));
  h = MixU(h, o.blocking.pis.min_block_size);
  h = MixU(h, o.blocking.pis.max_block_size);
  h = MixU(h, static_cast<uint64_t>(o.blocking.mode));
  return h;
}

using serde::kMaxUpfrontReserve;

/// The loop knobs of an online engine (its update phase is always on).
ProgressiveOptions LoopOptionsFor(const OnlineOptions& o) {
  ProgressiveOptions loop;
  loop.benefit = o.benefit;
  loop.benefit_weight = o.benefit_weight;
  loop.matcher.threshold = o.matcher.threshold;
  loop.evidence = o.evidence;
  loop.mode = o.blocking.mode;
  return loop;
}

}  // namespace

Status OnlineOptions::Validate() const {
  return ValidateLoopOptions(LoopOptionsFor(*this), similarity);
}

ProgressiveLoop OnlineResolver::MakeLoop() {
  ProgressiveLoop loop(
      coll_.collection(), /*graph=*/nullptr, &neighbors_,
      LoopOptionsFor(options_),
      [this](EntityId a, EntityId b) { return ProfileSimilarity(a, b); });
  // A pair's first sighting makes its two entities Query partners.
  loop.set_new_pair_hook([this](uint64_t pair) {
    const EntityId a = PairKeyFirst(pair);
    const EntityId b = PairKeySecond(pair);
    partners_[a].push_back(b);
    partners_[b].push_back(a);
  });
  return loop;
}

OnlineResolver::OnlineResolver(OnlineOptions options)
    : OnlineResolver(options, RestoreTag{}) {
  loop_.Reset();
}

OnlineResolver::OnlineResolver(OnlineOptions options, EntityCollection&& warm,
                               ThreadPool* pool)
    : OnlineResolver(options, std::move(warm), RestoreTag{}) {
  loop_.Reset();
  // Index sequentially (the incremental index mutates per entity), then
  // price the whole candidate batch in the loop's bulk pass — before any
  // seed, while the state is pristine.
  std::vector<ComparisonScheduler::Entry> to_score;
  for (EntityId id = 0; id < coll_.num_entities(); ++id) {
    IndexEntity(id, &to_score);
  }
  loop_.ScoreAndPush(std::move(to_score), pool);
  ConsumeSameAsSeeds();
}

OnlineResolver::OnlineResolver(OnlineOptions options, EntityCollection&& warm,
                               RestoreTag)
    : options_(options),
      coll_(std::move(warm)),
      index_(options.blocking),
      loop_(MakeLoop()) {}

OnlineResolver::OnlineResolver(OnlineOptions options, RestoreTag)
    : options_(options),
      coll_(options.collection),
      index_(options.blocking),
      loop_(MakeLoop()) {}

Result<std::unique_ptr<OnlineResolver>> OnlineResolver::Restore(
    OnlineOptions options, EntityCollection&& warm, std::istream& in) {
  const uint32_t warm_entities = warm.num_entities();
  const uint32_t warm_kbs = warm.num_kbs();
  const uint64_t warm_triples = warm.total_triples();
  std::unique_ptr<OnlineResolver> resolver(
      new OnlineResolver(options, std::move(warm), RestoreTag{}));
  MINOAN_RETURN_IF_ERROR(resolver->LoadState(in));
  // v2 streams replace `warm` with the embedded collection, but a caller
  // snapshot that disagrees with the saved state still signals the caller
  // restored the wrong file — reject it rather than silently diverge from
  // what they believe the engine holds. (v1 verifies this inside LoadState.)
  const EntityCollection& c = resolver->collection();
  if (c.num_entities() != warm_entities || c.num_kbs() != warm_kbs ||
      c.total_triples() != warm_triples) {
    return Status::InvalidArgument(
        "online state was saved over a different collection than the "
        "caller's snapshot");
  }
  return resolver;
}

Result<std::unique_ptr<OnlineResolver>> OnlineResolver::Restore(
    OnlineOptions options, std::istream& in) {
  std::unique_ptr<OnlineResolver> resolver(
      new OnlineResolver(options, RestoreTag{}));
  MINOAN_RETURN_IF_ERROR(resolver->LoadState(in));
  return resolver;
}

Result<EntityId> OnlineResolver::Ingest(
    uint32_t kb_id, const std::vector<rdf::Triple>& triples) {
  MINOAN_ASSIGN_OR_RETURN(EntityId id, coll_.Ingest(kb_id, triples));
  IndexEntity(id);
  ConsumeSameAsSeeds();
  static obs::Counter& ingested =
      obs::MetricsRegistry::Default().counter("online.ingested");
  ingested.Increment();
  return id;
}

void OnlineResolver::IndexEntity(
    EntityId id, std::vector<ComparisonScheduler::Entry>* to_score) {
  const EntityCollection& c = collection();
  if (neighbors_.size() < c.num_entities()) {
    neighbors_.resize(c.num_entities());
    partners_.resize(c.num_entities());
  }
  loop_.state().AddEntity(id);

  // Relation edges of the new entity extend the undirected adjacency; the
  // targets necessarily exist already (forward references degraded to
  // attributes during ingestion).
  for (const Relation& r : c.entity(id).relations) {
    if (r.target == id) continue;
    auto& mine = neighbors_[id];
    if (std::find(mine.begin(), mine.end(), r.target) == mine.end()) {
      mine.push_back(r.target);
      neighbors_[r.target].push_back(id);
    }
  }

  delta_scratch_.clear();
  index_.AddEntity(c, id, delta_scratch_);
  for (const DeltaPair& d : delta_scratch_) {
    const uint64_t pair = PairKey(d.a, d.b);
    loop_.SetLikelihood(pair, d.weight);
    // The update phase may have discovered and even executed this pair
    // before blocking produced it.
    if (loop_.executed().Contains(pair)) continue;
    if (to_score != nullptr) {
      to_score->push_back({d.weight, pair});
    } else {
      loop_.Schedule(pair);
    }
  }
}

void OnlineResolver::ConsumeSameAsSeeds() {
  const auto& links = collection().same_as_links();
  if (!options_.use_same_as_seeds) {
    same_as_consumed_ = links.size();
    return;
  }
  for (; same_as_consumed_ < links.size(); ++same_as_consumed_) {
    loop_.ApplySeed(links[same_as_consumed_].a, links[same_as_consumed_].b);
  }
}

double OnlineResolver::ProfileSimilarityWithA(
    EntityId a, const std::vector<WeightedToken>& a_tfidf, EntityId b) const {
  const EntityCollection& c = collection();
  const double jaccard =
      JaccardSimilarity(c.entity(a).tokens, c.entity(b).tokens);
  if (!options_.similarity.use_tfidf) return jaccard;
  BuildTfidfVector(c, b, tfidf_b_);
  return MixProfileSimilarity(options_.similarity, jaccard,
                              WeightedCosineSimilarity(a_tfidf, tfidf_b_));
}

double OnlineResolver::ProfileSimilarity(EntityId a, EntityId b) const {
  if (options_.similarity.use_tfidf) {
    BuildTfidfVector(collection(), a, tfidf_a_);
  }
  return ProfileSimilarityWithA(a, tfidf_a_, b);
}

StepResult OnlineResolver::ResolveBudget(uint64_t max_comparisons) {
  // A zero budget spends nothing (the loop treats 0 as "uncapped").
  if (max_comparisons == 0) return StepResult{};
  StepResult out = loop_.Step(max_comparisons);
  static obs::Counter& comparisons =
      obs::MetricsRegistry::Default().counter("online.resolve_comparisons");
  static obs::Counter& matches =
      obs::MetricsRegistry::Default().counter("online.resolve_matches");
  comparisons.Add(out.comparisons);
  matches.Add(out.matches.size());
  return out;
}

std::vector<QueryCandidate> OnlineResolver::Query(EntityId id, uint32_t k) {
  static obs::Counter& queries =
      obs::MetricsRegistry::Default().counter("online.queries");
  queries.Increment();
  std::vector<QueryCandidate> out;
  if (k == 0 || id >= partners_.size()) return out;

  // Drain the entity's pending comparisons first — including any its own
  // matches discover for it mid-loop (partners_[id] may grow; indexing by
  // position covers the appended tail).
  for (size_t i = 0; i < partners_[id].size(); ++i) {
    const uint64_t pair = PairKey(id, partners_[id][i]);
    if (!loop_.executed().Contains(pair)) loop_.ExecuteOutOfOrder(pair);
  }

  // Rank with the query side's TF-IDF vector built once, not per partner.
  if (options_.similarity.use_tfidf) {
    BuildTfidfVector(collection(), id, tfidf_a_);
  }
  out.reserve(partners_[id].size());
  for (const EntityId p : partners_[id]) {
    out.push_back(QueryCandidate{
        p,
        ProfileSimilarityWithA(id, tfidf_a_, p) +
            loop_.EvidenceBonus(PairKey(id, p)),
        loop_.state().SameCluster(id, p)});
  }
  std::sort(out.begin(), out.end(),
            [](const QueryCandidate& l, const QueryCandidate& r) {
              if (l.similarity != r.similarity) {
                return l.similarity > r.similarity;
              }
              return l.id < r.id;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

// ---------------------------------------------------------------------------
// Checkpoint / restore
// ---------------------------------------------------------------------------

Status OnlineResolver::SaveState(std::ostream& out) const {
  const EntityCollection& c = collection();
  serde::WriteString(out, kOnlineStateMagicV2);
  serde::WriteU32(out, c.num_entities());
  serde::WriteU32(out, c.num_kbs());
  serde::WriteU64(out, c.total_triples());
  serde::WriteU64(out, OnlineOptionsDigest(options_));

  // v2: the collection travels with the state, so Restore(options, in)
  // needs no snapshot from the caller.
  MINOAN_RETURN_IF_ERROR(c.Save(out));

  index_.Save(out);

  // Adjacency lists carry their insertion order (UpdatePhase truncates to
  // the first max_neighbors_per_side entries), so they are serialized
  // verbatim rather than rebuilt.
  const auto save_adjacency =
      [&out](const std::vector<std::vector<EntityId>>& lists) {
        serde::WriteU64(out, lists.size());
        for (const auto& list : lists) {
          serde::WriteU64(out, list.size());
          for (const EntityId e : list) serde::WriteU32(out, e);
        }
      };
  save_adjacency(neighbors_);
  save_adjacency(partners_);

  // One row per pair the loop knows: the sorted union of its three
  // tables' keys, absent entries reading as 0 / not executed.
  const FlatPairMap<double>& likelihoods = loop_.likelihoods();
  const FlatPairMap<double>& evidence = loop_.evidence();
  const FlatPairSet& executed = loop_.executed();
  std::vector<uint64_t> pairs;
  pairs.reserve(likelihoods.size() + evidence.size() + executed.size());
  const auto add = [&pairs](uint64_t pair, const auto&...) {
    pairs.push_back(pair);
  };
  likelihoods.ForEach(add);
  evidence.ForEach(add);
  executed.ForEach(add);
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  serde::WriteU64(out, pairs.size());
  for (const uint64_t pair : pairs) {
    const double* likelihood = likelihoods.Find(pair);
    const double* ev = evidence.Find(pair);
    serde::WriteU64(out, pair);
    serde::WriteDouble(out, likelihood == nullptr ? 0.0 : *likelihood);
    serde::WriteDouble(out, ev == nullptr ? 0.0 : *ev);
    serde::WriteU8(out, executed.Contains(pair) ? 1 : 0);
  }

  loop_.WriteSchedule(out);

  serde::WriteU64(out, loop_.merges().size());
  for (const auto& [a, b] : loop_.merges()) {
    serde::WriteU32(out, a);
    serde::WriteU32(out, b);
  }

  loop_.WriteRun(out);
  const ProgressiveResult& result = loop_.result();
  serde::WriteU64(out, result.discovered_pairs);
  serde::WriteU64(out, result.evidence_assisted_matches);
  serde::WriteU64(out, same_as_consumed_);
  if (!out) return Status::IoError("online checkpoint write failed");
  return Status::Ok();
}

Status OnlineResolver::LoadState(std::istream& in) {
  const auto truncated = [] {
    return Status::ParseError("truncated or corrupt online engine state");
  };
  std::string magic;
  if (!serde::ReadString(in, magic, kOnlineStateMagicV2.size())) {
    return truncated();
  }
  if (magic != kOnlineStateMagicV1 && magic != kOnlineStateMagicV2) {
    return Status::ParseError("not a MinoanER online engine state");
  }
  uint32_t num_entities, num_kbs;
  uint64_t total_triples, digest;
  if (!serde::ReadU32(in, num_entities) || !serde::ReadU32(in, num_kbs) ||
      !serde::ReadU64(in, total_triples) || !serde::ReadU64(in, digest)) {
    return truncated();
  }
  if (digest != OnlineOptionsDigest(options_)) {
    return Status::InvalidArgument(
        "online state was saved with different options; restore with the "
        "options used at save time");
  }
  if (magic == kOnlineStateMagicV2) {
    // The collection travels with the state; whatever the engine held
    // (usually the empty store of the self-contained Restore) is replaced
    // by the saved snapshot before the header counts are cross-checked.
    MINOAN_RETURN_IF_ERROR(coll_.LoadCollection(in));
  }
  const EntityCollection& c = collection();
  const uint32_t n = c.num_entities();
  if (num_entities != n || num_kbs != c.num_kbs() ||
      total_triples != c.total_triples()) {
    return Status::InvalidArgument(
        magic == kOnlineStateMagicV2
            ? "online state header disagrees with its embedded collection"
            : "online state was saved over a different collection (entity/"
              "KB/triple counts differ); v1 states restore only over the "
              "exact snapshot the saving engine held");
  }

  if (!index_.Load(in, n)) return truncated();

  const auto load_adjacency =
      [&](std::vector<std::vector<EntityId>>& lists) {
        uint64_t count;
        if (!serde::ReadU64(in, count) || count > n) return false;
        lists.assign(count, {});
        for (auto& list : lists) {
          uint64_t len;
          if (!serde::ReadU64(in, len) || len > n) return false;
          list.reserve(len);
          for (uint64_t i = 0; i < len; ++i) {
            uint32_t e;
            if (!serde::ReadU32(in, e) || e >= n) return false;
            list.push_back(e);
          }
        }
        return true;
      };
  if (!load_adjacency(neighbors_)) return truncated();
  if (!load_adjacency(partners_)) return truncated();

  // Every row lands in at least one table, so the restored loop knows the
  // same pairs (a row can be all zeros when evidence.increment is 0).
  ProgressiveLoop::Snapshot snap;
  uint64_t n_pairs;
  if (!serde::ReadU64(in, n_pairs)) return truncated();
  for (uint64_t i = 0; i < n_pairs; ++i) {
    uint64_t pair;
    double likelihood, evidence;
    uint8_t executed;
    if (!serde::ReadU64(in, pair) || !serde::ReadDouble(in, likelihood) ||
        !serde::ReadDouble(in, evidence) || !serde::ReadU8(in, executed) ||
        !serde::ValidPairKey(pair, n)) {
      return truncated();
    }
    if (evidence != 0.0) snap.evidence.InsertOrAssign(pair, evidence);
    if (executed != 0) snap.executed.Insert(pair);
    if (likelihood != 0.0 || (evidence == 0.0 && executed == 0)) {
      snap.likelihood.InsertOrAssign(pair, likelihood);
    }
  }

  if (!ProgressiveLoop::ReadSchedule(in, n, snap)) return truncated();

  uint64_t n_ops;
  if (!serde::ReadU64(in, n_ops)) return truncated();
  snap.merges.reserve(std::min(n_ops, kMaxUpfrontReserve));
  for (uint64_t i = 0; i < n_ops; ++i) {
    uint32_t a, b;
    if (!serde::ReadU32(in, a) || !serde::ReadU32(in, b) || a >= n ||
        b >= n) {
      return truncated();
    }
    snap.merges.emplace_back(a, b);
  }

  if (!ProgressiveLoop::ReadRun(in, n, snap)) return truncated();
  uint64_t same_as_consumed;
  if (!serde::ReadU64(in, snap.result.discovered_pairs) ||
      !serde::ReadU64(in, snap.result.evidence_assisted_matches) ||
      !serde::ReadU64(in, same_as_consumed)) {
    return truncated();
  }
  if (same_as_consumed > c.same_as_links().size()) {
    return Status::ParseError("online state sameAs cursor out of range");
  }
  same_as_consumed_ = static_cast<size_t>(same_as_consumed);
  // The format persists only the run, discovered_pairs and
  // evidence_assisted_matches of the loop's counters.
  loop_.Restore(std::move(snap));
  return Status::Ok();
}

}  // namespace online
}  // namespace minoan
