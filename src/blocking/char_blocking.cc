#include "blocking/char_blocking.h"

#include <algorithm>
#include <deque>

#include "blocking/sharded_blocking.h"
#include "util/interner.h"

namespace minoan {

namespace {

/// Appends the sorted-unique q-gram strings of one entity's tokens.
void EntityGrams(const EntityCollection& collection, EntityId e, uint32_t q,
                 std::vector<std::string>& out) {
  out.clear();
  for (uint32_t tok : collection.entity(e).tokens) {
    const std::string_view token = collection.tokens().View(tok);
    if (token.size() <= q) {
      out.emplace_back(token);
      continue;
    }
    for (size_t i = 0; i + q <= token.size(); ++i) {
      out.emplace_back(token.substr(i, q));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

/// Emits the sliding-window blocks over a key-sorted (key, entity) record
/// cursor and returns how many it emitted. Windows of `w` records start every
/// w/2 records, each keyed "w:<first key>:<start>", until a window reaches
/// the last record. Holds at most w + 1 records: the current window plus one
/// record of lookahead to decide whether the window reaches the end.
template <typename Cursor>
uint64_t SlideWindowOverStream(Cursor& cursor, size_t w, BlockSink& sink) {
  std::deque<PostingCodec<std::string>::Record> buf;
  PostingCodec<std::string>::Record record;
  bool exhausted = false;
  const auto fill = [&](size_t want) {
    while (!exhausted && buf.size() < want) {
      if (!cursor.Next(record)) {
        exhausted = true;
        break;
      }
      buf.push_back(std::move(record));
    }
  };
  uint64_t windows = 0;
  size_t start = 0;  // absolute index of buf.front() in the sorted list
  std::vector<EntityId> window;
  std::string key;
  for (;;) {
    fill(w + 1);
    if (buf.size() < 2) break;  // a window needs two records
    const size_t len = std::min(w, buf.size());
    window.clear();
    for (size_t i = 0; i < len; ++i) window.push_back(buf[i].entity);
    if (sink.wants_keys()) {
      key = "w:" + buf.front().key + ":" + std::to_string(start);
      sink.Add(key, window);
    } else {
      sink.Add(std::string_view(), window);
    }
    ++windows;
    if (buf.size() <= w) break;  // the window consumed every record left
    for (size_t i = 0; i < w / 2; ++i) buf.pop_front();
    start += w / 2;
  }
  return windows;
}

}  // namespace

void QGramBlocking::BuildInto(const EntityCollection& collection,
                              ThreadPool* pool, BlockSink& sink) const {
  const uint32_t q = std::max<uint32_t>(1, options_.q);
  const uint32_t n = collection.num_entities();
  // Pass 1: global q-gram document frequencies. Each chunk counts into a
  // local interner + dense count array (no per-gram node allocation), then
  // the locals fold into one global interner in chunk order — global gram
  // ids are first-seen-in-chunk-order, so the fold (integer sums over a
  // dense array) is identical at every thread count.
  struct ChunkCounts {
    StringInterner grams;
    std::vector<uint32_t> counts;
  };
  std::vector<ChunkCounts> chunk_df(NumChunks(n, kBlockingChunkEntities));
  RunChunkedTasks(pool, n, kBlockingChunkEntities,
                  [&](size_t c, size_t begin, size_t end) {
                    ChunkCounts& local = chunk_df[c];
                    std::vector<std::string> grams;
                    for (size_t e = begin; e < end; ++e) {
                      EntityGrams(collection, static_cast<EntityId>(e), q,
                                  grams);
                      for (const std::string& gram : grams) {
                        const uint32_t id = local.grams.Intern(gram);
                        if (id >= local.counts.size()) {
                          local.counts.resize(id + 1, 0);
                        }
                        ++local.counts[id];
                      }
                    }
                  });
  StringInterner gram_ids;
  std::vector<uint32_t> df;
  for (const ChunkCounts& local : chunk_df) {
    for (uint32_t i = 0; i < local.grams.size(); ++i) {
      const uint32_t id = gram_ids.Intern(local.grams.View(i));
      if (id >= df.size()) df.resize(id + 1, 0);
      df[id] += local.counts[i];
    }
  }

  // Pass 2: keep the rarest grams per entity (they carry the signal), build
  // postings through the sharded core. `gram_ids`/`df` are frozen —
  // Find() is a const read, safe across workers. The DF table itself is
  // vocabulary-bounded and stays in memory under the budget; only the
  // (gram, entity) postings stream.
  const auto emit = [&](EntityId e, std::vector<std::string>& keys) {
    EntityGrams(collection, e, q, keys);
    if (options_.max_grams_per_entity > 0 &&
        keys.size() > options_.max_grams_per_entity) {
      std::partial_sort(
          keys.begin(), keys.begin() + options_.max_grams_per_entity,
          keys.end(),
          [&](const std::string& a, const std::string& b) {
            // Every gram was counted in pass 1, so Find never misses.
            const uint32_t da = df[gram_ids.Find(a)];
            const uint32_t db = df[gram_ids.Find(b)];
            return da != db ? da < db : a < b;  // rarest first
          });
      keys.resize(options_.max_grams_per_entity);
    }
  };
  const auto hash = [](const std::string& s) { return Fnv1a64(s); };
  const uint64_t df_cap = static_cast<uint64_t>(options_.max_df_fraction *
                                                collection.num_entities());
  std::string key_str;
  // Postings arrive in deterministic sorted-key order on both paths.
  const auto consume = [&](const std::string& key,
                           std::vector<EntityId>& entities) {
    if (entities.size() < options_.min_df) return;
    if (df_cap > 0 && entities.size() > df_cap) return;
    if (sink.wants_keys()) {
      key_str = "g:" + key;
      sink.Add(key_str, entities);
    } else {
      sink.Add(std::string_view(), entities);
    }
  };
  ForEachShardedPosting<std::string>(n, pool, memory(), emit, hash, consume);
}

void SortedNeighborhoodBlocking::BuildInto(const EntityCollection& collection,
                                           ThreadPool* pool,
                                           BlockSink& sink) const {
  // Build (key, entity) records: each entity contributes its rarest tokens.
  // Windows span arbitrary key-hash boundaries, so the global key sort is
  // ONE shard of the shard shuffle: its stable key sort of the sequential
  // arrival order (chunk asc, entity asc) is the (key, entity) order, since
  // an entity never emits one key twice. The window then slides over the
  // sorted cursor; under a memory budget the sort is external and the
  // slider holds O(window) records.
  const uint32_t n = collection.num_entities();
  const size_t w = std::max<uint32_t>(2, options_.window_size);

  static obs::Counter& chunks_counter =
      obs::MetricsRegistry::Default().counter("blocking.chunks");
  static obs::Counter& emissions_counter =
      obs::MetricsRegistry::Default().counter("blocking.emissions");
  static obs::Counter& postings_counter =
      obs::MetricsRegistry::Default().counter("blocking.postings");
  chunks_counter.Add(NumChunks(n, kBlockingChunkEntities));

  // Rarest `keys_per_entity` token strings of one entity, by (df, id).
  const auto entity_keys = [&](EntityId e, std::vector<uint32_t>& toks) {
    toks = collection.entity(e).tokens;
    std::sort(toks.begin(), toks.end(), [&](uint32_t a, uint32_t b) {
      const uint32_t da = collection.TokenDf(a), db = collection.TokenDf(b);
      return da != db ? da < db : a < b;
    });
    toks.resize(std::min<size_t>(options_.keys_per_entity, toks.size()));
  };

  using Codec = PostingCodec<std::string>;
  extmem::RunShardShuffle<Codec>(
      pool, n, kBlockingChunkEntities, /*num_shards=*/1, memory(),
      [&](size_t /*chunk*/, size_t begin, size_t end, const auto& route) {
        std::vector<uint32_t> toks;
        uint64_t emitted = 0;
        for (EntityId e = static_cast<EntityId>(begin);
             e < static_cast<EntityId>(end); ++e) {
          entity_keys(e, toks);
          for (const uint32_t tok : toks) {
            route(0, Codec::Record{std::string(collection.tokens().View(tok)),
                                   e});
          }
          emitted += toks.size();
        }
        emissions_counter.Add(emitted);
      },
      [&](uint32_t /*shard*/, auto& cursor) {
        // A window block is the analog of one merged posting here.
        postings_counter.Add(SlideWindowOverStream(cursor, w, sink));
      });
}

}  // namespace minoan
