// Copyright 2026 The MinoanER Authors.
// The sharded postings core: deterministic parallel inverted-index
// construction shared by every batch blocking method.
//
// This is the front-of-pipeline counterpart of metablocking/sharded_prune.h:
// entities are dealt to workers in fixed-size chunks (constant, independent
// of the worker count), each chunk routes its (key, entity) emissions into a
// fixed number of key-hashed shards of the shard shuffle
// (extmem/shuffle.h), and each shard stable-sorts them by key — so equal
// keys keep chunk order, which IS the sequential scan order. Merging the
// shard-disjoint shards by key yields postings that are bit-identical for
// every thread count, including the inline (no pool) path, and for every
// memory budget: the budget picks only the shuffle sink.

#ifndef MINOAN_BLOCKING_SHARDED_BLOCKING_H_
#define MINOAN_BLOCKING_SHARDED_BLOCKING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "extmem/memory_budget.h"
#include "extmem/shuffle.h"
#include "kb/entity.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace minoan {

/// Entities per blocking work chunk. A constant (never derived from the
/// pool size): chunk boundaries define the per-key emission order, so they
/// must not move when the thread count changes.
inline constexpr uint32_t kBlockingChunkEntities = 256;

/// Key-hashed merge shards (a power of two: a key's shard is its masked
/// hash). The shard of a key is a pure function of the key, so the grouping
/// is thread-count independent.
inline constexpr uint32_t kBlockingMergeShards = 64;
static_assert((kBlockingMergeShards & (kBlockingMergeShards - 1)) == 0);

/// The shuffle record of the postings core: one (key, entity) emission,
/// ordered by key alone (the driver keeps equal keys in arrival order).
/// Also the record of SortedNeighborhood's global key sort.
template <typename Key>
struct PostingCodec {
  struct Record {
    Key key{};
    EntityId entity = 0;
  };
  static bool Less(const Record& a, const Record& b) { return a.key < b.key; }
  static void Encode(const Record& r, std::string& out) {
    extmem::EncodeKey(r.key, out);
    extmem::AppendU32Le(out, r.entity);
  }
  static void Decode(std::string_view bytes, Record& r) {
    if constexpr (std::is_same_v<Key, std::string>) {
      r.key.assign(extmem::RecordKey(bytes));  // reuses r.key's buffer
    } else {
      r.key = extmem::DecodeKey<Key>(extmem::RecordKey(bytes));
    }
    r.entity = extmem::ReadU32Le(extmem::RecordPayload(bytes));
  }
};

/// The one postings entry point of the batch blockers. `emit(e, keys)`
/// appends entity e's blocking keys to `keys` (cleared by the caller), in
/// the exact order the sequential scan would have produced them. `hash(key)`
/// must be a pure function (it only picks the key's shard). Every merged
/// posting is delivered to `consume(key, entities)` in ascending key order,
/// its entities in sequential scan order (ascending entity id; duplicates
/// preserved when a method emits the same key twice for one entity —
/// BlockCollection's AddBlock dedups downstream, but size filters see the
/// raw count exactly like the sequential implementations did). `entities`
/// is scratch owned by the loop; consume may steal or mutate it.
///
/// The (key, entity) emissions go through one merged shard shuffle (keys
/// are shard-disjoint, so the cross-shard merge is the global key order);
/// `memory` picks its sink, and the consumed sequence is byte-identical
/// either way. Besides the sinks, only the current posting is held.
template <typename Key, typename EmitFn, typename HashFn, typename ConsumeFn>
void ForEachShardedPosting(uint32_t num_entities, ThreadPool* pool,
                           const extmem::MemoryBudgetOptions& memory,
                           const EmitFn& emit, const HashFn& hash,
                           const ConsumeFn& consume) {
  using Codec = PostingCodec<Key>;

  // Coarse-grained telemetry only: one add per chunk or shard, never per
  // emission — instrumentation must not show up in the hot-path profile.
  static obs::Counter& chunks_counter =
      obs::MetricsRegistry::Default().counter("blocking.chunks");
  static obs::Counter& emissions_counter =
      obs::MetricsRegistry::Default().counter("blocking.emissions");
  static obs::Histogram& shard_records =
      obs::MetricsRegistry::Default().histogram("blocking.shard_records");
  static obs::Histogram& merge_fanin =
      obs::MetricsRegistry::Default().histogram("blocking.merge_fanin");
  static obs::Counter& postings_counter =
      obs::MetricsRegistry::Default().counter("blocking.postings");
  chunks_counter.Add(NumChunks(num_entities, kBlockingChunkEntities));

  // Per shard: records routed, and chunks that routed at least one.
  std::array<std::atomic<uint64_t>, kBlockingMergeShards> routed_records{};
  std::array<std::atomic<uint64_t>, kBlockingMergeShards> routed_chunks{};
  const auto scan = [&](size_t /*chunk*/, size_t begin, size_t end,
                        const auto& route) {
    std::vector<Key> keys;
    std::array<uint32_t, kBlockingMergeShards> routed{};
    uint64_t emitted = 0;
    for (EntityId e = static_cast<EntityId>(begin);
         e < static_cast<EntityId>(end); ++e) {
      keys.clear();
      emit(e, keys);
      for (Key& key : keys) {
        const auto shard = static_cast<uint32_t>(Mix64(hash(key)) &
                                                 (kBlockingMergeShards - 1));
        ++routed[shard];
        route(shard, typename Codec::Record{std::move(key), e});
      }
      emitted += keys.size();
    }
    emissions_counter.Add(emitted);
    for (uint32_t s = 0; s < kBlockingMergeShards; ++s) {
      if (routed[s] == 0) continue;
      routed_records[s] += routed[s];
      ++routed_chunks[s];
    }
  };

  uint64_t num_postings = 0;
  extmem::RunMergedShardShuffle<Codec>(
      pool, num_entities, kBlockingChunkEntities, kBlockingMergeShards,
      memory, scan, [&](auto& cursor) {
        typename Codec::Record record;
        Key key{};
        std::vector<EntityId> entities;
        while (cursor.Next(record)) {
          if (!entities.empty() && record.key != key) {
            consume(key, entities);
            ++num_postings;
            entities.clear();
          }
          if (entities.empty()) std::swap(key, record.key);
          entities.push_back(record.entity);
        }
        if (!entities.empty()) {
          consume(key, entities);
          ++num_postings;
        }
      });
  for (uint32_t s = 0; s < kBlockingMergeShards; ++s) {
    shard_records.Record(routed_records[s]);
    merge_fanin.Record(routed_chunks[s]);
  }
  postings_counter.Add(num_postings);
}

}  // namespace minoan

#endif  // MINOAN_BLOCKING_SHARDED_BLOCKING_H_
