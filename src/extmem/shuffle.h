// Copyright 2026 The MinoanER Authors.
// The shard shuffle: the one engine under every deterministic shard core
// of the pipeline — blocking postings and the sorted-neighborhood key sort
// (blocking/), the WEP/CEP edge lists and the WNP/CNP vote shards
// (metablocking/sharded_prune.cc). Each core is written once as a typed
// scan/consume pair over RunShardShuffle / RunMergedShardShuffle; the memory
// budget picks only the sink (in-memory typed vectors, or spilling sinks).
//
// The contract: records are routed to shards IN ARRIVAL ORDER (chunk order,
// then within-chunk scan order), and each shard's output is the stable sort
// of its records by key. The spilling sink reproduces that order with
// bounded memory:
//
//   * records are serialized as [u32 LE key_len][key bytes][payload], where
//     the key bytes are ORDER-PRESERVING (big-endian integers, raw strings)
//     so that lexicographic byte comparison of keys equals the logical sort
//     order;
//   * a SpillShuffle sink buffers records up to a run budget, stable-sorts
//     the buffer by key, and spills it as one sorted run file;
//   * Finish() returns a ShuffleSource that k-way-merges the runs plus the
//     final in-memory buffer, breaking key ties by run index — runs hold
//     arrival-contiguous batches, so run-index order IS arrival order and
//     the merged stream equals the stable sort of all records.
//
// The net guarantee: for any run budget (including "never spill"), any
// spill timing, and any thread count, a shard's merged stream is
// byte-identical to the in-memory stable sort. Temp files live in a
// ScopedSpillDir and are removed when the shuffle ends, on success and on
// exception.

#ifndef MINOAN_EXTMEM_SHUFFLE_H_
#define MINOAN_EXTMEM_SHUFFLE_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "extmem/memory_budget.h"
#include "extmem/spill_file.h"
#include "util/thread_pool.h"

namespace minoan {
namespace extmem {

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------
// A shuffle record is [u32 LE key_len][key bytes][payload bytes]. Key bytes
// must be order-preserving under lexicographic comparison; payload bytes are
// opaque to the engine.

/// Key span of a serialized record.
inline std::string_view RecordKey(std::string_view record) {
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<unsigned char>(record[i]))
           << (8 * i);
  }
  return record.substr(4, len);
}

/// Payload span of a serialized record.
inline std::string_view RecordPayload(std::string_view record) {
  return record.substr(4 + RecordKey(record).size());
}

inline void AppendU32Le(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void AppendU32Be(std::string& out, uint32_t v) {
  for (int i = 3; i >= 0; --i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void AppendU64Be(std::string& out, uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void AppendU64Le(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline uint32_t ReadU32Be(std::string_view bytes) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[i]);
  }
  return v;
}

inline uint64_t ReadU64Be(std::string_view bytes) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[i]);
  }
  return v;
}

inline uint32_t ReadU32Le(std::string_view bytes) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[i]))
         << (8 * i);
  }
  return v;
}

inline uint64_t ReadU64Le(std::string_view bytes) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[i]))
         << (8 * i);
  }
  return v;
}

/// Begins a record with an order-preserving encoding of `key`: big-endian
/// for integers (byte order == numeric order), raw bytes for strings (byte
/// order == std::string's lexicographic order). `out` is overwritten.
inline void EncodeKey(uint32_t key, std::string& out) {
  out.clear();
  AppendU32Le(out, 4);
  AppendU32Be(out, key);
}
inline void EncodeKey(uint64_t key, std::string& out) {
  out.clear();
  AppendU32Le(out, 8);
  AppendU64Be(out, key);
}
inline void EncodeKey(const std::string& key, std::string& out) {
  out.clear();
  AppendU32Le(out, static_cast<uint32_t>(key.size()));
  out.append(key);
}

/// Decodes a key span written by the matching EncodeKey overload.
template <typename Key>
Key DecodeKey(std::string_view key_bytes) {
  if constexpr (std::is_same_v<Key, uint32_t>) {
    return ReadU32Be(key_bytes);
  } else if constexpr (std::is_same_v<Key, uint64_t>) {
    return ReadU64Be(key_bytes);
  } else {
    static_assert(std::is_same_v<Key, std::string>,
                  "unsupported shuffle key type");
    return std::string(key_bytes);
  }
}

// ---------------------------------------------------------------------------
// Record source and the spilling sink
// ---------------------------------------------------------------------------

/// A stream of shuffle records. Views returned by Next stay valid until the
/// next call only.
class ShuffleSource {
 public:
  virtual ~ShuffleSource() = default;
  /// Advances to the next record; false at end of stream.
  virtual bool Next(std::string_view& record) = 0;
};

/// A shard's spilling record collector. Add records in arrival order, then
/// Finish exactly once to read them back sorted by key (equal keys in
/// arrival order). With run_bytes == 0 it never spills (pure in-memory
/// stable sort); with a budget it spills a sorted run whenever the buffer
/// exceeds `run_bytes`. `dir` must outlive the source returned by Finish
/// (run files are read lazily); it may be null only when run_bytes == 0.
///
/// Runs are written compressed (extmem/run_codec.h: varint frames,
/// front-coded keys). When more than `merge_fanin` runs accumulate,
/// Finish cascade-merges consecutive runs into a next generation of larger
/// runs until the final merge fits the fan-in — bounding open files at
/// fan-in + 1 per sink. Merging consecutive runs in place preserves the
/// run-index tie-break (every record of generation-merge i arrived before
/// every record of merge i+1), so the merged stream stays byte-identical to
/// the in-memory stable sort at any fan-in.
class SpillShuffle {
 public:
  /// `merge_fanin` below 2 is raised to 2.
  SpillShuffle(uint64_t run_bytes, ScopedSpillDir* dir,
               uint32_t merge_fanin = kDefaultMergeFanin);
  ~SpillShuffle();

  void Add(std::string_view record);
  std::unique_ptr<ShuffleSource> Finish();

  uint64_t records() const { return records_; }
  uint64_t runs_spilled() const { return runs_spilled_; }

 private:
  /// Stable-sorts the buffered records by key; fills `order_` with record
  /// start offsets in sorted order.
  void SortBuffer();
  void SpillRun();
  /// Repeatedly merges consecutive groups of `merge_fanin_` runs until at
  /// most `merge_fanin_` remain. Input runs of a finished merge are deleted;
  /// a partially written output is deleted before an error propagates.
  void CascadeMergeRuns();
  std::string MergeRunGroup(size_t begin, size_t end);

  uint64_t run_bytes_;
  ScopedSpillDir* dir_;
  uint32_t merge_fanin_;
  std::string buffer_;               // framed records, arrival order
  std::vector<uint32_t> offsets_;    // record frame start offsets
  std::vector<uint32_t> order_;      // offsets_ permuted into sorted order
  std::vector<std::string> run_paths_;
  uint64_t records_ = 0;
  uint64_t runs_spilled_ = 0;
};

// ---------------------------------------------------------------------------
// Telemetry (for tests and benches)
// ---------------------------------------------------------------------------
// Backed by the obs::MetricsRegistry "spill.*" metrics (so spill activity
// appears in --metrics-out stats); this struct is the stable probe API.
// Reset resets exactly the spill.* metrics. Note: while the registry is
// disabled (obs::MetricsRegistry::set_enabled(false)), spill activity is
// not recorded and these probes read as empty.

struct SpillTelemetry {
  uint64_t runs_spilled = 0;   ///< total sorted runs written to disk
  uint64_t bytes_spilled = 0;  ///< total bytes written to run files
  uint64_t sinks_spilled = 0;  ///< finished sinks that spilled >= 1 run
  uint64_t sinks_loaded = 0;   ///< finished sinks that received >= 1 record
  uint64_t cascade_merges = 0;  ///< intermediate cascaded run merges
  /// Minimum runs_spilled over finished sinks that received >= 1 record
  /// (UINT64_MAX when none finished yet) — the "every shard really spilled
  /// k runs" probe of the determinism tests.
  uint64_t min_runs_per_loaded_sink = 0;
};

SpillTelemetry GetSpillTelemetry();
void ResetSpillTelemetry();

// ---------------------------------------------------------------------------
// The typed shard-shuffle driver
// ---------------------------------------------------------------------------
// Every shard core of the pipeline is one scan/consume pair over this
// driver; the memory budget picks only the sink underneath. A `Codec`
// describes the record type:
//
//   using Record = ...;
//   static bool Less(const Record&, const Record&);       // the sort order
//   static void Encode(const Record&, std::string& out);  // overwrites out
//   static void Decode(std::string_view record, Record&);
//
// Encode must be order-preserving: the key bytes of Encode(a) compare below
// those of Encode(b) exactly when Less(a, b).
//
//   * In-memory sink (budget disabled): per-(chunk, shard) typed vectors,
//     gathered per shard in chunk order and std::stable_sort'ed by Less.
//   * Spilling sink (budget enabled): records are encoded into SpillShuffle
//     sinks in the same arrival order, merged back from sorted runs, and
//     decoded on read.
//
// Either way a shard reads its records sorted by Less with ties in arrival
// order, so consumers see identical records at every budget and thread
// count.

/// Chunks scanned per wave by the spilling sink. Bounds the transient
/// per-wave emission memory to O(wave × chunk emissions) independently of
/// the corpus size; output is byte-identical for ANY wave size (wave
/// boundaries only decide when runs spill, never the record order fed to a
/// shard).
inline constexpr size_t kSpillWaveChunks = 64;

/// Appends a framed copy of `record` to `out`.
inline void AppendFramed(std::string& out, std::string_view record) {
  AppendU32Le(out, static_cast<uint32_t>(record.size()));
  out.append(record);
}

/// Calls `fn(record)` for every framed record in `framed`.
template <typename Fn>
void ForEachFramed(std::string_view framed, const Fn& fn) {
  size_t pos = 0;
  while (pos < framed.size()) {
    const uint32_t len = ReadU32Le(framed.substr(pos, 4));
    fn(framed.substr(pos + 4, len));
    pos += 4 + len;
  }
}

/// One shard's sorted records: a typed vector (in-memory sink) or the
/// decoded merge of its spilled runs (spilling sink).
template <typename Codec>
class ShardCursor {
 public:
  using Record = typename Codec::Record;

  ShardCursor() = default;
  explicit ShardCursor(std::vector<Record> sorted)
      : records_(std::move(sorted)) {}
  explicit ShardCursor(std::unique_ptr<ShuffleSource> source)
      : source_(std::move(source)) {}

  /// Moves the next record into `out`; false at end of shard.
  bool Next(Record& out) {
    if (source_ != nullptr) {
      std::string_view bytes;
      if (!source_->Next(bytes)) return false;
      Codec::Decode(bytes, out);
      return true;
    }
    if (next_ == records_.size()) return false;
    out = std::move(records_[next_++]);
    return true;
  }

 private:
  std::vector<Record> records_;
  size_t next_ = 0;
  std::unique_ptr<ShuffleSource> source_;
};

/// K-way merge of shard cursors into one stream sorted by Codec::Less, key
/// ties broken by shard index. Holds one record per shard.
template <typename Codec>
class MergedCursor {
 public:
  using Record = typename Codec::Record;

  explicit MergedCursor(std::vector<ShardCursor<Codec>>& shards)
      : shards_(&shards), heads_(shards.size()) {
    for (uint32_t s = 0; s < shards.size(); ++s) {
      if (shards[s].Next(heads_[s])) heap_.push_back(s);
    }
    for (size_t i = heap_.size() / 2; i-- > 0;) SiftDown(i);
  }

  bool Next(Record& out) {
    if (heap_.empty()) return false;
    const uint32_t top = heap_[0];
    std::swap(out, heads_[top]);
    if (!(*shards_)[top].Next(heads_[top])) {
      heap_[0] = heap_.back();
      heap_.pop_back();
      SiftDown(0);
    } else if (Codec::Less(out, heads_[top])) {
      // A new key: the shard may have lost the minimum. An equal key keeps
      // its (key, shard) rank, so runs of one key skip the sift.
      SiftDown(0);
    }
    return true;
  }

 private:
  bool Before(uint32_t a, uint32_t b) const {
    if (Codec::Less(heads_[a], heads_[b])) return true;
    if (Codec::Less(heads_[b], heads_[a])) return false;
    return a < b;
  }

  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    for (;;) {
      const size_t left = 2 * i + 1;
      const size_t right = left + 1;
      size_t best = i;
      if (left < n && Before(heap_[left], heap_[best])) best = left;
      if (right < n && Before(heap_[right], heap_[best])) best = right;
      if (best == i) return;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  std::vector<ShardCursor<Codec>>* shards_;
  std::vector<Record> heads_;
  std::vector<uint32_t> heap_;  // shard indices, min-heap by Before
};

/// The shuffle state behind RunShardShuffle / RunMergedShardShuffle: the
/// only place the memory budget is consulted.
template <typename Codec>
class ShardShuffle {
 public:
  using Record = typename Codec::Record;

  ShardShuffle(ThreadPool* pool, uint32_t num_shards,
               const MemoryBudgetOptions& memory)
      : pool_(pool), num_shards_(num_shards) {
    if (!memory.enabled()) return;
    dir_ = std::make_unique<ScopedSpillDir>(memory.spill_dir);
    const uint64_t run_bytes = memory.RunBytesPerShard(num_shards);
    sinks_.resize(num_shards);
    for (auto& sink : sinks_) {
      sink = std::make_unique<SpillShuffle>(run_bytes, dir_.get());
    }
  }

  /// Scans [0, total) in fixed-size chunks (parallel across chunks);
  /// `scan(chunk, begin, end, route)` calls `route(shard, record)` per
  /// record. Chunk and shard boundaries never depend on the worker count,
  /// so each shard's arrival order — chunk order, then scan order — is the
  /// sequential one at every thread count.
  template <typename ScanFn>
  void Scatter(size_t total, size_t chunk_size, const ScanFn& scan) {
    if (dir_ != nullptr) {
      ScatterIntoSinks(total, chunk_size, scan);
      return;
    }
    // Per-worker routing buffers; each chunk's slices are then copied out
    // at their exact size.
    WorkerScratch<std::vector<std::vector<Record>>> arenas(pool_);
    slices_.assign(NumChunks(total, chunk_size),
                   std::vector<std::vector<Record>>(num_shards_));
    RunChunkedTasks(pool_, total, chunk_size,
                    [&](size_t c, size_t begin, size_t end) {
                      auto& arena = arenas.Local();
                      arena.resize(num_shards_);
                      scan(c, begin, end, [&](uint32_t shard, auto&& record) {
                        arena[shard].push_back(
                            std::forward<decltype(record)>(record));
                      });
                      for (uint32_t s = 0; s < num_shards_; ++s) {
                        slices_[c][s].assign(
                            std::make_move_iterator(arena[s].begin()),
                            std::make_move_iterator(arena[s].end()));
                        arena[s].clear();
                      }
                    });
  }

  /// Shard `s`'s records, sorted by Codec::Less with ties in arrival
  /// order. Call once per shard after Scatter; safe to call for distinct
  /// shards concurrently.
  ShardCursor<Codec> Finish(uint32_t s) {
    if (dir_ != nullptr) return ShardCursor<Codec>(sinks_[s]->Finish());
    size_t total = 0;
    for (const auto& chunk : slices_) total += chunk[s].size();
    std::vector<Record> records;
    records.reserve(total);
    for (auto& chunk : slices_) {
      records.insert(records.end(), std::make_move_iterator(chunk[s].begin()),
                     std::make_move_iterator(chunk[s].end()));
      std::vector<Record>().swap(chunk[s]);
    }
    std::stable_sort(records.begin(), records.end(),
                     [](const Record& a, const Record& b) {
                       return Codec::Less(a, b);
                     });
    return ShardCursor<Codec>(std::move(records));
  }

 private:
  /// The spilling scatter: chunks are scanned in waves of kSpillWaveChunks
  /// (parallel within a wave) into framed per-(chunk, shard) byte slices,
  /// then each shard's sink takes its slices in chunk order (parallel across
  /// shards; a shard is owned by exactly one task).
  template <typename ScanFn>
  void ScatterIntoSinks(size_t total, size_t chunk_size, const ScanFn& scan) {
    const size_t num_chunks = NumChunks(total, chunk_size);
    for (size_t wave_begin = 0; wave_begin < num_chunks;
         wave_begin += kSpillWaveChunks) {
      const size_t wave_end =
          std::min(num_chunks, wave_begin + kSpillWaveChunks);
      std::vector<std::vector<std::string>> slices(
          wave_end - wave_begin, std::vector<std::string>(num_shards_));
      RunPoolTasks(pool_, wave_end - wave_begin, [&](size_t i) {
        const size_t c = wave_begin + i;
        const size_t begin = c * chunk_size;
        const size_t end = std::min(total, begin + chunk_size);
        std::string bytes;
        scan(c, begin, end, [&](uint32_t shard, const Record& record) {
          Codec::Encode(record, bytes);
          AppendFramed(slices[i][shard], bytes);
        });
      });
      RunPoolTasks(pool_, num_shards_, [&](size_t s) {
        for (auto& chunk_slices : slices) {
          ForEachFramed(chunk_slices[s], [&](std::string_view record) {
            sinks_[s]->Add(record);
          });
          std::string().swap(chunk_slices[s]);
        }
      });
    }
  }

  ThreadPool* pool_;
  uint32_t num_shards_;
  // In-memory sink: [chunk][shard] records in scan order.
  std::vector<std::vector<std::vector<Record>>> slices_;
  // Spilling sink; dir_ outlives sinks_ (declared first, destroyed last).
  std::unique_ptr<ScopedSpillDir> dir_;
  std::vector<std::unique_ptr<SpillShuffle>> sinks_;
};

/// Drives one deterministic shard shuffle over [0, total) dealt in
/// `chunk_size` chunks: ShardShuffle::Scatter, then `consume(shard, cursor)`
/// reads each shard's sorted records through `cursor.Next(record)`
/// (parallel across shards). Temp files are removed before returning, and
/// when an exception unwinds.
template <typename Codec, typename ScanFn, typename ConsumeFn>
void RunShardShuffle(ThreadPool* pool, size_t total, size_t chunk_size,
                     uint32_t num_shards, const MemoryBudgetOptions& memory,
                     const ScanFn& scan, const ConsumeFn& consume) {
  ShardShuffle<Codec> shuffle(pool, num_shards, memory);
  shuffle.Scatter(total, chunk_size, scan);
  RunPoolTasks(pool, num_shards, [&](size_t s) {
    ShardCursor<Codec> cursor = shuffle.Finish(static_cast<uint32_t>(s));
    consume(static_cast<uint32_t>(s), cursor);
  });
}

/// RunShardShuffle for shard-disjoint keys (every key routed to exactly one
/// shard): the finished shards are k-way-merged and `consume(cursor)` reads
/// one stream in global key order.
template <typename Codec, typename ScanFn, typename ConsumeFn>
void RunMergedShardShuffle(ThreadPool* pool, size_t total, size_t chunk_size,
                           uint32_t num_shards,
                           const MemoryBudgetOptions& memory,
                           const ScanFn& scan, const ConsumeFn& consume) {
  ShardShuffle<Codec> shuffle(pool, num_shards, memory);
  shuffle.Scatter(total, chunk_size, scan);
  std::vector<ShardCursor<Codec>> shards(num_shards);
  RunPoolTasks(pool, num_shards, [&](size_t s) {
    shards[s] = shuffle.Finish(static_cast<uint32_t>(s));
  });
  MergedCursor<Codec> merged(shards);
  consume(merged);
}

}  // namespace extmem
}  // namespace minoan

#endif  // MINOAN_EXTMEM_SHUFFLE_H_
