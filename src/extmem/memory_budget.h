// Copyright 2026 The MinoanER Authors.
// MemoryBudgetOptions: the external-memory knob of the shuffle phases.
//
// MinoanER targets Web-of-Data-scale collections whose intermediate shuffle
// state (blocking postings, the sorted-neighborhood key sort, the WEP/CEP
// edge lists, meta-blocking vote shards) can exceed RAM. Each of those is one
// shard shuffle (extmem/shuffle.h), and the budget picks only its sink: with
// a budget each shard buffers records up to a bounded run size, spills
// sorted runs to temp files, and merges them back in the exact order the
// in-memory sink yields — the output is bit-identical with and without
// spilling, at every thread count.

#ifndef MINOAN_EXTMEM_MEMORY_BUDGET_H_
#define MINOAN_EXTMEM_MEMORY_BUDGET_H_

#include <algorithm>
#include <cstdint>
#include <string>

namespace minoan {
namespace extmem {

/// Floor on the per-shard run buffer: below this, runs degenerate to a
/// handful of records each and the merge fan-in explodes. Deliberately tiny
/// so tests can force many runs on small corpora.
inline constexpr uint64_t kMinSpillRunBytes = 256;

/// Ceiling on the per-shard run buffer (the sink indexes its buffer with
/// 32-bit offsets; 1 GiB per shard × 64 shards is far past the point where
/// spilling stops being the bottleneck anyway).
inline constexpr uint64_t kMaxSpillRunBytes = 1ull << 30;

/// Cap on how many run files one shard sink merges at once. When a sink
/// has spilled more runs than this, consecutive runs are cascade-merged
/// into a next generation of (at most fan-in) larger runs until the final
/// merge fits — so no merge ever holds more than fan-in + 1 files open,
/// regardless of how small the run budget is.
inline constexpr uint32_t kDefaultMergeFanin = 16;

/// External-memory budget for the shuffle phases. Default-constructed =
/// disabled (typed in-memory sinks, no record encoding).
struct MemoryBudgetOptions {
  /// Total bytes the intermediate shuffle state of one phase may hold in
  /// RAM before spilling, split evenly across that phase's shards and
  /// clamped to [kMinSpillRunBytes, kMaxSpillRunBytes] per shard.
  /// 0 = unbounded (in-memory).
  uint64_t shuffle_budget_bytes = 0;

  /// Directory for temp run files. Empty = the system temp directory.
  /// Each shuffle creates (and removes, on success and on error) its own
  /// uniquely named subdirectory underneath.
  std::string spill_dir;

  /// True when a budget is set: the shuffles take the spilling sink.
  bool enabled() const { return shuffle_budget_bytes > 0; }

  /// Run-buffer bytes for one of `num_shards` shard sinks.
  uint64_t RunBytesPerShard(uint32_t num_shards) const {
    return std::clamp(shuffle_budget_bytes / std::max<uint32_t>(1, num_shards),
                      kMinSpillRunBytes, kMaxSpillRunBytes);
  }
};

}  // namespace extmem
}  // namespace minoan

#endif  // MINOAN_EXTMEM_MEMORY_BUDGET_H_
