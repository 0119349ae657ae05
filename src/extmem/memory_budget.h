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

/// Default cap on the k-way merge fan-in of one shard sink (see
/// MemoryBudgetOptions::max_merge_fanin).
inline constexpr uint32_t kDefaultMergeFanin = 16;

/// External-memory budget for the shuffle phases. Default-constructed =
/// disabled (typed in-memory sinks, no record encoding).
struct MemoryBudgetOptions {
  /// Total bytes the intermediate shuffle state of one phase may hold in
  /// RAM before spilling, split evenly across that phase's shards.
  /// 0 = unbounded (in-memory) unless spill_run_bytes is set.
  uint64_t shuffle_budget_bytes = 0;

  /// Explicit per-shard run-buffer size in bytes; overrides the
  /// budget-derived split when non-zero. Mostly a testing/tuning knob.
  uint64_t spill_run_bytes = 0;

  /// Directory for temp run files. Empty = the system temp directory.
  /// Each shuffle creates (and removes, on success and on error) its own
  /// uniquely named subdirectory underneath.
  std::string spill_dir;

  /// Cap on how many run files one shard sink merges at once. When a sink
  /// has spilled more runs than this, consecutive runs are cascade-merged
  /// into a next generation of (at most fan-in) larger runs until the final
  /// merge fits — so no merge ever holds more than fan-in + 1 files open,
  /// regardless of how tiny the run budget is. 0 = kDefaultMergeFanin; the
  /// effective minimum is 2.
  uint32_t max_merge_fanin = 0;

  /// True when any budget is set: the shuffles take the spilling sink.
  bool enabled() const {
    return shuffle_budget_bytes > 0 || spill_run_bytes > 0;
  }

  /// Run-buffer bytes for one of `num_shards` shard sinks.
  uint64_t RunBytesPerShard(uint32_t num_shards) const {
    const uint64_t raw = spill_run_bytes > 0
                             ? spill_run_bytes
                             : shuffle_budget_bytes /
                                   std::max<uint32_t>(1, num_shards);
    return std::clamp(raw, kMinSpillRunBytes, kMaxSpillRunBytes);
  }

  /// Effective cascaded-merge fan-in (>= 2).
  uint32_t MergeFanin() const {
    return std::max<uint32_t>(
        2, max_merge_fanin == 0 ? kDefaultMergeFanin : max_merge_fanin);
  }
};

}  // namespace extmem
}  // namespace minoan

#endif  // MINOAN_EXTMEM_MEMORY_BUDGET_H_
