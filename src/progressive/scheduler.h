// Copyright 2026 The MinoanER Authors.
// The comparison scheduler: one sorted run of primed candidates, merged with
// a small lazy max-heap of later pushes.
//
// The poster's scheduling phase "selects which pairs of descriptions … will
// be compared in the entity matching phase and in what order". Almost every
// candidate is known before the first comparison and priced against the
// pristine state, and under a comparison budget most of them are never
// popped. So the primed candidates form one immutable run, sorted once by
// (priority desc, pair asc) and read through a cursor.
//
// Priorities change as matches land (benefit drift, new neighbor evidence).
// Later pushes (update-phase pushes, staleness re-queues) go to a max-heap
// with version-stamped lazy invalidation: a heap entry whose version no
// longer matches the pair's current version is discarded at pop time. A
// later Push or Erase of a pair also marks it superseded, and the cursor
// skips its run entry, so the newest push wins across both parts. Pop
// merges the two heads under the same order; pop order is therefore a pure
// function of the live (priority, pair) set. No decrease-key, O(log h) per
// heap operation for a heap of h later pushes.

#ifndef MINOAN_PROGRESSIVE_SCHEDULER_H_
#define MINOAN_PROGRESSIVE_SCHEDULER_H_

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "util/flat_table.h"
#include "util/hash.h"

namespace minoan {

/// Sorted run + lazy max-heap of (priority, pair-key).
class ComparisonScheduler {
 public:
  /// One scheduled pair.
  struct Entry {
    double priority;
    uint64_t pair;
  };

  /// Schedule order: higher priority first, smaller pair first on ties.
  static bool Ahead(const Entry& x, const Entry& y) {
    if (x.priority != y.priority) return x.priority > y.priority;
    return x.pair < y.pair;
  }

  /// Where the pops came from, cumulative since construction or the last
  /// RestoreFrom.
  struct PopCounts {
    uint64_t run_pops = 0;
    uint64_t heap_pops = 0;
    /// Run entries the cursor skipped because a later Push or Erase
    /// superseded them.
    uint64_t superseded_skips = 0;
  };

  /// Installs `entries` as the run of an empty scheduler. They are sorted
  /// unless already in schedule order. A pair listed more than once must
  /// carry the same priority each time: the copies collapse into one live
  /// entry, while total_pushes counts every input.
  void Prime(std::vector<Entry> entries);

  /// Inserts or re-prioritizes `pair`. The newest push wins; older entries
  /// for the same pair, in the run or the heap, become stale.
  void Push(uint64_t pair, double priority);

  /// Pops the highest-priority live pair. Returns false when empty.
  bool Pop(uint64_t& pair, double& priority);

  /// Current (live) priority of `pair`, or -1 when absent. A pair held only
  /// by the run costs a scan of the unconsumed run (introspection only).
  double PriorityOf(uint64_t pair) const;

  /// Number of live pairs, not raw entries. O(unconsumed run).
  size_t live_size() const;
  bool empty() const;

  /// Total pushes, primed candidates included, for accounting the
  /// scheduling overhead.
  uint64_t total_pushes() const { return total_pushes_; }

  /// Removes a pair from the live set (e.g. once executed); its run or heap
  /// entries die lazily.
  void Erase(uint64_t pair);

  /// Live (pair, priority) entries in canonical (ascending pair) order —
  /// the checkpointable essence of the schedule. Pop order depends only on
  /// (priority, pair), so a scheduler rebuilt from this list pops the exact
  /// same sequence as the original.
  std::vector<std::pair<uint64_t, double>> LiveEntries() const;

  /// Resets to exactly `entries` live pairs (one run of them) and restores
  /// the push counter, completing a checkpoint round trip.
  void RestoreFrom(const std::vector<std::pair<uint64_t, double>>& entries,
                   uint64_t total_pushes);

  const PopCounts& pop_counts() const { return pop_counts_; }

 private:
  struct HeapEntry {
    Entry entry;
    uint64_t version;
    bool operator<(const HeapEntry& o) const {
      // std::priority_queue is a max-heap on operator<.
      return Ahead(o.entry, entry);
    }
  };

  struct Live {
    uint64_t version;
    double priority;
  };

  bool RunPending() const { return cursor_ < run_.size(); }
  /// Whether the unconsumed run entry `e` is still live.
  bool RunLive(const Entry& e) const { return !superseded_.Contains(e.pair); }
  /// Marks `pair`'s run entry, if one is still unconsumed, as dead.
  void Supersede(uint64_t pair) {
    if (RunPending()) superseded_.Insert(pair);
  }

  /// Primed candidates in schedule order; entries before the cursor were
  /// popped or skipped. Freed once the cursor reaches the end.
  std::vector<Entry> run_;
  size_t cursor_ = 0;
  /// Pairs pushed or erased while the run still had entries: their run
  /// entries are dead. Small: at most the pairs pushed after priming.
  FlatPairSet superseded_;

  std::priority_queue<HeapEntry> heap_;
  /// Live heap pairs in a flat open-addressing table: the per-pop staleness
  /// check is one cache-line probe instead of a node chase. Iteration
  /// order is hidden behind the sorted LiveEntries() export.
  FlatPairMap<Live> versions_;
  uint64_t next_version_ = 0;
  uint64_t total_pushes_ = 0;
  PopCounts pop_counts_;
};

}  // namespace minoan

#endif  // MINOAN_PROGRESSIVE_SCHEDULER_H_
