// Copyright 2026 The MinoanER Authors.
// Fixed-size worker pool behind the sharded blocking, cleaning, pruning, and
// progressive phases.

#ifndef MINOAN_UTIL_THREAD_POOL_H_
#define MINOAN_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace minoan {

/// Utilization snapshot of a pool (see ThreadPool::Stats). All values are
/// cumulative since construction; timing fields are only accumulated while
/// the metrics registry is enabled.
struct ThreadPoolStats {
  uint64_t tasks_executed = 0;
  /// Total time tasks sat queued before a worker picked them up.
  uint64_t queue_wait_micros = 0;
  /// Time each worker spent running task bodies, indexed by worker.
  std::vector<uint64_t> worker_busy_micros;

  uint64_t TotalBusyMicros() const {
    uint64_t total = 0;
    for (uint64_t micros : worker_busy_micros) total += micros;
    return total;
  }
};

/// A minimal fixed-size thread pool. Tasks are void() callables. An
/// exception escaping a task is captured (first one wins; later ones are
/// dropped) and rethrown from the next Wait()/ParallelFor on the submitting
/// thread; the worker itself survives and keeps serving tasks.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution on some worker.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception any of them raised (if one did).
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Scratch slot of the calling thread: worker i of whichever pool owns
  /// the thread maps to slot i + 1, any non-worker thread (e.g. the
  /// submitting thread running chunks inline) to slot 0. The index a
  /// WorkerScratch sized for this pool is addressed by.
  static size_t CurrentWorkerSlot();

  /// Runs `fn(i)` for i in [0, n) across the pool and waits for completion.
  /// Work is dealt in contiguous chunks to limit scheduling overhead.
  /// Rethrows the first exception thrown by any iteration (remaining chunks
  /// still run to completion before the rethrow).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Utilization so far. Safe to call concurrently with running work; a
  /// snapshot taken while tasks run may miss in-flight increments.
  ThreadPoolStats Stats() const;

 private:
  struct QueuedTask {
    std::function<void()> fn;
    uint64_t enqueued_us = 0;  // 0 when timing was off at enqueue
  };
  struct alignas(64) BusyCell {
    std::atomic<uint64_t> micros{0};
  };

  void WorkerLoop(size_t worker_index);

  std::vector<std::thread> workers_;
  std::deque<QueuedTask> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // signals workers
  std::condition_variable idle_cv_;   // signals Wait()
  size_t in_flight_ = 0;
  bool stop_ = false;
  std::exception_ptr first_exception_;  // set by workers, drained by Wait()

  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> queue_wait_micros_{0};
  std::unique_ptr<BusyCell[]> worker_busy_;  // one padded cell per worker
};

/// Reusable per-worker scratch arenas for chunk dispatch: one T per worker
/// of the pool it is sized for, plus slot 0 for the submitting thread (the
/// inline path when no pool is given). Local() hands each thread its own
/// arena, so per-chunk buffers are allocated once per phase instead of once
/// per chunk.
///
/// Contract: call Local() only from chunks dispatched on the pool this
/// scratch was constructed for (or inline when constructed with nullptr);
/// no synchronization is needed because each slot is owned by exactly one
/// thread for the duration of the phase.
template <typename T>
class WorkerScratch {
 public:
  explicit WorkerScratch(const ThreadPool* pool)
      : slots_(pool == nullptr ? 1 : pool->num_threads() + 1) {}

  /// The calling thread's private arena.
  T& Local() {
    const size_t slot = ThreadPool::CurrentWorkerSlot();
    return slots_[slot < slots_.size() ? slot : 0];
  }

  size_t num_slots() const { return slots_.size(); }

 private:
  std::vector<T> slots_;
};

/// Upper bound on every thread-count knob (workflow, online, server).
inline constexpr uint32_t kMaxThreads = 1024;

/// Resolves the "0 = hardware concurrency" convention shared by every
/// num_threads knob (workflow, online, server).
inline uint32_t ResolveThreadCount(uint32_t num_threads) {
  return num_threads == 0 ? std::max(1u, std::thread::hardware_concurrency())
                          : num_threads;
}

/// Runs fn(i) for i in [0, count) — on the pool when given, inline
/// otherwise. The shared dispatch of every sharded phase (blocking postings,
/// graph-view construction, pruning): each i is a fixed unit of work (an
/// entity chunk, a block chunk, a vote shard), so results never depend on
/// which thread ran it.
template <typename Fn>
void RunPoolTasks(ThreadPool* pool, size_t count, const Fn& fn) {
  if (pool != nullptr && count > 1) {
    pool->ParallelFor(count, fn);
    return;
  }
  for (size_t i = 0; i < count; ++i) fn(i);
}

/// Number of fixed-size chunks covering [0, total). One definition of the
/// boundary math shared by every chunked phase — sizing per-chunk result
/// buffers and dealing the work must agree exactly.
inline size_t NumChunks(size_t total, size_t chunk_size) {
  return (total + chunk_size - 1) / chunk_size;
}

/// Deals [0, total) into fixed-size chunks and runs fn(chunk, begin, end)
/// for each, via RunPoolTasks. Chunk boundaries depend only on
/// (total, chunk_size) — never on the worker count — which is what makes
/// chunk-ordered merges deterministic.
template <typename Fn>
void RunChunkedTasks(ThreadPool* pool, size_t total, size_t chunk_size,
                     const Fn& fn) {
  RunPoolTasks(pool, NumChunks(total, chunk_size), [&](size_t c) {
    const size_t begin = c * chunk_size;
    const size_t end = std::min(total, begin + chunk_size);
    fn(c, begin, end);
  });
}

/// Flattens per-task result vectors in task order, draining `parts` — the
/// merge step of every chunked phase: partial results are produced per
/// chunk (or shard) and must be concatenated in fixed task order to stay
/// deterministic.
template <typename T>
std::vector<T> FlattenInOrder(std::vector<std::vector<T>>& parts) {
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<T> out;
  out.reserve(total);
  for (auto& p : parts) {
    out.insert(out.end(), std::make_move_iterator(p.begin()),
               std::make_move_iterator(p.end()));
    p.clear();
  }
  return out;
}

}  // namespace minoan

#endif  // MINOAN_UTIL_THREAD_POOL_H_
