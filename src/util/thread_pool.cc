#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "obs/metrics.h"

namespace minoan {

namespace {

/// Scratch slot of the current thread: 0 for non-workers, i + 1 for worker
/// i of whichever pool owns the thread (see ThreadPool::CurrentWorkerSlot).
thread_local size_t tls_worker_slot = 0;

// Timing is metered only while the registry is enabled, so the pool costs
// zero clock reads when observability is switched off. Timestamps are
// steady-clock micros; 0 doubles as the "timing was off" sentinel.
bool MeteringEnabled() {
  return obs::MetricsRegistry::Default().enabled();
}

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  worker_busy_ = std::make_unique<BusyCell[]>(num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

size_t ThreadPool::CurrentWorkerSlot() { return tls_worker_slot; }

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
  // A pending exception nobody collected dies with the pool; destructors
  // must not throw.
}

void ThreadPool::Submit(std::function<void()> task) {
  const uint64_t enqueued_us = MeteringEnabled() ? NowMicros() : 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(QueuedTask{std::move(task), enqueued_us});
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::exception_ptr pending;
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
    pending = std::exchange(first_exception_, nullptr);
  }
  if (pending) std::rethrow_exception(pending);
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  tls_worker_slot = worker_index + 1;
  // Guarantees the in_flight_ decrement on every path out of a task,
  // including exceptional ones — otherwise Wait() deadlocks forever.
  struct TaskGuard {
    ThreadPool* pool;
    ~TaskGuard() {
      std::unique_lock<std::mutex> lock(pool->mu_);
      if (--pool->in_flight_ == 0) pool->idle_cv_.notify_all();
    }
  };
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t start_us =
        task.enqueued_us != 0 && MeteringEnabled() ? NowMicros() : 0;
    if (start_us != 0) {
      queue_wait_micros_.fetch_add(start_us - std::min(start_us,
                                                       task.enqueued_us),
                                   std::memory_order_relaxed);
    }
    {
      TaskGuard guard{this};
      try {
        task.fn();
      } catch (...) {
        std::unique_lock<std::mutex> lock(mu_);
        if (!first_exception_) first_exception_ = std::current_exception();
      }
    }
    if (start_us != 0) {
      worker_busy_[worker_index].micros.fetch_add(NowMicros() - start_us,
                                                  std::memory_order_relaxed);
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t chunks = std::min(n, num_threads() * 4);
  const size_t chunk_size = (n + chunks - 1) / chunks;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = c * chunk_size;
    const size_t end = std::min(n, begin + chunk_size);
    if (begin >= end) break;
    Submit([begin, end, &fn] {
      for (size_t i = begin; i < end; ++i) fn(i);
    });
  }
  Wait();
}

ThreadPoolStats ThreadPool::Stats() const {
  ThreadPoolStats stats;
  stats.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  stats.queue_wait_micros =
      queue_wait_micros_.load(std::memory_order_relaxed);
  stats.worker_busy_micros.reserve(workers_.size());
  for (size_t i = 0; i < workers_.size(); ++i) {
    stats.worker_busy_micros.push_back(
        worker_busy_[i].micros.load(std::memory_order_relaxed));
  }
  return stats;
}

}  // namespace minoan
