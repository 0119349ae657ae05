#include "progressive/scheduler.h"

#include <algorithm>

namespace minoan {

void ComparisonScheduler::Prime(std::vector<Entry> entries) {
  total_pushes_ += entries.size();
  if (!std::is_sorted(entries.begin(), entries.end(), Ahead)) {
    std::sort(entries.begin(), entries.end(), Ahead);
  }
  // Copies of one pair share a priority, so sorting made them adjacent.
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const Entry& x, const Entry& y) {
                              return x.pair == y.pair;
                            }),
                entries.end());
  run_ = std::move(entries);
  cursor_ = 0;
}

void ComparisonScheduler::Push(uint64_t pair, double priority) {
  Supersede(pair);
  const uint64_t version = ++next_version_;
  versions_.InsertOrAssign(pair, Live{version, priority});
  heap_.push(HeapEntry{Entry{priority, pair}, version});
  ++total_pushes_;
}

void ComparisonScheduler::Erase(uint64_t pair) {
  Supersede(pair);
  versions_.Erase(pair);
}

bool ComparisonScheduler::Pop(uint64_t& pair, double& priority) {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.top();
    const Live* live = versions_.Find(top.entry.pair);
    if (live != nullptr && live->version == top.version) break;
    heap_.pop();  // stale entry
  }
  while (RunPending() && !RunLive(run_[cursor_])) {
    ++cursor_;
    ++pop_counts_.superseded_skips;
  }
  Entry popped;
  if (RunPending() &&
      (heap_.empty() || Ahead(run_[cursor_], heap_.top().entry))) {
    popped = run_[cursor_++];
    ++pop_counts_.run_pops;
  } else if (!heap_.empty()) {
    popped = heap_.top().entry;
    heap_.pop();
    versions_.Erase(popped.pair);
    ++pop_counts_.heap_pops;
  } else {
    return false;
  }
  if (!run_.empty() && !RunPending()) {
    // The run is spent: no entry is left to supersede.
    run_ = {};
    cursor_ = 0;
    superseded_ = {};
  }
  pair = popped.pair;
  priority = popped.priority;
  return true;
}

size_t ComparisonScheduler::live_size() const {
  return versions_.size() +
         std::count_if(run_.begin() + cursor_, run_.end(),
                       [this](const Entry& e) { return RunLive(e); });
}

bool ComparisonScheduler::empty() const {
  return versions_.empty() &&
         std::none_of(run_.begin() + cursor_, run_.end(),
                      [this](const Entry& e) { return RunLive(e); });
}

std::vector<std::pair<uint64_t, double>> ComparisonScheduler::LiveEntries()
    const {
  std::vector<std::pair<uint64_t, double>> entries;
  entries.reserve(live_size());
  versions_.ForEach([&entries](uint64_t pair, const Live& live) {
    entries.emplace_back(pair, live.priority);
  });
  for (size_t i = cursor_; i < run_.size(); ++i) {
    if (RunLive(run_[i])) entries.emplace_back(run_[i].pair, run_[i].priority);
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

void ComparisonScheduler::RestoreFrom(
    const std::vector<std::pair<uint64_t, double>>& entries,
    uint64_t total_pushes) {
  std::vector<Entry> run;
  run.reserve(entries.size());
  for (const auto& [pair, priority] : entries) run.push_back({priority, pair});
  *this = ComparisonScheduler();
  Prime(std::move(run));
  total_pushes_ = total_pushes;
}

double ComparisonScheduler::PriorityOf(uint64_t pair) const {
  if (const Live* live = versions_.Find(pair)) return live->priority;
  if (superseded_.Contains(pair)) return -1.0;
  const auto it = std::find_if(run_.begin() + cursor_, run_.end(),
                               [pair](const Entry& e) { return e.pair == pair; });
  return it == run_.end() ? -1.0 : it->priority;
}

}  // namespace minoan
