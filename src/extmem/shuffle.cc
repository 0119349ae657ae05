#include "extmem/shuffle.h"

#include <algorithm>
#include <filesystem>
#include <limits>

#include "extmem/run_codec.h"
#include "extmem/run_merger.h"
#include "obs/metrics.h"

namespace minoan {
namespace extmem {

namespace {

// Spill telemetry lives in the metrics registry (spill.* namespace), so it
// shows up in --metrics-out stats alongside everything else. Tests and
// benches still reach it through the Get/ResetSpillTelemetry shim below,
// which now resets exactly these metrics instead of bespoke globals.
struct SpillMetrics {
  obs::Counter& runs =
      obs::MetricsRegistry::Default().counter("spill.runs");
  obs::Counter& bytes =
      obs::MetricsRegistry::Default().counter("spill.bytes");
  obs::Counter& sinks_spilled =
      obs::MetricsRegistry::Default().counter("spill.sinks_spilled");
  obs::Counter& sinks_loaded =
      obs::MetricsRegistry::Default().counter("spill.sinks_loaded");
  obs::Counter& cascade_merges =
      obs::MetricsRegistry::Default().counter("spill.cascade_merges");
  // Runs spilled per finished loaded sink; the exact histogram min is the
  // "every shard really spilled k runs" probe of the determinism tests.
  obs::Histogram& runs_per_sink =
      obs::MetricsRegistry::Default().histogram("spill.runs_per_sink");
};

SpillMetrics& Metrics() {
  static SpillMetrics* metrics = new SpillMetrics();
  return *metrics;
}

/// Source over one sorted in-memory record buffer (the never-spilled fast
/// case, and the final partial run of a spilled sink).
class BufferSource : public ShuffleSource {
 public:
  BufferSource(std::string buffer, std::vector<uint32_t> order)
      : buffer_(std::move(buffer)), order_(std::move(order)) {}

  bool Next(std::string_view& record) override {
    if (next_ >= order_.size()) return false;
    const std::string_view framed =
        std::string_view(buffer_).substr(order_[next_]);
    record = framed.substr(4, ReadU32Le(framed));
    ++next_;
    return true;
  }

 private:
  std::string buffer_;
  std::vector<uint32_t> order_;
  size_t next_ = 0;
};

/// Source over one compressed spilled run file.
class FileSource : public ShuffleSource {
 public:
  explicit FileSource(const std::string& path) : reader_(path) {}
  bool Next(std::string_view& record) override {
    return reader_.Next(record);
  }

 private:
  CompressedRunReader reader_;
};

}  // namespace

SpillTelemetry GetSpillTelemetry() {
  SpillMetrics& metrics = Metrics();
  SpillTelemetry t;
  t.runs_spilled = metrics.runs.Value();
  t.bytes_spilled = metrics.bytes.Value();
  t.sinks_spilled = metrics.sinks_spilled.Value();
  t.sinks_loaded = metrics.sinks_loaded.Value();
  t.cascade_merges = metrics.cascade_merges.Value();
  // Histogram min over finished sinks; its empty-state sentinel is the same
  // UINT64_MAX the probe API always used.
  t.min_runs_per_loaded_sink = metrics.runs_per_sink.Snapshot().min;
  return t;
}

void ResetSpillTelemetry() {
  SpillMetrics& metrics = Metrics();
  metrics.runs.Reset();
  metrics.bytes.Reset();
  metrics.sinks_spilled.Reset();
  metrics.sinks_loaded.Reset();
  metrics.cascade_merges.Reset();
  metrics.runs_per_sink.Reset();
}

SpillShuffle::SpillShuffle(uint64_t run_bytes, ScopedSpillDir* dir,
                           uint32_t merge_fanin)
    : run_bytes_(run_bytes),
      dir_(dir),
      merge_fanin_(std::max<uint32_t>(2, merge_fanin)) {}

SpillShuffle::~SpillShuffle() = default;

void SpillShuffle::Add(std::string_view record) {
  // Record offsets are 32-bit (half the index memory of size_t). The
  // budgeted path can never get here — kMaxSpillRunBytes caps runs at
  // 1 GiB — so this only trips a never-spill (run_bytes == 0) sink fed
  // past 4 GiB, which must fail loudly instead of wrapping offsets into
  // silent corruption.
  if (buffer_.size() + record.size() >
      std::numeric_limits<uint32_t>::max() - 8) {
    throw SpillError(
        "spill: in-memory sink exceeded 4 GiB; set a memory budget so the "
        "shuffle spills");
  }
  offsets_.push_back(static_cast<uint32_t>(buffer_.size()));
  AppendFramed(buffer_, record);
  ++records_;
  if (run_bytes_ > 0 && buffer_.size() >= run_bytes_) SpillRun();
}

void SpillShuffle::SortBuffer() {
  order_.assign(offsets_.begin(), offsets_.end());
  const std::string_view buffer = buffer_;
  // Stable: equal keys keep arrival order within the run.
  std::stable_sort(order_.begin(), order_.end(),
                   [buffer](uint32_t a, uint32_t b) {
                     const std::string_view ra = buffer.substr(a);
                     const std::string_view rb = buffer.substr(b);
                     return RecordKey(ra.substr(4, ReadU32Le(ra)))
                                .compare(RecordKey(
                                    rb.substr(4, ReadU32Le(rb)))) < 0;
                   });
}

void SpillShuffle::SpillRun() {
  if (offsets_.empty()) return;
  SortBuffer();
  std::string path = dir_->NextRunPath();
  CompressedRunWriter writer(path);
  const std::string_view buffer = buffer_;
  for (const uint32_t off : order_) {
    const std::string_view framed = buffer.substr(off);
    writer.Append(framed.substr(4, ReadU32Le(framed)));
  }
  Metrics().bytes.Add(writer.Close());
  Metrics().runs.Increment();
  run_paths_.push_back(std::move(path));
  buffer_.clear();
  offsets_.clear();
  order_.clear();
  ++runs_spilled_;
}

std::string SpillShuffle::MergeRunGroup(size_t begin, size_t end) {
  std::vector<std::unique_ptr<ShuffleSource>> group;
  group.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    group.push_back(std::make_unique<FileSource>(run_paths_[i]));
  }
  RunMerger merger(std::move(group));
  std::string out_path = dir_->NextRunPath();
  try {
    CompressedRunWriter writer(out_path);
    std::string_view record;
    while (merger.Next(record)) writer.Append(record);
    writer.Close();
  } catch (...) {
    // Never leave a partially written merge generation behind: the group's
    // input runs are still tracked in run_paths_ (and removed with the
    // dir), this output is not — remove it here so cleanup covers
    // intermediate generations even when the dir object is long-lived or
    // the base directory is user-provided.
    std::error_code ec;
    std::filesystem::remove(out_path, ec);
    throw;
  }
  Metrics().cascade_merges.Increment();
  for (size_t i = begin; i < end; ++i) {
    std::error_code ec;
    std::filesystem::remove(run_paths_[i], ec);
  }
  return out_path;
}

void SpillShuffle::CascadeMergeRuns() {
  // Merge CONSECUTIVE runs and splice the output into the group's position:
  // all records of merged run i arrived before all records of merged run
  // i+1, so run index keeps meaning arrival order and the final merge's
  // tie-break is untouched.
  while (run_paths_.size() > merge_fanin_) {
    std::vector<std::string> next;
    next.reserve((run_paths_.size() + merge_fanin_ - 1) / merge_fanin_);
    for (size_t g = 0; g < run_paths_.size(); g += merge_fanin_) {
      const size_t end = std::min(run_paths_.size(), g + merge_fanin_);
      if (end - g == 1) {
        next.push_back(std::move(run_paths_[g]));
      } else {
        next.push_back(MergeRunGroup(g, end));
      }
    }
    run_paths_ = std::move(next);
  }
}

std::unique_ptr<ShuffleSource> SpillShuffle::Finish() {
  if (records_ > 0) {
    Metrics().sinks_loaded.Increment();
    Metrics().runs_per_sink.Record(runs_spilled_);
    if (runs_spilled_ > 0) {
      Metrics().sinks_spilled.Increment();
    }
  }
  CascadeMergeRuns();
  SortBuffer();
  auto tail = std::make_unique<BufferSource>(std::move(buffer_),
                                             std::move(order_));
  buffer_.clear();
  offsets_.clear();
  order_.clear();
  if (run_paths_.empty()) return tail;
  // Runs in spill order, the in-memory tail last: run index == arrival
  // order, which is what makes the merge a stable sort.
  std::vector<std::unique_ptr<ShuffleSource>> runs;
  runs.reserve(run_paths_.size() + 1);
  for (const std::string& path : run_paths_) {
    runs.push_back(std::make_unique<FileSource>(path));
  }
  runs.push_back(std::move(tail));
  return std::make_unique<RunMerger>(std::move(runs));
}

}  // namespace extmem
}  // namespace minoan
