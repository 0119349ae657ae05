// Copyright 2026 The MinoanER Authors.
// e2e_harness: one process, one end-to-end resolution run.
//
// run.py drives this binary; each invocation is a fresh process so that the
// peak RSS it reports belongs to that run alone. Modes:
//
//   e2e_harness gen --out DIR --cloud-seed S --order-seed O --entities N
//                   --kbs K --center C
//       Generates a synthetic LOD cloud from S, shuffles each KB's
//       descriptions with O, and writes the .nt files plus
//       ground_truth.tsv into DIR (outside every metric).
//
//   e2e_harness run --corpus DIR [--threads T] [--budget B]
//                   [--memory-budget BYTES --spill-dir D] [--slice N]
//                   [--trace] [--setup-only]
//       Runs the pipeline exactly as `minoan resolve DIR` does, through
//       public entry points only: server::LoadCorpus("dir:DIR"),
//       ResolutionSession::Open with a MatchObserver, Step until
//       finished(), Report(). --slice N steps N comparisons at a time
//       (0 = one-shot). --trace samples clock, CPU, faults and RSS at every
//       layer boundary and emits the spans plus the raw layer counters;
//       afterwards it times a parse-only rdf::LoadTriples pass over the
//       same files. --setup-only stops once Open returns.
//
//   e2e_harness probe
//       Prints the machine stamp: nproc, a measured effective-parallelism
//       probe, the single-thread time of that probe (a host-speed reading),
//       compiler and build type.
//
// Every mode prints exactly one JSON object on stdout. A failed load, Open
// or scoring step prints {"ok":false,"error":...} and exits with code 3.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/session.h"
#include "datagen/lod_generator.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "eval/progressive_metrics.h"
#include "obs/metrics.h"
#include "rdf/turtle.h"
#include "server/session_manager.h"

#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif
#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace minoan {
namespace {

using Clock = std::chrono::steady_clock;

// ---- Flags -----------------------------------------------------------------

struct Args {
  std::string mode;
  std::map<std::string, std::string> values;

  bool Has(const std::string& key) const { return values.count(key) != 0; }
  std::string Get(const std::string& key, const std::string& def = "") const {
    auto it = values.find(key);
    return it == values.end() ? def : it->second;
  }
  uint64_t GetInt(const std::string& key, uint64_t def = 0) const {
    auto it = values.find(key);
    return it == values.end() ? def : std::strtoull(it->second.c_str(),
                                                    nullptr, 10);
  }
};

/// --key value pairs; a --key followed by another --key (or nothing) is a
/// boolean flag.
Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc > 1) args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.values[key] = argv[++i];
    } else {
      args.values[key] = "1";
    }
  }
  return args;
}

// ---- JSON output -----------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Num(uint64_t v) { return std::to_string(v); }

/// Builds one flat JSON object field by field.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + Quote(key) + ":" + json;
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  JsonObject& Dbl(const std::string& key, double v) { return Raw(key, Num(v)); }
  JsonObject& Int(const std::string& key, uint64_t v) {
    return Raw(key, Num(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

int Fail(const std::string& what) {
  std::printf("%s\n",
              JsonObject().Bool("ok", false).Str("error", what).str().c_str());
  return 3;
}

// ---- Boundary samples -------------------------------------------------------

/// One observation of the process at a layer boundary.
struct Sample {
  Clock::time_point at;
  double cpu_s = 0;      // user + sys CPU of the whole process
  uint64_t minflt = 0;   // minor page faults
  double rss_mb = 0;     // current resident set (/proc/self/statm)
  double maxrss_mb = 0;  // ru_maxrss so far
};

double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// `full` also reads the current RSS (a file read); the untraced run samples
/// only clock and rusage, at its three fixed points.
Sample TakeSample(bool full) {
  Sample s;
  s.at = Clock::now();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  s.minflt = static_cast<uint64_t>(ru.ru_minflt);
  s.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  if (full) s.rss_mb = CurrentRssMb();
  return s;
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Spans with parent links, kept in memory and written once at the end.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int Begin(const std::string& name, int parent, const Sample& at) {
    spans_.push_back({name, parent, at, at, false});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id, const Sample& at) {
    spans_[id].end = at;
    spans_[id].closed = true;
  }
  /// Closes `id` and opens its successor `next` under the same parent with
  /// the same boundary sample, so adjacent layers tile the timeline.
  int Handoff(int id, const std::string& next, const Sample& at) {
    End(id, at);
    return Begin(next, spans_[id].parent, at);
  }

  std::string Json() const {
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",";
      out += JsonObject()
                 .Int("id", i)
                 .Str("name", s.name)
                 .Raw("parent", std::to_string(s.parent))
                 .Bool("closed", s.closed)
                 .Dbl("start_s", Seconds(origin_, s.begin.at))
                 .Dbl("end_s", Seconds(origin_, s.end.at))
                 .Dbl("cpu_s", s.end.cpu_s - s.begin.cpu_s)
                 .Int("minflt", s.end.minflt - s.begin.minflt)
                 .Dbl("rss_start_mb", s.begin.rss_mb)
                 .Dbl("rss_end_mb", s.end.rss_mb)
                 .Dbl("maxrss_end_mb", s.end.maxrss_mb)
                 .str();
    }
    return out + "]";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    Sample begin;
    Sample end;
    bool closed;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---- Observer ---------------------------------------------------------------

/// Timestamps every confirmed match into a pre-reserved vector; in traced
/// runs it also turns the four static-phase callbacks into span handoffs.
class BenchObserver : public MatchObserver {
 public:
  BenchObserver(SpanLog* spans, int* current, bool full_samples)
      : spans_(spans), current_(current), full_samples_(full_samples) {
    match_times_.reserve(1u << 18);
  }

  void OnPhase(const PhaseStats& phase) override {
    phase_names_.push_back(phase.name);
    if (spans_ == nullptr) return;
    static const char* const kNext[] = {"blocking.clean", "metablocking.prune",
                                        "matching.setup", "progressive.prime"};
    const size_t i = phase_names_.size() - 1;
    if (i < 4) {
      *current_ = spans_->Handoff(*current_, kNext[i],
                                  TakeSample(full_samples_));
    }
  }

  void OnMatch(const MatchEvent& event) override {
    (void)event;
    match_times_.push_back(Clock::now());
  }

  const std::vector<Clock::time_point>& match_times() const {
    return match_times_;
  }
  const std::vector<std::string>& phase_names() const { return phase_names_; }

 private:
  SpanLog* spans_;
  int* current_;
  bool full_samples_;
  std::vector<Clock::time_point> match_times_;
  std::vector<std::string> phase_names_;
};

// ---- Helpers ----------------------------------------------------------------

/// FNV-1a over the match sequence (pairs and their comparison stamps, in
/// discovery order) and the executed-comparison total.
std::string MatchDigest(const ResolutionRun& run) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(run.comparisons_executed);
  mix(run.matches.size());
  for (const MatchEvent& m : run.matches) {
    mix(m.a);
    mix(m.b);
    mix(m.comparisons_done);
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

/// The corpus files LoadCorpus("dir:...") reads, in its order.
std::vector<std::string> CorpusFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".nt" || ext == ".ttl" || ext == ".turtle") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

uint64_t CounterDelta(const obs::StatsSnapshot& before,
                      const obs::StatsSnapshot& after, const char* name) {
  return after.CounterValue(name) - before.CounterValue(name);
}

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Reorders each KB's descriptions (all triples of one subject stay
/// together, in their generated order) by a Fisher-Yates shuffle seeded
/// with `order_seed`. The RDF graph is unchanged; what changes is the
/// serialization order, hence entity ids, hash-table layouts and
/// tie-breaks downstream.
void ShuffleDescriptions(datagen::LodCloud& cloud, uint64_t order_seed) {
  for (size_t k = 0; k < cloud.kbs.size(); ++k) {
    std::vector<rdf::Triple>& triples = cloud.kbs[k].triples;
    std::unordered_map<std::string, size_t> group_of;
    std::vector<std::vector<rdf::Triple>> groups;
    for (rdf::Triple& t : triples) {
      auto [it, added] = group_of.try_emplace(t.subject.lexical, groups.size());
      if (added) groups.emplace_back();
      groups[it->second].push_back(std::move(t));
    }
    uint64_t state = order_seed ^ (0x5bd1e995ull * (k + 1));
    for (size_t i = groups.size(); i > 1; --i) {
      std::swap(groups[i - 1], groups[SplitMix64(state) % i]);
    }
    triples.clear();
    for (std::vector<rdf::Triple>& g : groups) {
      for (rdf::Triple& t : g) triples.push_back(std::move(t));
    }
  }
}

// ---- Modes ------------------------------------------------------------------

int CmdGen(const Args& args) {
  datagen::LodCloudConfig config;
  config.seed = args.GetInt("cloud-seed", config.seed);
  config.num_real_entities =
      static_cast<uint32_t>(args.GetInt("entities", 2000));
  config.num_kbs = static_cast<uint32_t>(args.GetInt("kbs", 6));
  config.center_kbs = static_cast<uint32_t>(args.GetInt("center", 2));
  const std::string out = args.Get("out");
  if (out.empty()) return Fail("gen requires --out DIR");
  auto cloud = datagen::GenerateLodCloud(config);
  if (!cloud.ok()) return Fail("generate: " + cloud.status().ToString());
  ShuffleDescriptions(*cloud, args.GetInt("order-seed", 0));
  if (Status st = cloud->WriteTo(out); !st.ok()) {
    return Fail("write corpus: " + st.ToString());
  }
  std::printf("%s\n", JsonObject()
                          .Bool("ok", true)
                          .Int("triples", cloud->total_triples())
                          .Int("truth_pairs", cloud->truth.size())
                          .str()
                          .c_str());
  return 0;
}

int CmdRun(const Args& args) {
  const std::string corpus = args.Get("corpus");
  if (corpus.empty()) return Fail("run requires --corpus DIR");
  const bool traced = args.Has("trace");
  const bool setup_only = args.Has("setup-only");
  const uint64_t slice = args.GetInt("slice", 0);

  // WorkflowOptions as `minoan resolve` builds them by default: token+pis,
  // filter ratio 0.8, threshold 0.35, coverage benefit, no sameAs seeds.
  WorkflowOptions options;
  options.blocker = BlockerChoice::kTokenPlusPis;
  options.filter_ratio = 0.8;
  options.progressive.matcher.threshold = 0.35;
  options.progressive.benefit = BenefitModel::kEntityCoverage;
  options.use_same_as_seeds = false;
  options.progressive.matcher.budget = args.GetInt("budget", 0);
  options.num_threads = static_cast<uint32_t>(args.GetInt("threads", 1));
  options.memory.shuffle_budget_bytes = args.GetInt("memory-budget", 0);
  options.memory.spill_dir = args.Get("spill-dir");

  const obs::StatsSnapshot counters_before =
      obs::MetricsRegistry::Default().Snapshot();

  // ---- The measured run: load start .. Report() assembled ----------------
  const Sample start = TakeSample(traced);
  SpanLog spans(start.at);
  int root = -1;
  int current = -1;
  if (traced) {
    root = spans.Begin("run", -1, start);
    current = spans.Begin("kb.load", root, start);
  }
  BenchObserver observer(traced ? &spans : nullptr, &current, traced);

  auto collection = server::LoadCorpus("dir:" + corpus);
  if (!collection.ok()) return Fail("load: " + collection.status().ToString());
  if (traced) current = spans.Handoff(current, "blocking.build",
                                      TakeSample(true));

  auto session = ResolutionSession::Open(*collection, options, &observer);
  const Sample opened = TakeSample(traced);
  if (!session.ok()) return Fail("open: " + session.status().ToString());
  if (observer.phase_names().size() != 4) {
    return Fail("open: expected 4 static phases, observed " +
                std::to_string(observer.phase_names().size()));
  }
  if (traced) spans.End(current, opened);
  const double setup_s = Seconds(start.at, opened.at);

  if (setup_only) {
    std::printf(
        "%s\n",
        JsonObject().Bool("ok", true).Dbl("setup_s", setup_s).str().c_str());
    return 0;
  }

  // Scheduler pushes issued while priming; the loop's pushes are the rest.
  const uint64_t prime_pushes =
      traced ? session->Report().progressive.scheduler_pushes : 0;

  int step_span = -1;
  std::vector<double> slice_ms;
  if (traced) step_span = spans.Begin("progressive.step", root,
                                      TakeSample(true));
  while (!session->finished()) {
    if (traced) {
      const int s = spans.Begin("progressive.slice", step_span,
                                TakeSample(true));
      const StepResult step = session->Step(slice);
      const Sample end = TakeSample(true);
      spans.End(s, end);
      slice_ms.push_back(step.wall_millis);
    } else {
      session->Step(slice);
    }
  }
  const Sample stepped = traced ? TakeSample(true) : Sample{};
  if (traced) spans.End(step_span, stepped);
  const ResolutionReport report = session->Report();
  const Sample end = TakeSample(traced);
  if (traced) spans.End(root, end);
  // ---- end of the measured run --------------------------------------------

  const ResolutionRun& run = report.progressive.run;
  const std::vector<Clock::time_point>& match_times = observer.match_times();
  if (match_times.size() != run.matches.size()) {
    return Fail("observer saw " + std::to_string(match_times.size()) +
                " matches, report holds " + std::to_string(run.matches.size()));
  }
  double half_matches_s = 0;
  if (!run.matches.empty()) {
    const size_t half = (run.matches.size() + 1) / 2;  // ceil(n / 2)
    half_matches_s = Seconds(start.at, match_times[half - 1]);
  }

  auto truth = GroundTruth::FromTsv(corpus + "/ground_truth.tsv", *collection);
  if (!truth.ok()) return Fail("ground truth: " + truth.status().ToString());
  const MatchingMetrics quality = EvaluateMatches(run.matches, *truth);
  // The workload's comparison budget is the curve's horizon; an uncapped
  // run integrates over the comparisons it executed.
  const uint64_t horizon = options.progressive.matcher.budget != 0
                               ? options.progressive.matcher.budget
                               : run.comparisons_executed;
  const double recall_auc = ProgressiveRecallAuc(run, *truth, horizon);

  JsonObject out;
  out.Bool("ok", true)
      .Str("digest", MatchDigest(run))
      .Int("matches", run.matches.size())
      .Int("comparisons", run.comparisons_executed)
      .Int("descriptions", collection->num_entities())
      .Int("triples", collection->total_triples())
      .Dbl("wall_s", Seconds(start.at, end.at))
      .Dbl("setup_s", setup_s)
      .Dbl("half_matches_s", half_matches_s)
      .Dbl("cpu_s", end.cpu_s - start.cpu_s)
      .Dbl("peak_rss_mb", end.maxrss_mb)
      .Dbl("recall", quality.recall)
      .Dbl("precision", quality.precision)
      .Dbl("recall_auc", recall_auc);

  if (traced) {
    const obs::StatsSnapshot counters_after =
        obs::MetricsRegistry::Default().Snapshot();
    const obs::StatsReport stats = session->Stats();
    const ProgressiveResult& prog = report.progressive;
    uint64_t neighbor_edges = 0;
    for (const PhaseStats& phase : report.phases) {
      if (phase.name == observer.phase_names()[3]) {
        neighbor_edges = phase.output_cardinality;
      }
    }
    JsonObject counts;
    counts.Int("blocks", report.blocks_built)
        .Int("postings", CounterDelta(counters_before, counters_after,
                                      "blocking.postings"))
        .Int("kept_blocks", report.blocks_after_cleaning)
        .Int("block_comparisons", report.comparisons_before_meta)
        .Int("graph_edges", report.meta_stats.graph_edges)
        .Int("retained", report.comparisons_after_meta)
        .Int("neighbor_edges", neighbor_edges)
        .Int("update_matches", prog.discovered_matches)
        .Int("evidence_matches", prog.evidence_assisted_matches)
        .Int("prime_pushes", prime_pushes)
        .Int("total_pushes", prog.scheduler_pushes)
        .Int("spill_bytes",
             CounterDelta(counters_before, counters_after, "spill.bytes"))
        .Int("spill_runs",
             CounterDelta(counters_before, counters_after, "spill.runs"))
        .Int("sinks_spilled", CounterDelta(counters_before, counters_after,
                                           "spill.sinks_spilled"))
        .Int("cascade_merges", CounterDelta(counters_before, counters_after,
                                            "spill.cascade_merges"))
        .Int("pool_threads", stats.pool.worker_busy_micros.size())
        .Int("pool_busy_us", stats.pool.TotalBusyMicros())
        .Int("pool_wait_us", stats.pool.queue_wait_micros);
    std::string slices = "[";
    for (size_t i = 0; i < slice_ms.size(); ++i) {
      slices += (i > 0 ? "," : "") + Num(slice_ms[i]);
    }
    slices += "]";

    // Parse-only pass over the same files, after the run (outside wall_s).
    const Sample parse_start = TakeSample(true);
    const int parse = spans.Begin("rdf.parse", -1, parse_start);
    for (const std::string& file : CorpusFiles(corpus)) {
      auto triples = rdf::LoadTriples(file);
      if (!triples.ok()) return Fail("parse: " + triples.status().ToString());
    }
    spans.End(parse, TakeSample(true));

    out.Raw("counts", counts.str())
        .Raw("slice_ms", slices)
        .Raw("spans", spans.Json());
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

/// Spins a fixed integer workload; the result defeats dead-code elimination.
uint64_t Spin(uint64_t iterations) {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

int CmdProbe() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                        ? CPU_COUNT(&set)
                        : static_cast<int>(std::thread::hardware_concurrency());
  // Effective parallelism: the same per-thread work on 1 thread, then on
  // nproc threads at once. nproc * t1 / tN is how many cores' worth of
  // throughput the box really delivers (shared vCPUs deliver fewer).
  constexpr uint64_t kIterations = 60'000'000;
  std::atomic<uint64_t> sink{0};
  auto timed = [&](int threads) {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> workers;
    for (int i = 0; i < threads; ++i) {
      workers.emplace_back([&] { sink += Spin(kIterations); });
    }
    for (std::thread& w : workers) w.join();
    return Seconds(t0, Clock::now());
  };
  // Best of three interleaved rounds: neighbours' load only ever slows a
  // round down, so the minimum is the least disturbed reading.
  double t1 = timed(1);
  double tn = timed(nproc);
  for (int round = 1; round < 3; ++round) {
    t1 = std::min(t1, timed(1));
    tn = std::min(tn, timed(nproc));
  }
  std::printf("%s\n",
              JsonObject()
                  .Bool("ok", true)
                  .Int("nproc", static_cast<uint64_t>(nproc))
                  .Int("hardware_concurrency",
                       std::thread::hardware_concurrency())
                  .Dbl("effective_parallelism", nproc * t1 / tn)
                  .Dbl("single_thread_probe_s", t1)
                  .Str("compiler", E2E_COMPILER)
                  .Str("build_type", E2E_BUILD_TYPE)
                  .str()
                  .c_str());
  return 0;
}

}  // namespace
}  // namespace minoan

int main(int argc, char** argv) {
  const minoan::Args args = minoan::ParseArgs(argc, argv);
  if (args.mode == "gen") return minoan::CmdGen(args);
  if (args.mode == "run") return minoan::CmdRun(args);
  if (args.mode == "probe") return minoan::CmdProbe();
  std::fprintf(stderr,
               "usage: e2e_harness gen|run|probe [--flag value ...]\n");
  return 2;
}
