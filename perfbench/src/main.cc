// End-to-end benchmark of libsubstream over Bernoulli-sampled streams.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--source-digest <hex>] [--trace-out <path>]
//
// Every workload is a closed loop: one producer feeds a window of sampled
// items, waits for that window's result (report, health, wire record),
// then feeds the next. Inputs and the exact reference are built from the
// seed before any timing. The last stdout line is one JSON object with
// `correct`, `attempted`, `failed` and `metrics`; the lines before it are
// for people. See README.md beside this file.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/monitor.h"
#include "core/sharded_monitor.h"
#include "core/windowed_monitor.h"
#include "inputs.h"
#include "plan/compiler.h"
#include "serde/collector.h"
#include "serde/serde.h"
#include "sketch/counter_kernels.h"
#include "sketch/countsketch.h"
#include "tracer.h"
#include "util/hash.h"
#include "util/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using substream::Monitor;
using substream::MonitorConfig;
using substream::MonitorReport;
using substream::ShardedMonitor;
using substream::WindowedMonitor;

constexpr double kSampleRate = 0.1;
constexpr std::uint64_t kMonitorSeed = 0x9bd1f0c2e55a7e13ULL;
constexpr std::size_t kFeedChunk = 4096;  // items per UpdateBatch / Ingest
constexpr std::size_t kShards = 2;        // producer + 2 workers <= 4 cores
constexpr std::size_t kRingWindows = 8;
constexpr double kDecay = 0.5;
constexpr int kSetupReps = 31;
// p90 needs ten samples beyond it.
constexpr std::size_t kMinResults = 100;
// Untimed windows before a pass's timed phase: one for a Monitor (its
// tables touched, caches warm), a full ring for the pipeline so every timed
// close reads an 8-window ring.
constexpr std::size_t kMonitorWarmup = 1;
constexpr std::size_t kPipelineWarmup = kRingWindows;
constexpr std::size_t kRoundTripRecords = 16;

enum class Loop { kMonitor, kPipeline };

struct Workload {
  const char* name;
  InputSpec input;
  Loop loop;
};

// Window sizes: zipf_ingest's windows are long enough that ingest dominates
// its wall time; distinct_flood's are short because every result pays a
// Report whose cost grows with the distinct keys held; sharded_windows'
// windows keep at least kMinResults window closes inside one run.
std::optional<Workload> FindWorkload(const std::string& name) {
  const double alpha = MonitorConfig{}.hh_alpha;
  if (name == "zipf_ingest") {
    return Workload{"zipf_ingest",
                    {KeyModel::kZipf, 8, 2'400'000, kSampleRate, alpha, 0},
                    Loop::kMonitor};
  }
  if (name == "distinct_flood") {
    return Workload{
        "distinct_flood",
        {KeyModel::kDistinct, 64, 100'000, kSampleRate, alpha, kRingWindows},
        Loop::kMonitor};
  }
  if (name == "sharded_windows") {
    return Workload{
        "sharded_windows",
        {KeyModel::kZipf, 16, 200'000, kSampleRate, alpha, kRingWindows},
        Loop::kPipeline};
  }
  return std::nullopt;
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// P[Binomial(n, q) >= k].
double BinomialTail(std::size_t n, double q, std::size_t k) {
  double below = 0.0;
  double term = std::pow(1.0 - q, static_cast<double>(n));  // P[X = 0]
  for (std::size_t i = 0; i < k && i <= n; ++i) {
    below += term;
    term *= static_cast<double>(n - i) / static_cast<double>(i + 1) * q /
            (1.0 - q);
  }
  return std::max(0.0, 1.0 - below);
}

/// Realized accuracy of the results against the exact values on P.
struct Accuracy {
  std::vector<double> f2_err, f0_err, entropy_err, hh_recall;
  std::size_t results = 0;
  // Per distinct reference (a window, or a ring's union of windows): did a
  // result scored against it miss? Replays of one reference are not
  // independent trials, so the promise is checked per reference.
  std::map<std::size_t, bool> f2_missed;  // outside epsilon + sampled_epsilon
  std::map<std::size_t, bool> hh_missed;  // a true alpha-heavy item missing

  void Score(const MonitorReport& r, const substream::obs::HealthReport& h,
             const Exact& e, std::size_t reference, double epsilon) {
    ++results;
    const double f2 = std::abs(*r.second_moment - e.f2) / e.f2;
    f2_err.push_back(f2);
    f2_missed[reference] |= f2 > epsilon + h.sampled_epsilon;
    f0_err.push_back(std::abs(*r.distinct_items - e.f0) / e.f0);
    if (r.entropy->reliable) {
      entropy_err.push_back(std::abs(r.entropy->entropy - e.entropy) /
                            e.entropy);
    }
    std::size_t found = 0;
    for (std::uint64_t item : e.heavy) {
      for (const auto& hh : *r.heavy_hitters) {
        if (hh.item == item) {
          ++found;
          break;
        }
      }
    }
    hh_missed[reference] |= found < e.heavy.size();
    hh_recall.push_back(e.heavy.empty() ? 1.0
                                        : static_cast<double>(found) /
                                              static_cast<double>(
                                                  e.heavy.size()));
  }

  static std::size_t Count(const std::map<std::size_t, bool>& missed) {
    std::size_t n = 0;
    for (const auto& [reference, miss] : missed) n += miss ? 1 : 0;
    return n;
  }

  /// The (epsilon, delta) promise allows a delta share of misses. With the
  /// few independent references one run scores, a share test would fail a
  /// library that meets its promise exactly (one miss in 16 references is
  /// already 6%), so a check fails when its miss count is implausible under
  /// the promise: P[Binomial(references, delta) >= misses] < kMissPValue.
  /// One check per estimator per run.
  void Check(double delta, Checks& checks) const {
    constexpr double kMissPValue = 1e-3;
    for (const auto& [label, missed] :
         {std::pair<const char*, const std::map<std::size_t, bool>*>{
              "F2", &f2_missed},
          {"heavy-hitter", &hh_missed}}) {
      const std::size_t misses = Count(*missed);
      checks.Expect(
          BinomialTail(missed->size(), delta, misses) >= kMissPValue,
          std::string(label) + " misses " + std::to_string(misses) + " of " +
              std::to_string(missed->size()) +
              " references exceed what delta allows");
    }
  }
};

std::vector<std::uint8_t> Wire(const Monitor& m) {
  substream::serde::Writer w;
  m.Serialize(w);
  return w.Take();
}

/// Serialize -> Deserialize -> Serialize must reproduce the bytes.
void CheckRoundTrip(const std::vector<std::uint8_t>& bytes, Tracer& tracer,
                    Checks& checks) {
  std::optional<Monitor> decoded;
  {
    auto span = tracer.Scope("Monitor::Deserialize");
    substream::serde::Reader reader(bytes);
    decoded = Monitor::Deserialize(reader);
  }
  checks.Expect(decoded.has_value() && Wire(*decoded) == bytes,
                "serialize/deserialize/serialize byte mismatch");
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

MonitorConfig PlannedConfig() {
  MonitorConfig config;
  config.p = kSampleRate;
  config.plan = substream::plan::PlanSpec{};  // 16 MiB, default targets
  return config;
}

struct Pipeline {
  std::unique_ptr<ShardedMonitor> sharded;
  std::unique_ptr<WindowedMonitor> ring;
  std::unique_ptr<substream::serde::Collector> collector;
};

Pipeline MakePipeline(const MonitorConfig& resolved) {
  Pipeline p;
  substream::ShardedMonitorOptions options;
  options.shards = kShards;
  p.sharded = std::make_unique<ShardedMonitor>(resolved, kMonitorSeed, options);
  substream::WindowedMonitorOptions ring;
  ring.windows = kRingWindows;
  ring.decay = kDecay;
  p.ring = std::make_unique<WindowedMonitor>(p.sharded->config(),
                                             kMonitorSeed, ring);
  p.collector = std::make_unique<substream::serde::Collector>();
  return p;
}

// ---------------------------------------------------------------------------
// The two closed loops
// ---------------------------------------------------------------------------

/// A pass runs `warmup` untimed, untraced windows, then times windows until
/// `seconds` have passed and it has `min_results` timed results.
struct Budget {
  double seconds;
  std::size_t min_results;
  std::size_t warmup;
};

struct PassResult {
  double wall_s = 0.0;
  std::size_t items = 0;
  std::vector<double> latency_ms;
  // Items ÷ wall time of each timed window, from its first feed call to
  // its result in hand, output checks excluded.
  std::vector<double> window_rate;
  std::vector<double> wire_bytes;
  std::size_t peak_space = 0;
  std::map<std::string, std::size_t> peak_summary_space;  // from Health()
  // Pipeline loop only.
  std::vector<double> backlog_at_rotate;
  std::size_t peak_ring_space = 0;
  std::size_t records_rejected = 0;
  substream::ShardedMonitorStats stats;  // at the end of the pass
  // At the start of the timed phase, for the stall counters' deltas.
  substream::ShardedMonitorStats stats_at_start;
};

void NoteHealth(const substream::obs::HealthReport& h, PassResult& out) {
  for (const auto& s : h.summaries) {
    auto& peak = out.peak_summary_space[s.name];
    peak = std::max(peak, s.space_bytes);
  }
}

/// Round-trip checks the first kRoundTripRecords records of a pass; `record`
/// counts the pass's windows from 0. Returns the time the check took, which
/// the pass excludes from its wall time.
std::int64_t CheckWire(const std::vector<std::uint8_t>& bytes,
                       std::size_t record, Tracer& tracer, Checks& checks) {
  if (record >= kRoundTripRecords) return 0;
  const std::int64_t t0 = NowNs();
  CheckRoundTrip(bytes, tracer, checks);
  return NowNs() - t0;
}

/// One Monitor, tumbling windows: UpdateBatch per chunk, then Report +
/// Health + Serialize at the window end, then Reset. `accuracy` scores
/// each result, warm-up included, against its window of P when non-null.
PassResult MonitorLoop(Monitor& monitor, const Inputs& in, Budget budget,
                       Tracer& traced, Accuracy* accuracy, Checks& checks) {
  PassResult out;
  const double epsilon = monitor.config().epsilon;
  Tracer untraced;  // records nothing: spans of warm-up windows
  std::int64_t start = NowNs();
  std::int64_t excluded_ns = 0;  // output checks inside the timed phase
  for (std::size_t i = 0;; ++i) {
    const bool timed = i >= budget.warmup;
    if (i == budget.warmup) start = NowNs();
    Tracer& tracer = timed ? traced : untraced;
    const std::int64_t window_start = NowNs();
    const std::size_t w = i % in.windows();
    const std::uint64_t* data = in.window_data(w);
    const std::size_t n = in.window_size(w);
    auto window_span = tracer.Scope("window");
    {
      auto span = tracer.Scope("ingest");
      for (std::size_t off = 0; off < n; off += kFeedChunk) {
        auto call = tracer.Scope("Monitor::UpdateBatch");
        monitor.UpdateBatch(data + off, std::min(kFeedChunk, n - off));
      }
    }
    const std::int64_t last_feed = NowNs();
    std::optional<MonitorReport> report;
    std::optional<substream::obs::HealthReport> health;
    std::vector<std::uint8_t> bytes;
    {
      auto span = tracer.Scope("result");
      {
        auto call = tracer.Scope("Monitor::Report");
        report = monitor.Report();
      }
      {
        auto call = tracer.Scope("Monitor::Health");
        health = monitor.Health();
      }
      {
        auto call = tracer.Scope("Monitor::Serialize");
        bytes = Wire(monitor);
      }
    }
    const double latency_ms = static_cast<double>(NowNs() - last_feed) / 1e6;
    {
      auto call = tracer.Scope("Monitor::SpaceBytes");
      out.peak_space = std::max(out.peak_space, monitor.SpaceBytes());
    }
    NoteHealth(*health, out);
    if (accuracy != nullptr) {
      accuracy->Score(*report, *health, in.window_exact[w], w, epsilon);
    }
    {
      auto call = tracer.Scope("Monitor::Reset");
      monitor.Reset();
    }
    window_span.Close();
    const double window_s = Seconds(NowNs() - window_start);
    const std::int64_t check_ns = CheckWire(bytes, i, tracer, checks);
    if (!timed) continue;
    excluded_ns += check_ns;
    out.items += n;
    out.window_rate.push_back(static_cast<double>(n) / window_s);
    out.latency_ms.push_back(latency_ms);
    out.wire_bytes.push_back(static_cast<double>(bytes.size()));
    if (Seconds(NowNs() - start) >= budget.seconds &&
        out.latency_ms.size() >= budget.min_results) {
      break;
    }
  }
  out.wall_s = Seconds(NowNs() - start - excluded_ns);
  return out;
}

/// ShardedMonitor feeding an 8-window WindowedMonitor. At each window end:
/// Rotate + CollectWindow, Serialize + Collector::AddSerialized,
/// AdoptWindow, then Report(0) + ReportDecayed + Health. `accuracy` scores
/// Report(0), warm-up included, against the union of the windows the ring
/// holds.
PassResult PipelineLoop(Pipeline& pipe, const Inputs& in, Budget budget,
                        Tracer& traced, Accuracy* accuracy, Checks& checks) {
  PassResult out;
  ShardedMonitor& sharded = *pipe.sharded;
  WindowedMonitor& ring = *pipe.ring;
  const double epsilon = sharded.config().epsilon;
  Tracer untraced;  // records nothing: spans of warm-up windows
  std::int64_t start = NowNs();
  std::int64_t excluded_ns = 0;  // output checks inside the timed phase
  for (std::size_t i = 0;; ++i) {
    const bool timed = i >= budget.warmup;
    if (i == budget.warmup) {
      out.stats_at_start = sharded.Stats();
      start = NowNs();
    }
    Tracer& tracer = timed ? traced : untraced;
    const std::int64_t window_start = NowNs();
    const std::size_t w = i % in.windows();
    const std::uint64_t* data = in.window_data(w);
    const std::size_t n = in.window_size(w);
    auto window_span = tracer.Scope("window");
    {
      auto span = tracer.Scope("ingest");
      for (std::size_t off = 0; off < n; off += kFeedChunk) {
        auto call = tracer.Scope("ShardedMonitor::Ingest");
        sharded.Ingest(data + off, std::min(kFeedChunk, n - off));
      }
    }
    const std::int64_t last_feed = NowNs();
    std::optional<MonitorReport> report;
    std::optional<substream::obs::HealthReport> health;
    std::vector<std::uint8_t> bytes;
    bool accepted = false;
    double backlog = 0.0;  // items_ingested - items_consumed before Rotate
    {
      auto span = tracer.Scope("result");
      const substream::ShardedMonitorStats before = sharded.Stats();
      backlog = static_cast<double>(before.items_ingested -
                                    before.items_consumed);
      {
        auto call = tracer.Scope("ShardedMonitor::Rotate");
        sharded.Rotate();
      }
      std::optional<Monitor> window;
      {
        auto call = tracer.Scope("ShardedMonitor::CollectWindow");
        window = sharded.CollectWindow(sharded.CurrentEpoch() - 1);
      }
      {
        auto call = tracer.Scope("Monitor::Serialize");
        bytes = Wire(*window);
      }
      {
        auto call = tracer.Scope("Collector::AddSerialized");
        accepted = pipe.collector->AddSerialized(bytes);
      }
      {
        auto call = tracer.Scope("WindowedMonitor::AdoptWindow");
        ring.AdoptWindow(std::move(*window));
      }
      {
        auto call = tracer.Scope("WindowedMonitor::Report");
        report = ring.Report(0);
      }
      {
        auto call = tracer.Scope("WindowedMonitor::ReportDecayed");
        (void)ring.ReportDecayed();
      }
      {
        auto call = tracer.Scope("Monitor::Health");
        health = ring.WindowAt(0).Health();
      }
    }
    const double latency_ms = static_cast<double>(NowNs() - last_feed) / 1e6;
    {
      auto call = tracer.Scope("ShardedMonitor::SpaceBytes");
      out.peak_space = std::max(out.peak_space, sharded.SpaceBytes());
    }
    {
      auto call = tracer.Scope("WindowedMonitor::SpaceBytes");
      out.peak_ring_space = std::max(out.peak_ring_space, ring.SpaceBytes());
    }
    checks.Expect(accepted, "collector rejected a window record");
    NoteHealth(*health, out);
    if (accuracy != nullptr) {
      const std::size_t reference = in.RingIndex(i, kRingWindows);
      accuracy->Score(*report, *health, in.ring_exact[reference], reference,
                      epsilon);
    }
    window_span.Close();
    const double window_s = Seconds(NowNs() - window_start);
    const std::int64_t check_ns = CheckWire(bytes, i, tracer, checks);
    if (!timed) continue;
    excluded_ns += check_ns;
    out.items += n;
    out.window_rate.push_back(static_cast<double>(n) / window_s);
    out.latency_ms.push_back(latency_ms);
    out.wire_bytes.push_back(static_cast<double>(bytes.size()));
    out.backlog_at_rotate.push_back(backlog);
    if (Seconds(NowNs() - start) >= budget.seconds &&
        out.latency_ms.size() >= budget.min_results) {
      break;
    }
  }
  out.wall_s = Seconds(NowNs() - start - excluded_ns);
  out.stats = sharded.Stats();
  out.records_rejected = pipe.collector->rejected();
  return out;
}

/// Once per run, untimed: a CollectWindow result serializes byte-identically
/// to plain Monitors fed the same window, one per shard under the
/// pipeline's routing, merged in shard order. (A single unrouted Monitor
/// differs: level-set and heavy-hitter candidate pools depend on the
/// partition, so the library promises equality to the routed merge.)
void CheckShardEquivalence(const MonitorConfig& resolved, const Inputs& in,
                           Checks& checks) {
  const std::uint64_t* data = in.window_data(0);
  const std::size_t n = in.window_size(0);
  Pipeline pipe = MakePipeline(resolved);
  std::vector<std::vector<std::uint64_t>> routed(kShards);
  for (std::size_t off = 0; off < n; off += kFeedChunk) {
    pipe.sharded->Ingest(data + off, std::min(kFeedChunk, n - off));
  }
  for (std::size_t i = 0; i < n; ++i) {
    routed[ShardedMonitor::ShardOf(data[i], kShards)].push_back(data[i]);
  }
  pipe.sharded->Rotate();
  std::optional<Monitor> window = pipe.sharded->CollectWindow(0);
  Monitor reference(resolved, kMonitorSeed);
  reference.UpdateBatch(routed[0].data(), routed[0].size());
  for (std::size_t shard = 1; shard < kShards; ++shard) {
    Monitor part(resolved, kMonitorSeed);
    part.UpdateBatch(routed[shard].data(), routed[shard].size());
    reference.Merge(part);
  }
  checks.Expect(window.has_value() && Wire(*window) == Wire(reference),
                "CollectWindow bytes differ from the routed plain Monitors");
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string trace_out;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = std::atoi(value.c_str());
    } else if (key == "--commit") {
      a.commit = value;
    } else if (key == "--source-digest") {
      a.source_digest = value;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || a.seconds <= 0.0 ||
      (a.trace != 0 && a.trace != 1)) {
    return std::nullopt;
  }
  return a;
}

/// Median setup time over kSetupReps constructions; keeps the last one.
template <typename Make>
auto TimedSetup(Make make, std::vector<double>* setup_s,
                std::vector<double>* resolve_us) {
  decltype(make(MonitorConfig{})) built{};
  for (int rep = 0; rep < kSetupReps; ++rep) {
    built = {};  // destroy the previous instance outside the timed span
    const std::int64_t t0 = NowNs();
    const MonitorConfig resolved =
        substream::plan::ResolveMonitorConfig(PlannedConfig());
    const std::int64_t t1 = NowNs();
    built = make(resolved);
    setup_s->push_back(Seconds(NowNs() - t0));
    resolve_us->push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  return built;
}

std::size_t Warmup(Loop loop) {
  return loop == Loop::kMonitor ? kMonitorWarmup : kPipelineWarmup;
}

PassResult RunLoop(Loop loop, const MonitorConfig& resolved, const Inputs& in,
                   Budget budget, Tracer& tracer, Accuracy* accuracy,
                   Checks& checks) {
  if (loop == Loop::kMonitor) {
    Monitor monitor(resolved, kMonitorSeed);
    return MonitorLoop(monitor, in, budget, tracer, accuracy, checks);
  }
  Pipeline pipe = MakePipeline(resolved);
  return PipelineLoop(pipe, in, budget, tracer, accuracy, checks);
}

double SpanNsPerItem(const std::map<std::string, SpanStats>& agg,
                     const std::string& name, std::size_t items) {
  auto it = agg.find(name);
  if (it == agg.end() || items == 0) return 0.0;
  return it->second.total_ns / static_cast<double>(items);
}

double SpanMedian(const std::map<std::string, SpanStats>& agg,
                  const std::string& name, double scale) {
  auto it = agg.find(name);
  if (it == agg.end()) return 0.0;
  return Median(it->second.durations_ns) / scale;
}

double SpanTotal(const std::map<std::string, SpanStats>& agg,
                 const std::string& name) {
  auto it = agg.find(name);
  return it == agg.end() ? 0.0 : it->second.total_ns;
}

void PrintSelfTimes(const char* label,
                    const std::map<std::string, SpanStats>& agg,
                    double wall_s) {
  std::printf("# trace %s: span, calls, total ms, self ms, self share of "
              "wall\n", label);
  for (const auto& [name, st] : agg) {
    std::printf("#   %-32s %7zu %10.2f %10.2f %6.1f%%\n", name.c_str(),
                st.count, st.total_ns / 1e6, st.self_ns / 1e6,
                100.0 * st.self_ns / (wall_s * 1e9));
  }
}

int Run(const Args& args) {
  const std::optional<Workload> workload = FindWorkload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  const char* isa = substream::simd::Name(substream::kernels::ActiveIsa());
  char env[1024];
  std::snprintf(
      env, sizeof(env),
      "{\"workload\":%s,\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"nproc\":%u,\"simd\":%s,\"compiler\":%s,\"build_type\":%s,"
      "\"commit\":%s,\"source_digest\":%s}",
      JsonString(workload->name).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace,
      nproc, JsonString(isa).c_str(), JsonString(Compiler()).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(args.commit).c_str(), JsonString(args.source_digest).c_str());
  std::printf("# env %s\n", env);
  std::fflush(stdout);

  const std::int64_t inputs_start = NowNs();
  const Inputs in = MakeInputs(workload->input, args.seed);
  std::printf("# inputs: %zu windows, %zu sampled items, built in %.2f s\n",
              in.windows(), in.items.size(), Seconds(NowNs() - inputs_start));
  Checks checks;
  Tracer tracer;
  Accuracy accuracy;
  std::vector<Metric> metrics;
  const Loop own = workload->loop;

  std::vector<double> setup_s, resolve_us;
  const MonitorConfig resolved =
      substream::plan::ResolveMonitorConfig(PlannedConfig());
  const double budget_bytes =
      static_cast<double>(PlannedConfig().plan->budget_bytes);
  const double delta = resolved.delta;

  // Set-up, timed kSetupReps times; the last instance runs the workload.
  std::unique_ptr<Monitor> monitor;
  Pipeline pipe;
  const auto set_up = [&] {
    if (own == Loop::kMonitor) {
      monitor = TimedSetup(
          [](const MonitorConfig& c) {
            return std::make_unique<Monitor>(c, kMonitorSeed);
          },
          &setup_s, &resolve_us);
    } else {
      pipe = TimedSetup(MakePipeline, &setup_s, &resolve_us);
    }
  };
  set_up();

  const double s = args.seconds;
  if (args.trace == 0) {
    const Budget budget{s, kMinResults, Warmup(own)};
    const PassResult r =
        own == Loop::kMonitor
            ? MonitorLoop(*monitor, in, budget, tracer, &accuracy, checks)
            : PipelineLoop(pipe, in, budget, tracer, &accuracy, checks);
    const double rss = PeakRssMb();
    // As many set-ups again after the timed phase: set-up time moves with
    // the host's load, and the median then spans the run, not one moment.
    monitor.reset();
    pipe = Pipeline{};
    set_up();
    metrics = {
        {"throughput_items_per_s", Quantile(r.window_rate, 0.1), "items/s"},
        {"result_ms_p50", Quantile(r.latency_ms, 0.5), "ms"},
        {"result_ms_p90", Quantile(r.latency_ms, 0.9), "ms"},
        {"setup_s", Median(setup_s), "s"},
        {"space_over_budget", static_cast<double>(r.peak_space) / budget_bytes,
         "ratio"},
        {"peak_rss_mb", rss, "MB"},
        {"wire_bytes_per_result", Mean(r.wire_bytes), "bytes"},
        {"f0_rel_err", Median(accuracy.f0_err), "ratio"},
        {"entropy_rel_err", Median(accuracy.entropy_err), "ratio"},
        {"hh_recall", Median(accuracy.hh_recall), "ratio"},
    };
    std::printf("# timed phase: %.2f s, %zu results (p90 has %zu beyond it), "
                "%zu sampled items\n",
                r.wall_s, r.latency_ms.size(),
                r.latency_ms.size() - static_cast<std::size_t>(std::ceil(
                                          0.9 * r.latency_ms.size())),
                r.items);
    std::printf("# window throughput items/s: p10 %.0f, median %.0f, p90 "
                "%.0f; whole timed phase %.0f\n",
                Quantile(r.window_rate, 0.1), Quantile(r.window_rate, 0.5),
                Quantile(r.window_rate, 0.9),
                static_cast<double>(r.items) / r.wall_s);
  } else {
    // Per-layer run. An untraced pass and traced run 1 run the workload's
    // own loop; their throughput ratio is the tracing overhead. Run 2 traces
    // the other loop over the same windows, so every layer is measured on
    // every workload. Runs 3-6 enable one estimator each; the last run times
    // the prehash and CountSketch kernels alone.
    const Budget own_budget{0.3 * s, 10, Warmup(own)};
    const PassResult untraced =
        own == Loop::kMonitor
            ? MonitorLoop(*monitor, in, own_budget, tracer, nullptr, checks)
            : PipelineLoop(pipe, in, own_budget, tracer, nullptr, checks);
    monitor.reset();
    pipe = Pipeline{};

    tracer.BeginRun(1, std::string(workload->name) + " (own loop)");
    PassResult traced =
        RunLoop(own, resolved, in, own_budget, tracer, &accuracy, checks);
    tracer.EndRun();

    const Loop other = own == Loop::kMonitor ? Loop::kPipeline : Loop::kMonitor;
    tracer.BeginRun(2, "other loop");
    PassResult cross =
        RunLoop(other, resolved, in, Budget{0.2 * s, 3, Warmup(other)}, tracer,
                nullptr, checks);
    tracer.EndRun();

    const PassResult& mon = own == Loop::kMonitor ? traced : cross;
    const PassResult& pip = own == Loop::kPipeline ? traced : cross;
    const auto mon_agg = tracer.Aggregate(own == Loop::kMonitor ? 1 : 2);
    const auto pip_agg = tracer.Aggregate(own == Loop::kPipeline ? 1 : 2);
    const auto own_agg = tracer.Aggregate(1);

    // Runs 3-6: one estimator enabled at a time.
    struct Isolated {
      const char* name;
      bool MonitorConfig::*flag;
      double ingest_ns = 0.0;
      double report_ms = 0.0;
    };
    Isolated isolated[] = {{"f2", &MonitorConfig::enable_f2},
                           {"hh", &MonitorConfig::enable_heavy_hitters},
                           {"entropy", &MonitorConfig::enable_entropy},
                           {"f0", &MonitorConfig::enable_f0}};
    std::uint32_t run = 3;
    for (Isolated& iso : isolated) {
      // The full monitor's resolved geometry with the other estimators
      // off: re-planning with one estimator would give it the whole budget.
      MonitorConfig config = resolved;
      config.enable_f0 = config.enable_f2 = config.enable_entropy =
          config.enable_heavy_hitters = false;
      config.*iso.flag = true;
      Monitor single(config, kMonitorSeed);
      tracer.BeginRun(run, std::string("only ") + iso.name);
      const PassResult r =
          MonitorLoop(single, in, Budget{0.035 * s, 3, kMonitorWarmup}, tracer,
                      nullptr, checks);
      tracer.EndRun();
      const auto agg = tracer.Aggregate(run++);
      iso.ingest_ns = SpanNsPerItem(agg, "Monitor::UpdateBatch", r.items);
      iso.report_ms = SpanMedian(agg, "Monitor::Report", 1e6);
    }

    // Last run: the kernels alone, on the same sampled items.
    const std::uint32_t kernel_run = run;
    tracer.BeginRun(kernel_run, "kernels");
    std::vector<std::uint64_t> hashes(in.items.size());
    std::size_t prehash_items = 0;
    for (std::int64_t t0 = NowNs(); Seconds(NowNs() - t0) < 0.03 * s;) {
      for (std::size_t off = 0; off < in.items.size(); off += kFeedChunk) {
        const std::size_t m = std::min(kFeedChunk, in.items.size() - off);
        auto call = tracer.Scope("PrehashColumnSoA");
        substream::PrehashColumnSoA(in.items.data() + off, m,
                                    hashes.data() + off);
        prehash_items += m;
      }
    }
    std::uint64_t f2_depth = 0, f2_width = 0;
    {
      Monitor probe(resolved, kMonitorSeed);
      for (const auto& h : probe.Health().summaries) {
        if (h.name == "f2") {
          f2_depth = h.depth;
          f2_width = h.width;
        }
      }
    }
    substream::CountSketch sketch(static_cast<int>(f2_depth), f2_width,
                                  kMonitorSeed,
                                  substream::CounterTableOptions{
                                      resolved.cell_width});
    std::size_t sketch_items = 0;
    for (std::int64_t t0 = NowNs(); Seconds(NowNs() - t0) < 0.03 * s;) {
      for (std::size_t off = 0; off < in.items.size(); off += kFeedChunk) {
        const std::size_t m = std::min(kFeedChunk, in.items.size() - off);
        auto call = tracer.Scope("CountSketch::UpdatePrehashed");
        sketch.UpdatePrehashed(
            substream::PrehashedColumns{in.items.data() + off,
                                        hashes.data() + off},
            m);
        sketch_items += m;
      }
    }
    tracer.EndRun();
    const auto kernel_agg = tracer.Aggregate(kernel_run);

    const double prehash_ns =
        SpanNsPerItem(kernel_agg, "PrehashColumnSoA", prehash_items);
    const double ingest_ns =
        SpanNsPerItem(mon_agg, "Monitor::UpdateBatch", mon.items);
    double interference = ingest_ns - prehash_ns;
    for (Isolated& iso : isolated) {
      iso.ingest_ns -= prehash_ns;
      interference -= iso.ingest_ns;
    }

    const double ser_ms = SpanMedian(pip_agg, "Monitor::Serialize", 1e6);
    const double ser_total_s = SpanTotal(pip_agg, "Monitor::Serialize") / 1e9;
    double wire_total = 0.0;
    for (double b : pip.wire_bytes) wire_total += b;

    metrics.push_back({"util.prehash_ns_per_item", prehash_ns, "ns"});
    metrics.push_back({"sketch.countsketch_ns_per_item",
                       SpanNsPerItem(kernel_agg, "CountSketch::UpdatePrehashed",
                                     sketch_items),
                       "ns"});
    metrics.push_back({"monitor.ingest_ns_per_item", ingest_ns, "ns"});
    for (const Isolated& iso : isolated) {
      metrics.push_back({std::string("monitor.") + iso.name +
                             "_ingest_ns_per_item",
                         iso.ingest_ns, "ns"});
    }
    metrics.push_back(
        {"monitor.fanout_interference_ns_per_item", interference, "ns"});
    metrics.push_back(
        {"monitor.report_ms", SpanMedian(mon_agg, "Monitor::Report", 1e6),
         "ms"});
    for (const Isolated& iso : isolated) {
      metrics.push_back({std::string("monitor.") + iso.name + "_report_ms",
                         iso.report_ms, "ms"});
    }
    metrics.push_back(
        {"monitor.reset_ms", SpanMedian(mon_agg, "Monitor::Reset", 1e6), "ms"});
    // Realized F2 error of the own traced pass. It is not an end-to-end
    // metric: scored on 8-16 distinct windows per run, it moves with the
    // seed far more than any bound allows.
    metrics.push_back({"monitor.f2_rel_err", Median(accuracy.f2_err), "ratio"});
    metrics.push_back(
        {"obs.health_us", SpanMedian(mon_agg, "Monitor::Health", 1e3), "us"});
    metrics.push_back({"monitor.space_bytes",
                       static_cast<double>(mon.peak_space), "bytes"});
    for (const char* summary : {"f0", "f2", "entropy", "hh"}) {
      auto it = mon.peak_summary_space.find(summary);
      metrics.push_back(
          {std::string("monitor.") + summary + "_space_bytes",
           it == mon.peak_summary_space.end()
               ? 0.0
               : static_cast<double>(it->second),
           "bytes"});
    }
    const auto& st = pip.stats;
    std::uint64_t hwm = 0;
    for (std::uint64_t g : st.group_ring_hwm) hwm = std::max(hwm, g);
    metrics.push_back({"sharded.ingest_call_ns_per_item",
                       SpanNsPerItem(pip_agg, "ShardedMonitor::Ingest",
                                     pip.items),
                       "ns"});
    metrics.push_back(
        {"sharded.rotate_us",
         SpanMedian(pip_agg, "ShardedMonitor::Rotate", 1e3), "us"});
    metrics.push_back(
        {"sharded.collect_ms",
         SpanMedian(pip_agg, "ShardedMonitor::CollectWindow", 1e6), "ms"});
    metrics.push_back({"sharded.backlog_items_at_rotate",
                       Median(pip.backlog_at_rotate), "items"});
    metrics.push_back({"sharded.producer_stalls",
                       static_cast<double>(st.producer_stalls -
                                           pip.stats_at_start.producer_stalls),
                       "count"});
    metrics.push_back({"sharded.stall_wait_frac",
                       static_cast<double>(st.stall_wait_ns -
                                           pip.stats_at_start.stall_wait_ns) /
                           (pip.wall_s * 1e9),
                       "ratio"});
    metrics.push_back(
        {"sharded.ring_hwm_batches", static_cast<double>(hwm), "batches"});
    metrics.push_back(
        {"sharded.buffer_recycle_ratio",
         st.batches_pushed == 0
             ? 0.0
             : static_cast<double>(st.buffers_recycled) /
                   static_cast<double>(st.batches_pushed),
         "ratio"});
    metrics.push_back(
        {"windowed.adopt_ms",
         SpanMedian(pip_agg, "WindowedMonitor::AdoptWindow", 1e6), "ms"});
    metrics.push_back(
        {"windowed.report_ms",
         SpanMedian(pip_agg, "WindowedMonitor::Report", 1e6), "ms"});
    metrics.push_back(
        {"windowed.report_decayed_ms",
         SpanMedian(pip_agg, "WindowedMonitor::ReportDecayed", 1e6), "ms"});
    metrics.push_back({"windowed.space_bytes",
                       static_cast<double>(pip.peak_ring_space), "bytes"});
    metrics.push_back({"serde.serialize_ms", ser_ms, "ms"});
    metrics.push_back({"serde.serialize_mb_per_s",
                       ser_total_s > 0.0 ? wire_total / 1e6 / ser_total_s : 0.0,
                       "MB/s"});
    metrics.push_back(
        {"serde.deserialize_ms",
         SpanMedian(tracer.Aggregate(1), "Monitor::Deserialize", 1e6), "ms"});
    metrics.push_back(
        {"serde.collector_add_ms",
         SpanMedian(pip_agg, "Collector::AddSerialized", 1e6), "ms"});
    metrics.push_back(
        {"serde.records_rejected", static_cast<double>(pip.records_rejected),
         "count"});
    metrics.push_back({"plan.resolve_us", Median(resolve_us), "us"});
    const double untraced_tput =
        static_cast<double>(untraced.items) / untraced.wall_s;
    const double traced_tput =
        static_cast<double>(traced.items) / traced.wall_s;
    metrics.push_back(
        {"trace.overhead_frac", traced_tput / untraced_tput, "ratio"});

    // Coverage of the own loop's timed wall time, for reading the trace.
    const double wall_ns = traced.wall_s * 1e9;
    const double feed_ns = SpanTotal(own_agg, "ingest");
    const double close_ns = SpanTotal(own_agg, "result");
    std::printf("# coverage of the own loop's %.2f s: ingest calls %.1f%%, "
                "window close (result path) %.1f%%\n",
                traced.wall_s, 100.0 * feed_ns / wall_ns,
                100.0 * close_ns / wall_ns);
    PrintSelfTimes("own loop", own_agg, traced.wall_s);
    PrintSelfTimes("other loop", tracer.Aggregate(2), cross.wall_s);
    if (!args.trace_out.empty()) {
      if (tracer.WriteChromeTrace(args.trace_out, env)) {
        std::printf("# %zu spans written to %s\n", tracer.size(),
                    args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      }
    }
  }

  accuracy.Check(delta, checks);
  CheckShardEquivalence(resolved, in, checks);

  std::printf("# setup %.6f s median of %zu\n", Median(setup_s),
              setup_s.size());
  std::printf("# accuracy over %zu results: f2_rel_err median %.6f, worst "
              "%.6f (epsilon %.4f); F2 missed %zu of %zu references, heavy "
              "hitters missed %zu of %zu (delta %.4f)\n",
              accuracy.results, Median(accuracy.f2_err),
              accuracy.f2_err.empty()
                  ? 0.0
                  : *std::max_element(accuracy.f2_err.begin(),
                                      accuracy.f2_err.end()),
              resolved.epsilon, Accuracy::Count(accuracy.f2_missed),
              accuracy.f2_missed.size(), Accuracy::Count(accuracy.hh_missed),
              accuracy.hh_missed.size(), delta);
  std::printf("# checks: %zu attempted, %zu failed, failed_frac %.6f\n",
              checks.attempted, checks.failed,
              static_cast<double>(checks.failed) /
                  static_cast<double>(checks.attempted));
  for (const std::string& f : checks.failures) {
    std::printf("# FAILED: %s\n", f.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("# %-42s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
            ": {\"value\": " + value +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::optional<perfbench::Args> args =
      perfbench::ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--commit <id>] [--source-digest <hex>] "
                 "[--trace-out <path>]\n");
    return 2;
  }
  return perfbench::Run(*args);
}
