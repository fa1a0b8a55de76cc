#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

/// \file tracer.h
/// In-memory span tracer for the benchmark's own call sites. A span covers
/// one call the benchmark makes into a library layer (or one benchmark
/// phase that groups such calls). Spans are only recorded while a run id is
/// active, kept in memory, and written out once when the benchmark ends.
/// With tracing off, Scope() reads no clock and records nothing.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  // static string: the layer function or phase
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index into the span vector, -1 for a root
  std::uint32_t run;    // traced pass the span belongs to
};

/// Per-name aggregate over one run's spans.
struct SpanStats {
  std::size_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;  // duration minus the time child spans cover
  std::vector<double> durations_ns;
};

class Tracer {
 public:
  class ScopeGuard {
   public:
    ScopeGuard(Tracer* tracer, std::int32_t index)
        : tracer_(tracer), index_(index) {}
    ~ScopeGuard() { Close(); }
    /// Ends the span early; the destructor then does nothing.
    void Close() {
      if (tracer_ != nullptr) tracer_->End(index_);
      tracer_ = nullptr;
    }
    ScopeGuard(const ScopeGuard&) = delete;
    ScopeGuard& operator=(const ScopeGuard&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_;
  };

  /// Starts recording under a fresh run id (0 stops recording). Run ids
  /// name the traced passes in the output.
  void BeginRun(std::uint32_t run, std::string label) {
    run_ = run;
    current_ = -1;
    if (run != 0) labels_[run] = std::move(label);
  }
  void EndRun() { BeginRun(0, ""); }

  /// Opens a span that closes when the returned guard is destroyed.
  [[nodiscard]] ScopeGuard Scope(const char* name) {
    if (run_ == 0) return ScopeGuard(nullptr, -1);
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, NowNs(), 0, current_, run_});
    current_ = index;
    return ScopeGuard(this, index);
  }

  /// Aggregates the spans of one run by name, with self time.
  std::map<std::string, SpanStats> Aggregate(std::uint32_t run) const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.run == run && s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    std::map<std::string, SpanStats> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.run != run) continue;
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      SpanStats& st = out[s.name];
      ++st.count;
      st.total_ns += dur;
      st.self_ns += dur - child_ns[i];
      st.durations_ns.push_back(dur);
    }
    return out;
  }

  /// Writes every span as a Chrome trace-event file (chrome://tracing or
  /// ui.perfetto.dev open it): one complete event per span, one "thread"
  /// row per run id, parent index and run id in args. `env_json`, a JSON
  /// object, goes under "otherData". Returns false when the file cannot be
  /// written.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& env_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"otherData\":%s,\"traceEvents\":[\n",
                 env_json.c_str());
    bool first = true;
    for (const auto& [run, label] : labels_) {
      std::fprintf(f,
                   "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                   "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                   first ? "" : ",\n", run, label.c_str());
      first = false;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"run\":%u}}",
                   first ? "" : ",\n", s.name, s.run,
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, s.run);
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

  std::size_t size() const { return spans_.size(); }

 private:
  void End(std::int32_t index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = NowNs();
    current_ = s.parent;
  }

  std::vector<Span> spans_;
  std::map<std::uint32_t, std::string> labels_;
  std::int32_t current_ = -1;
  std::uint32_t run_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
