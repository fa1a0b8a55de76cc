/// Telemetry unit suite: registry handle stability, striped counter /
/// histogram merge correctness under concurrent writers, log2 bucket
/// geometry, and the two exposition writers. The Prometheus output is
/// pinned both ways: a golden render of a hand-built snapshot (exact
/// bytes) and a line-format validator over the live registry (every line
/// must be a well-formed HELP/TYPE/sample line, histogram buckets must be
/// cumulative and agree with _count). Both writers must round-trip the
/// same snapshot: any value present in one exposition appears identically
/// in the other.

#include "obs/metrics.h"

#include <cstdint>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/exposition.h"

namespace substream {
namespace obs {
namespace {

TEST(MetricsRegistryTest, HandlesAreStableAndDeduplicatedByName) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("reg_c", "first help");
  Counter& b = registry.GetCounter("reg_c", "second help ignored");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = registry.GetGauge("reg_g");
  Gauge& g2 = registry.GetGauge("reg_g");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = registry.GetHistogram("reg_h");
  Histogram& h2 = registry.GetHistogram("reg_h");
  EXPECT_EQ(&h1, &h2);

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "reg_c");
  // Help text is fixed by the first registration.
  EXPECT_EQ(snap.counters[0].help, "first help");
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("zeta");
  registry.GetCounter("alpha");
  registry.GetCounter("mid");
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "mid");
  EXPECT_EQ(snap.counters[2].name, "zeta");
}

TEST(CounterTest, StripedIncsMergeExactlyAcrossThreads) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIncsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kIncsPerThread; ++i) counter.Inc();
      counter.Inc(5);
    });
  }
  for (auto& th : threads) th.join();
  const std::uint64_t expected =
      kTelemetryEnabled ? kThreads * (kIncsPerThread + 5) : 0;
  EXPECT_EQ(counter.Value(), expected);
}

TEST(GaugeTest, SetMaxKeepsHighWaterMarkAcrossThreads) {
  Gauge gauge;
  std::vector<std::thread> threads;
  for (int t = 1; t <= 6; ++t) {
    threads.emplace_back([&gauge, t] {
      for (int v = 0; v <= 100 * t; ++v) gauge.SetMax(v);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(gauge.Value(), kTelemetryEnabled ? 600 : 0);
  gauge.Set(-3);
  EXPECT_EQ(gauge.Value(), kTelemetryEnabled ? -3 : 0);
}

TEST(HistogramTest, Log2BucketGeometry) {
  EXPECT_EQ(detail::BucketIndex(0), 0u);
  EXPECT_EQ(detail::BucketIndex(1), 0u);
  EXPECT_EQ(detail::BucketIndex(2), 1u);
  EXPECT_EQ(detail::BucketIndex(3), 1u);
  EXPECT_EQ(detail::BucketIndex(4), 2u);
  EXPECT_EQ(detail::BucketIndex(1023), 9u);
  EXPECT_EQ(detail::BucketIndex(1024), 10u);
  // Values beyond the range clamp into the last bucket.
  EXPECT_EQ(detail::BucketIndex(~std::uint64_t{0}), kHistogramBuckets - 1);
  EXPECT_EQ(BucketUpperBoundNs(0), 1u);
  EXPECT_EQ(BucketUpperBoundNs(3), 15u);
  EXPECT_EQ(BucketUpperBoundNs(kHistogramBuckets - 1), ~std::uint64_t{0});
}

TEST(HistogramTest, ObserveMergesAcrossThreads) {
  Histogram hist;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kObsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist] {
      for (std::uint64_t i = 0; i < kObsPerThread; ++i) hist.Observe(10);
    });
  }
  for (auto& th : threads) th.join();
  if (kTelemetryEnabled) {
    EXPECT_EQ(hist.Count(), kThreads * kObsPerThread);
    EXPECT_EQ(hist.SumNs(), kThreads * kObsPerThread * 10);
    // 10ns lands in bucket 3 ([8, 16)).
    EXPECT_EQ(hist.Buckets()[3], kThreads * kObsPerThread);
  } else {
    EXPECT_EQ(hist.Count(), 0u);
  }
}

TEST(ScopedTimerTest, ObservesEnclosingScopeOnce) {
  Histogram hist;
  {
    ScopedTimer timer(hist);
  }
  EXPECT_EQ(hist.Count(), kTelemetryEnabled ? 1u : 0u);
}

// ---------------------------------------------------------------------------
// Exposition: golden renders of a hand-built snapshot. Plain-data
// snapshots bypass the kill switch, so these bytes are pinned in both
// build flavors.
// ---------------------------------------------------------------------------

MetricsSnapshot HandBuiltSnapshot() {
  MetricsSnapshot snap;
  snap.wall_ns = 1000;
  snap.counters.push_back(CounterSample{"c_total", "a counter", 42});
  snap.gauges.push_back(GaugeSample{"g_now", "", -7});
  HistogramSample h;
  h.name = "h_ns";
  h.help = "a histogram";
  h.count = 3;
  h.sum_ns = 100;
  h.buckets[3] = 2;  // two observations in [8, 16)
  h.buckets[5] = 1;  // one observation in [32, 64)
  snap.histograms.push_back(h);
  return snap;
}

TEST(PrometheusTextTest, GoldenRender) {
  const std::string expected =
      "# HELP c_total a counter\n"
      "# TYPE c_total counter\n"
      "c_total 42\n"
      "# TYPE g_now gauge\n"
      "g_now -7\n"
      "# HELP h_ns a histogram\n"
      "# TYPE h_ns histogram\n"
      "h_ns_bucket{le=\"1\"} 0\n"
      "h_ns_bucket{le=\"3\"} 0\n"
      "h_ns_bucket{le=\"7\"} 0\n"
      "h_ns_bucket{le=\"15\"} 2\n"
      "h_ns_bucket{le=\"31\"} 2\n"
      "h_ns_bucket{le=\"63\"} 3\n"
      "h_ns_bucket{le=\"+Inf\"} 3\n"
      "h_ns_sum 100\n"
      "h_ns_count 3\n";
  EXPECT_EQ(ToPrometheusText(HandBuiltSnapshot()), expected);
}

TEST(JsonTest, GoldenRenderWithoutRates) {
  const std::string expected =
      "{\"wall_ns\":1000,"
      "\"counters\":[{\"name\":\"c_total\",\"value\":42}],"
      "\"gauges\":[{\"name\":\"g_now\",\"value\":-7}],"
      "\"histograms\":[{\"name\":\"h_ns\",\"count\":3,\"sum_ns\":100,"
      "\"mean_ns\":33.333333333333336,\"buckets\":[[3,2],[5,1]]}]}";
  EXPECT_EQ(ToJson(HandBuiltSnapshot()), expected);
}

TEST(JsonTest, SnapshotDiffRates) {
  const MetricsSnapshot prev = HandBuiltSnapshot();
  MetricsSnapshot snap = HandBuiltSnapshot();
  snap.wall_ns = prev.wall_ns + 1000000000;  // exactly one second later
  snap.counters[0].value = 142;              // +100 -> 100/s
  const std::string json = ToJson(snap, &prev);
  EXPECT_NE(json.find("\"interval_ns\":1000000000"), std::string::npos);
  EXPECT_NE(json.find(
                "{\"name\":\"c_total\",\"value\":142,\"rate_per_sec\":100}"),
            std::string::npos);
  // Histogram count unchanged -> zero rate.
  EXPECT_NE(json.find("\"rate_per_sec\":0,\"buckets\""), std::string::npos);
  // A stale or equal-timestamp prev yields no rate fields at all.
  EXPECT_EQ(ToJson(prev, &prev).find("rate_per_sec"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Line-format validator over a live registry render: every line of the
// Prometheus output must match the grammar, buckets must be cumulative,
// and the +Inf bucket must equal _count.
// ---------------------------------------------------------------------------

TEST(PrometheusTextTest, LineFormatValidatorOnLiveRegistry) {
  MetricsRegistry registry;
  registry.GetCounter("live_ops_total", "ops").Inc(7);
  registry.GetGauge("live_depth", "depth").Set(3);
  Histogram& hist = registry.GetHistogram("live_latency_ns", "lat");
  hist.Observe(5);
  hist.Observe(700);
  hist.Observe(700);

  const std::string text = ToPrometheusText(registry.Snapshot());
  const std::regex help_re(R"(# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+)");
  const std::regex type_re(
      R"(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram))");
  const std::regex sample_re(
      R"re([a-zA-Z_:][a-zA-Z0-9_:]*(\{le="(\+Inf|[0-9]+)"\})? -?[0-9]+(\.[0-9]+)?)re");

  std::map<std::string, std::uint64_t> last_bucket;  // histogram -> cumulative
  std::map<std::string, std::uint64_t> inf_bucket;
  std::map<std::string, std::uint64_t> count_series;
  std::istringstream lines(text);
  std::string line;
  std::size_t n_lines = 0;
  while (std::getline(lines, line)) {
    ++n_lines;
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP", 0) == 0) {
      EXPECT_TRUE(std::regex_match(line, help_re)) << line;
      continue;
    }
    if (line.rfind("# TYPE", 0) == 0) {
      EXPECT_TRUE(std::regex_match(line, type_re)) << line;
      continue;
    }
    ASSERT_TRUE(std::regex_match(line, sample_re)) << line;
    const std::size_t space = line.find_last_of(' ');
    const std::string series = line.substr(0, space);
    const std::uint64_t value = std::stoull(line.substr(space + 1));
    const std::size_t brace = series.find("_bucket{le=\"");
    if (brace != std::string::npos) {
      const std::string base = series.substr(0, brace);
      if (series.find("+Inf") != std::string::npos) {
        inf_bucket[base] = value;
      } else {
        // Buckets are cumulative: each le series >= the previous one.
        EXPECT_GE(value, last_bucket[base]) << line;
        last_bucket[base] = value;
      }
    } else if (series.size() > 6 &&
               series.compare(series.size() - 6, 6, "_count") == 0) {
      count_series[series.substr(0, series.size() - 6)] = value;
    }
  }
  EXPECT_GE(n_lines, 9u);
  ASSERT_EQ(inf_bucket.size(), 1u);
  for (const auto& [base, inf] : inf_bucket) {
    // +Inf bucket == _count, and no finite bucket exceeds it.
    EXPECT_EQ(inf, count_series[base]) << base;
    EXPECT_LE(last_bucket[base], inf) << base;
    if (kTelemetryEnabled) {
      EXPECT_EQ(inf, 3u) << base;
    }
  }
}

// ---------------------------------------------------------------------------
// Round-trip: the Prometheus and JSON writers must expose identical values
// for the same snapshot.
// ---------------------------------------------------------------------------

TEST(ExpositionTest, PrometheusAndJsonRoundTripSameSnapshot) {
  MetricsRegistry registry;
  registry.GetCounter("rt_ops_total").Inc(19);
  registry.GetGauge("rt_gauge").Set(-4);
  Histogram& hist = registry.GetHistogram("rt_ns");
  hist.Observe(100);
  const MetricsSnapshot snap = registry.Snapshot();

  const std::string prom = ToPrometheusText(snap);
  const std::string json = ToJson(snap);
  for (const CounterSample& c : snap.counters) {
    EXPECT_NE(prom.find(c.name + " " + std::to_string(c.value) + "\n"),
              std::string::npos);
    EXPECT_NE(json.find("{\"name\":\"" + c.name +
                        "\",\"value\":" + std::to_string(c.value) + "}"),
              std::string::npos);
  }
  for (const GaugeSample& g : snap.gauges) {
    EXPECT_NE(prom.find(g.name + " " + std::to_string(g.value) + "\n"),
              std::string::npos);
    EXPECT_NE(json.find("{\"name\":\"" + g.name +
                        "\",\"value\":" + std::to_string(g.value) + "}"),
              std::string::npos);
  }
  for (const HistogramSample& h : snap.histograms) {
    EXPECT_NE(prom.find(h.name + "_count " + std::to_string(h.count) + "\n"),
              std::string::npos);
    EXPECT_NE(prom.find(h.name + "_sum " + std::to_string(h.sum_ns) + "\n"),
              std::string::npos);
    EXPECT_NE(json.find("{\"name\":\"" + h.name +
                        "\",\"count\":" + std::to_string(h.count) +
                        ",\"sum_ns\":" + std::to_string(h.sum_ns)),
              std::string::npos);
  }
}

TEST(KillSwitchTest, DisabledBuildKeepsApiButWritesNothing) {
  // This test is meaningful in both flavors: with telemetry on it pins the
  // enabled semantics, with SKETCH_DISABLE_TELEMETRY it pins the no-op
  // semantics (and NowNs must not touch the clock, returning 0).
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("ks_total");
  c.Inc(9);
  if (kTelemetryEnabled) {
    EXPECT_EQ(c.Value(), 9u);
    EXPECT_GT(NowNs(), 0u);
  } else {
    EXPECT_EQ(c.Value(), 0u);
    EXPECT_EQ(NowNs(), 0u);
  }
  registry.ResetAllForTest();
  EXPECT_EQ(c.Value(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace substream
