/// Windowed-equivalence property (the acceptance contract of the windowed
/// subsystem): a WindowedMonitor queried over the last k windows must be
/// state/report-identical to a monolithic Monitor fed only those windows'
/// items — exactly (byte-for-byte serialized state against a same-order
/// merge reference, EQ-as-doubles for the linear report fields) — plus the
/// exponential-decay mode, ring eviction, serde/checkpoint of the whole
/// ring, and composition with the sharded pipeline via AdoptWindow.

#include "core/windowed_monitor.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/sharded_monitor.h"
#include "pipeline_test_util.h"
#include "serde/checkpoint.h"
#include "serde/serde.h"
#include "stream/generators.h"
#include "stream/samplers.h"

namespace substream {
namespace {

using pipeline_test::Bytes;
using pipeline_test::kSeed;
using pipeline_test::SampledStream;
using pipeline_test::SplitWindows;
using pipeline_test::TestConfig;

std::string TempPath(const std::string& name) {
  return "/tmp/substream_windowed_test_" + name + "_" +
         std::to_string(::getpid());
}

/// Linear summaries exact, candidate-tracking ones within the established
/// merge tolerance (same contract as the sharded equivalence tests).
void ExpectEquivalentReports(const MonitorReport& windowed,
                             const MonitorReport& whole) {
  EXPECT_EQ(windowed.sampled_length, whole.sampled_length);
  EXPECT_DOUBLE_EQ(windowed.scaled_length, whole.scaled_length);
  ASSERT_TRUE(windowed.distinct_items.has_value());
  EXPECT_DOUBLE_EQ(*windowed.distinct_items, *whole.distinct_items);
  ASSERT_TRUE(windowed.entropy.has_value());
  EXPECT_NEAR(windowed.entropy->entropy, whole.entropy->entropy,
              1e-9 * std::max(1.0, std::abs(whole.entropy->entropy)));
  ASSERT_TRUE(windowed.second_moment.has_value());
  EXPECT_NEAR(*windowed.second_moment, *whole.second_moment,
              0.15 * *whole.second_moment + 1.0);
  ASSERT_TRUE(windowed.heavy_hitters.has_value());
  ASSERT_FALSE(whole.heavy_hitters->empty());
}

TEST(WindowedMonitorTest, SlidingWindowMatchesMonolithicMonitor) {
  const MonitorConfig config = TestConfig();
  const auto windows = SplitWindows(SampledStream(90000, 11), 3);

  WindowedMonitor ring(config, kSeed, {/*windows=*/4, /*decay=*/1.0});
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (w > 0) ring.Rotate();
    ring.UpdateBatch(windows[w].data(), windows[w].size());
  }
  ASSERT_EQ(ring.epoch(), 2u);
  ASSERT_EQ(ring.retained(), 3u);

  for (std::size_t k = 1; k <= windows.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    // Monolithic reference: one monitor fed exactly the last k windows.
    Monitor monolithic(config, kSeed);
    for (std::size_t w = windows.size() - k; w < windows.size(); ++w) {
      monolithic.UpdateBatch(windows[w].data(), windows[w].size());
    }
    ExpectEquivalentReports(ring.Report(k), monolithic.Report());

    // The merge-at-query path itself is pinned byte-for-byte: merging
    // separately-fed per-window monitors in the same oldest-first order
    // must serialize identically to the ring's roll-up.
    Monitor reference(config, kSeed);
    for (std::size_t w = windows.size() - k; w < windows.size(); ++w) {
      Monitor window(config, kSeed);
      window.UpdateBatch(windows[w].data(), windows[w].size());
      reference.Merge(window);
    }
    EXPECT_EQ(Bytes(ring.MergedOverLast(k)), Bytes(reference))
        << "windowed roll-up state differs from same-order merge reference";
  }
}

TEST(WindowedMonitorTest, RingEvictsOldestWindowAtCapacity) {
  const MonitorConfig config = TestConfig();
  const auto windows = SplitWindows(SampledStream(60000, 17), 3);

  WindowedMonitor ring(config, kSeed, {/*windows=*/2, /*decay=*/1.0});
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (w > 0) ring.Rotate();
    ring.UpdateBatch(windows[w].data(), windows[w].size());
  }
  EXPECT_EQ(ring.capacity(), 2u);
  EXPECT_EQ(ring.retained(), 2u);
  EXPECT_EQ(ring.epoch(), 2u);

  // Window 0 fell off the horizon: the full-ring report covers w1 + w2.
  Monitor last_two(config, kSeed);
  last_two.UpdateBatch(windows[1].data(), windows[1].size());
  last_two.UpdateBatch(windows[2].data(), windows[2].size());
  ExpectEquivalentReports(ring.Report(), last_two.Report());
  EXPECT_EQ(ring.Report().sampled_length,
            windows[1].size() + windows[2].size());
  EXPECT_EQ(ring.WindowAt(0).Report().sampled_length, windows[2].size());
  EXPECT_EQ(ring.WindowAt(1).Report().sampled_length, windows[1].size());
}

TEST(WindowedMonitorTest, DecayedReportWeighsWindowsByAge) {
  MonitorConfig config = TestConfig();
  const double p = config.p;
  WindowedMonitorOptions options;
  options.windows = 4;
  options.decay = 0.5;
  WindowedMonitor ring(config, kSeed, options);

  // Two single-item windows with known masses: the decayed stream is
  // {item 1: decay * n0, item 2: n1}.
  const std::size_t n0 = 20000, n1 = 5000;
  for (std::size_t i = 0; i < n0; ++i) ring.Update(1);
  ring.Rotate();
  for (std::size_t i = 0; i < n1; ++i) ring.Update(2);

  const MonitorReport decayed = ring.ReportDecayed();
  const double m0 = options.decay * static_cast<double>(n0);  // aged mass
  const double m1 = static_cast<double>(n1);

  EXPECT_EQ(decayed.sampled_length,
            static_cast<count_t>(std::llround(m0)) + n1);
  EXPECT_DOUBLE_EQ(decayed.scaled_length,
                   static_cast<double>(decayed.sampled_length) / p);

  // Entropy of the decayed two-point distribution.
  const double total = m0 + m1;
  const double expected_entropy = -(m0 / total) * std::log2(m0 / total) -
                                  (m1 / total) * std::log2(m1 / total);
  ASSERT_TRUE(decayed.entropy.has_value());
  EXPECT_NEAR(decayed.entropy->entropy, expected_entropy, 1e-6);

  // Decayed self-join size of two disjoint items: m0^2 + m1^2, unbiased by
  // p^2 inside the estimator; sketch tolerance applies.
  ASSERT_TRUE(decayed.second_moment.has_value());
  const double expected_f2 = (m0 * m0 + m1 * m1) / (p * p);
  EXPECT_NEAR(*decayed.second_moment, expected_f2, 0.15 * expected_f2);

  // Both items are heavy; their decayed frequencies rescale by 1/p.
  ASSERT_TRUE(decayed.heavy_hitters.has_value());
  ASSERT_EQ(decayed.heavy_hitters->size(), 2u);
  EXPECT_EQ(decayed.heavy_hitters->front().item, 1u);  // m0 > m1
  EXPECT_NEAR(decayed.heavy_hitters->front().estimated_frequency, m0 / p,
              0.05 * m0 / p + 1.0);
  EXPECT_NEAR(decayed.heavy_hitters->back().estimated_frequency, m1 / p,
              0.05 * m1 / p + 1.0);

  // F0 merges unscaled: the decayed report still covers both items'
  // distinct mass, identically to the sliding report.
  EXPECT_DOUBLE_EQ(*decayed.distinct_items, *ring.Report().distinct_items);
}

TEST(WindowedMonitorTest, DecayedReportSurvivesWeightUnderflow) {
  // Aggressive decay: decay^age underflows to 0.0 for old-enough windows
  // (here at age 2 already). Their counter mass has fully aged out, but
  // the weight must be clamped — not skipped and not handed to Merge as an
  // invalid zero weight (which aborted before the fix) — so their F0 state
  // still merges: distinct counts age out only by ring eviction.
  MonitorConfig config = TestConfig();
  config.universe = 64;
  config.max_f2_width = 1 << 5;
  WindowedMonitorOptions options;
  options.windows = 3;
  options.decay = 1e-300;
  WindowedMonitor ring(config, kSeed, options);

  for (std::size_t i = 0; i < 100; ++i) ring.Update(1);
  ring.Rotate();
  for (std::size_t i = 0; i < 100; ++i) ring.Update(2);
  ring.Rotate();
  for (std::size_t i = 0; i < 100; ++i) ring.Update(3);

  const MonitorReport decayed = ring.ReportDecayed();
  // Ages 1 and 2 round/underflow to nothing: only the current window's
  // mass survives.
  EXPECT_EQ(decayed.sampled_length, 100u);
  // ...while the distinct count still spans every retained window (F0
  // merges unscaled regardless of weight).
  EXPECT_DOUBLE_EQ(*decayed.distinct_items, *ring.Report().distinct_items);
}

TEST(WindowedMonitorTest, DecayOneEqualsSlidingWindow) {
  const MonitorConfig config = TestConfig();
  const auto windows = SplitWindows(SampledStream(40000, 23), 2);
  WindowedMonitor ring(config, kSeed, {/*windows=*/3, /*decay=*/1.0});
  ring.UpdateBatch(windows[0].data(), windows[0].size());
  ring.Rotate();
  ring.UpdateBatch(windows[1].data(), windows[1].size());

  const MonitorReport sliding = ring.Report();
  const MonitorReport decayed = ring.ReportDecayed();
  EXPECT_EQ(decayed.sampled_length, sliding.sampled_length);
  EXPECT_DOUBLE_EQ(*decayed.distinct_items, *sliding.distinct_items);
  EXPECT_DOUBLE_EQ(*decayed.second_moment, *sliding.second_moment);
  EXPECT_DOUBLE_EQ(decayed.entropy->entropy, sliding.entropy->entropy);
  ASSERT_EQ(decayed.heavy_hitters->size(), sliding.heavy_hitters->size());
}

TEST(WindowedMonitorTest, SerdeRoundTripPreservesEveryWindow) {
  const MonitorConfig config = TestConfig();
  const auto windows = SplitWindows(SampledStream(60000, 29), 3);
  WindowedMonitorOptions options;
  options.windows = 4;
  options.decay = 0.75;
  WindowedMonitor ring(config, kSeed, options);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (w > 0) ring.Rotate();
    ring.UpdateBatch(windows[w].data(), windows[w].size());
  }

  serde::Writer writer;
  ring.Serialize(writer);
  serde::Reader reader(writer.bytes());
  auto restored = WindowedMonitor::Deserialize(reader);
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.remaining(), 0u);

  EXPECT_EQ(restored->epoch(), ring.epoch());
  EXPECT_EQ(restored->retained(), ring.retained());
  EXPECT_EQ(restored->capacity(), ring.capacity());
  EXPECT_DOUBLE_EQ(restored->options().decay, options.decay);
  // Window-for-window state identity, strongest available form.
  for (std::size_t age = 0; age < ring.retained(); ++age) {
    SCOPED_TRACE(testing::Message() << "age=" << age);
    EXPECT_EQ(Bytes(restored->WindowAt(age)), Bytes(ring.WindowAt(age)));
  }
  // And the roll-ups agree, sliding and decayed.
  EXPECT_EQ(Bytes(restored->MergedOverLast(0)), Bytes(ring.MergedOverLast(0)));
  EXPECT_DOUBLE_EQ(restored->ReportDecayed().entropy->entropy,
                   ring.ReportDecayed().entropy->entropy);
}

TEST(WindowedMonitorTest, DeserializeRejectsCorruptContainers) {
  // Tiny geometry: the truncation sweep below decodes O(record size^2 /
  // stride) bytes, which would be seconds against full-size sketches.
  MonitorConfig config = TestConfig();
  config.universe = 64;
  config.max_f2_width = 1 << 5;
  WindowedMonitor ring(config, kSeed, {/*windows=*/2, /*decay=*/0.5});
  ring.Update(1);
  ring.Rotate();
  ring.Update(2);

  serde::Writer writer;
  ring.Serialize(writer);
  const std::vector<std::uint8_t>& good = writer.bytes();

  // Truncations at every prefix must fail cleanly, never crash.
  for (std::size_t len = 0; len < good.size(); len += 7) {
    serde::Reader reader(good.data(), len);
    EXPECT_FALSE(WindowedMonitor::Deserialize(reader).has_value())
        << "truncated to " << len << " bytes";
  }

  // A decay outside (0, 1] is rejected before any window decodes.
  std::vector<std::uint8_t> bad = good;
  // Layout: tag, version, varint windows(=2), f64 decay.
  bad[3 + 7] = 0x40;  // highest byte of the little-endian f64: decay = 2.5ish
  serde::Reader reader(bad);
  EXPECT_FALSE(WindowedMonitor::Deserialize(reader).has_value());

  // A corrupted ring capacity must fail the decode, never size an
  // allocation from the wire (vector::reserve on 2^63 monitors would
  // throw instead of returning nullopt).
  std::vector<std::uint8_t> huge_capacity(good.begin(), good.begin() + 2);
  std::uint64_t v = 1ULL << 63;
  while (v >= 0x80) {
    huge_capacity.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  huge_capacity.push_back(static_cast<std::uint8_t>(v));
  huge_capacity.insert(huge_capacity.end(), good.begin() + 3, good.end());
  serde::Reader huge_reader(huge_capacity);
  EXPECT_FALSE(WindowedMonitor::Deserialize(huge_reader).has_value());
}

TEST(WindowedMonitorTest, CheckpointRestoreRoundTrip) {
  const MonitorConfig config = TestConfig();
  const auto windows = SplitWindows(SampledStream(40000, 31), 2);
  WindowedMonitor ring(config, kSeed, {/*windows=*/3, /*decay=*/1.0});
  ring.UpdateBatch(windows[0].data(), windows[0].size());
  ring.Rotate();
  ring.UpdateBatch(windows[1].data(), windows[1].size());

  const std::string path = TempPath("ring");
  ASSERT_TRUE(ring.Checkpoint(path));
  auto restored = WindowedMonitor::Restore(path);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(Bytes(*restored), Bytes(ring));

  // The restored ring keeps rotating and reporting like the original.
  restored->Rotate();
  EXPECT_EQ(restored->epoch(), ring.epoch() + 1);

  // Flipping one payload byte must fail the checkpoint CRC.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    const int last = std::fgetc(f);
    std::fseek(f, -1, SEEK_END);
    std::fputc(last ^ 0x5a, f);
    std::fclose(f);
  }
  EXPECT_FALSE(WindowedMonitor::Restore(path).has_value());
  std::remove(path.c_str());
}

TEST(WindowedMonitorTest, AdoptWindowComposesWithShardedPipeline) {
  const MonitorConfig config = TestConfig();
  const auto windows = SplitWindows(SampledStream(80000, 37), 2);

  ShardedMonitorOptions options;
  options.shards = 4;
  options.batch_items = 512;
  ShardedMonitor sharded(config, kSeed, options);
  WindowedMonitor ring(config, kSeed, {/*windows=*/4, /*decay=*/1.0});

  for (const Stream& window : windows) {
    sharded.Ingest(window.data(), window.size());
    sharded.Rotate();
    auto closed = sharded.CollectWindow(sharded.CurrentEpoch() - 1);
    ASSERT_TRUE(closed.has_value());
    ring.AdoptWindow(std::move(*closed));
  }

  // The adopted ring reports like a monolithic monitor over both windows.
  Monitor whole(config, kSeed);
  whole.UpdateBatch(windows[0].data(), windows[0].size());
  whole.UpdateBatch(windows[1].data(), windows[1].size());
  // The first ring window (pre-adoption current) is empty, so the full-
  // ring report covers exactly the two adopted windows.
  ExpectEquivalentReports(ring.Report(), whole.Report());
}

TEST(WindowedMonitorDeathTest, AdoptWindowRejectsForeignSeeds) {
  const MonitorConfig config = TestConfig();
  WindowedMonitor ring(config, kSeed, {/*windows=*/2, /*decay=*/1.0});
  Monitor foreign(config, kSeed + 1);
  EXPECT_DEATH(ring.AdoptWindow(std::move(foreign)), "disagrees");
}

}  // namespace
}  // namespace substream
