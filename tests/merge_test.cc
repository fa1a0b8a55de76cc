/// Merge semantics across the sketch family: a merged sketch must be
/// equivalent (exactly, for linear sketches; within guarantees, for
/// summaries) to a single sketch fed the concatenated stream. This is the
/// distributed-monitors setting of the related work [16, 36]: several
/// routers each sample and sketch locally, a collector merges.

#include <array>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/substream.h"
#include "serde/serde.h"

namespace substream {
namespace {

struct TwoStreams {
  Stream a;
  Stream b;
  Stream both;
};

TwoStreams MakeStreams() {
  TwoStreams t;
  ZipfGenerator g1(2000, 1.2, 1);
  ZipfGenerator g2(3000, 1.0, 2);
  t.a = Materialize(g1, 30000);
  t.b = Materialize(g2, 40000);
  t.both = t.a;
  t.both.insert(t.both.end(), t.b.begin(), t.b.end());
  return t;
}

TEST(MergeTest, CountMinEqualsConcatenation) {
  TwoStreams t = MakeStreams();
  CountMinSketch sa(5, 1024, false, 7), sb(5, 1024, false, 7),
      sboth(5, 1024, false, 7);
  for (item_t x : t.a) sa.Update(x);
  for (item_t x : t.b) sb.Update(x);
  for (item_t x : t.both) sboth.Update(x);
  sa.Merge(sb);
  EXPECT_EQ(sa.TotalCount(), sboth.TotalCount());
  for (item_t probe : {1, 2, 3, 10, 100, 999}) {
    EXPECT_EQ(sa.Estimate(static_cast<item_t>(probe)),
              sboth.Estimate(static_cast<item_t>(probe)));
  }
}

TEST(MergeTest, CountSketchEqualsConcatenation) {
  TwoStreams t = MakeStreams();
  CountSketch sa(5, 1024, 9), sb(5, 1024, 9), sboth(5, 1024, 9);
  for (item_t x : t.a) sa.Update(x);
  for (item_t x : t.b) sb.Update(x);
  for (item_t x : t.both) sboth.Update(x);
  sa.Merge(sb);
  EXPECT_DOUBLE_EQ(sa.EstimateF2(), sboth.EstimateF2());
  for (item_t probe : {1, 2, 3, 10, 100}) {
    EXPECT_DOUBLE_EQ(sa.Estimate(static_cast<item_t>(probe)),
                     sboth.Estimate(static_cast<item_t>(probe)));
  }
}

TEST(MergeTest, AmsEqualsConcatenation) {
  TwoStreams t = MakeStreams();
  AmsF2Sketch sa = AmsF2Sketch::WithGeometry(5, 64, 11);
  AmsF2Sketch sb = AmsF2Sketch::WithGeometry(5, 64, 11);
  AmsF2Sketch sboth = AmsF2Sketch::WithGeometry(5, 64, 11);
  for (item_t x : t.a) sa.Update(x);
  for (item_t x : t.b) sb.Update(x);
  for (item_t x : t.both) sboth.Update(x);
  sa.Merge(sb);
  EXPECT_DOUBLE_EQ(sa.Estimate(), sboth.Estimate());
}

TEST(MergeTest, KmvEqualsConcatenation) {
  TwoStreams t = MakeStreams();
  KmvSketch sa(256, 13), sb(256, 13), sboth(256, 13);
  for (item_t x : t.a) sa.Update(x);
  for (item_t x : t.b) sb.Update(x);
  for (item_t x : t.both) sboth.Update(x);
  sa.Merge(sb);
  EXPECT_DOUBLE_EQ(sa.Estimate(), sboth.Estimate());
}

TEST(MergeTest, HllEqualsConcatenation) {
  TwoStreams t = MakeStreams();
  HyperLogLog sa(12, 15), sb(12, 15), sboth(12, 15);
  for (item_t x : t.a) sa.Update(x);
  for (item_t x : t.b) sb.Update(x);
  for (item_t x : t.both) sboth.Update(x);
  sa.Merge(sb);
  EXPECT_DOUBLE_EQ(sa.Estimate(), sboth.Estimate());
}

TEST(MergeTest, MisraGriesKeepsGuaranteeAfterMerge) {
  TwoStreams t = MakeStreams();
  const std::size_t k = 64;
  MisraGries sa(k), sb(k);
  for (item_t x : t.a) sa.Update(x);
  for (item_t x : t.b) sb.Update(x);
  sa.Merge(sb);
  FrequencyTable exact = ExactStats(t.both);
  // Mergeable-summaries guarantee: estimates never overestimate and the
  // total error stays within F1 / (k+1) for the combined stream (Agarwal
  // et al.); the accumulated decrement bound is exposed directly.
  for (const auto& [item, f] : exact.counts()) {
    EXPECT_LE(sa.Estimate(item), f);
    EXPECT_GE(static_cast<double>(sa.Estimate(item)),
              static_cast<double>(f) -
                  static_cast<double>(sa.ErrorBound()) - 1.0);
  }
  EXPECT_LE(static_cast<double>(sa.ErrorBound()),
            2.0 * static_cast<double>(exact.F1()) / (k + 1));
}

TEST(MergeTest, MisraGriesMergeBoundedSize) {
  MisraGries sa(16), sb(16);
  for (item_t x = 0; x < 200; ++x) sa.Update(x, 10 + x);
  for (item_t x = 100; x < 300; ++x) sb.Update(x, 5 + x);
  sa.Merge(sb);
  EXPECT_LE(sa.SpaceBytes(), 16u * (sizeof(item_t) + sizeof(count_t)));
}

TEST(MergeTest, IndykWoodruffEqualsConcatenationEstimates) {
  TwoStreams t = MakeStreams();
  LevelSetParams params;
  params.eps_prime = 0.2;
  params.max_depth = 12;
  params.cs_depth = 5;
  params.cs_width = 1024;
  IndykWoodruffEstimator sa(params, 17), sb(params, 17), sboth(params, 17);
  for (item_t x : t.a) sa.Update(x);
  for (item_t x : t.b) sb.Update(x);
  for (item_t x : t.both) sboth.Update(x);
  sa.Merge(sb);
  EXPECT_EQ(sa.ConsumedLength(), sboth.ConsumedLength());
  // The underlying CountSketches merge exactly; candidate pools may differ
  // slightly (tracking is order-dependent), so compare the final collision
  // estimates within a modest tolerance.
  EXPECT_NEAR(sa.EstimateCollisions(2), sboth.EstimateCollisions(2),
              0.25 * sboth.EstimateCollisions(2) + 1.0);
}

TEST(MergeTest, SpaceSavingKeepsGuaranteeAfterMerge) {
  TwoStreams t = MakeStreams();
  const std::size_t k = 64;
  SpaceSaving sa(k), sb(k);
  for (item_t x : t.a) sa.Update(x);
  for (item_t x : t.b) sb.Update(x);
  sa.Merge(sb);
  FrequencyTable exact = ExactStats(t.both);
  // Merged summary keeps the SpaceSaving envelope for the combined stream:
  // estimates never underestimate, and overestimate by at most F1_total/k.
  const double bound = static_cast<double>(exact.F1()) / static_cast<double>(k);
  for (const auto& [item, est] : sa.Candidates(0.0)) {
    EXPECT_GE(static_cast<double>(est),
              static_cast<double>(exact.Frequency(item)))
        << "item " << item;
    EXPECT_LE(static_cast<double>(est),
              static_cast<double>(exact.Frequency(item)) + bound)
        << "item " << item;
  }
  EXPECT_LE(sa.SpaceBytes(), k * (sizeof(item_t) + 2 * sizeof(count_t)));
}

TEST(MergeTest, EntropyMleEqualsConcatenation) {
  TwoStreams t = MakeStreams();
  EntropyMleEstimator ea, eb, eboth;
  for (item_t x : t.a) ea.Update(x);
  for (item_t x : t.b) eb.Update(x);
  for (item_t x : t.both) eboth.Update(x);
  ea.Merge(eb);
  EXPECT_EQ(ea.ConsumedLength(), eboth.ConsumedLength());
  EXPECT_NEAR(ea.Estimate(), eboth.Estimate(), 1e-9);
}

TEST(MergeTest, HeavyHitterTrackersMerge) {
  TwoStreams t = MakeStreams();
  CountMinHeavyHitters ha(0.02, 0.25, 0.05, 31), hb(0.02, 0.25, 0.05, 31),
      hboth(0.02, 0.25, 0.05, 31);
  for (item_t x : t.a) ha.Update(x);
  for (item_t x : t.b) hb.Update(x);
  for (item_t x : t.both) hboth.Update(x);
  ha.Merge(hb);
  EXPECT_EQ(ha.TotalCount(), hboth.TotalCount());
  // The merged CountMin is exactly the concatenation sketch, so shared
  // candidates get identical estimates.
  const auto merged = ha.Candidates(0.02);
  const auto whole = hboth.Candidates(0.02);
  ASSERT_FALSE(whole.empty());
  EXPECT_EQ(merged.front().first, whole.front().first);
  EXPECT_EQ(merged.front().second, whole.front().second);
}

TEST(MergeTest, MonitorMergeMatchesSingleMonitor) {
  TwoStreams t = MakeStreams();
  MonitorConfig config;
  config.p = 1.0;
  config.universe = 4000;
  Monitor ma(config, 41), mb(config, 41), mboth(config, 41);
  ma.UpdateBatch(t.a.data(), t.a.size());
  mb.UpdateBatch(t.b.data(), t.b.size());
  mboth.UpdateBatch(t.both.data(), t.both.size());
  ma.Merge(mb);
  const MonitorReport merged = ma.Report(), whole = mboth.Report();
  EXPECT_EQ(merged.sampled_length, whole.sampled_length);
  EXPECT_DOUBLE_EQ(*merged.distinct_items, *whole.distinct_items);
  EXPECT_NEAR(merged.entropy->entropy, whole.entropy->entropy, 1e-9);
  EXPECT_NEAR(*merged.second_moment, *whole.second_moment,
              0.15 * *whole.second_moment + 1.0);
}

using MergePreconditionDeathTest = ::testing::Test;

TEST(MergePreconditionDeathTest, MismatchedGeometryOrSeedAborts) {
  // Merging sketches with different geometry or seed must fail loudly
  // (SUBSTREAM_CHECK abort), never silently corrupt estimates.
  CountMinSketch cm_a(5, 1024, false, 7), cm_seed(5, 1024, false, 8),
      cm_width(5, 512, false, 7);
  EXPECT_DEATH(cm_a.Merge(cm_seed), "incompatible CountMin");
  EXPECT_DEATH(cm_a.Merge(cm_width), "incompatible CountMin");

  CountSketch cs_a(5, 1024, 9), cs_b(7, 1024, 9);
  EXPECT_DEATH(cs_a.Merge(cs_b), "incompatible CountSketch");

  AmsF2Sketch ams_a = AmsF2Sketch::WithGeometry(5, 64, 11);
  AmsF2Sketch ams_b = AmsF2Sketch::WithGeometry(5, 32, 11);
  EXPECT_DEATH(ams_a.Merge(ams_b), "incompatible AMS");

  KmvSketch kmv_a(256, 13), kmv_b(256, 14);
  EXPECT_DEATH(kmv_a.Merge(kmv_b), "incompatible KMV");

  HyperLogLog hll_a(12, 15), hll_b(12, 16);
  EXPECT_DEATH(hll_a.Merge(hll_b), "incompatible HyperLogLog");

  MisraGries mg_a(16), mg_b(32);
  EXPECT_DEATH(mg_a.Merge(mg_b), "different k");

  SpaceSaving ss_a(16), ss_b(32);
  EXPECT_DEATH(ss_a.Merge(ss_b), "different k");

  LevelSetParams params;
  IndykWoodruffEstimator iw_a(params, 17), iw_b(params, 18);
  EXPECT_DEATH(iw_a.Merge(iw_b), "incompatible level-set");
}

TEST(MergePreconditionDeathTest, MismatchedMonitorsAbort) {
  MonitorConfig config;
  config.p = 0.5;
  Monitor seed_a(config, 1), seed_b(config, 2);
  EXPECT_DEATH(seed_a.Merge(seed_b), "different seeds");

  MonitorConfig other = config;
  other.p = 0.25;
  Monitor config_a(config, 3), config_b(other, 3);
  EXPECT_DEATH(config_a.Merge(config_b), "different configurations");
}

TEST(MergePreconditionDeathTest, MismatchedEstimatorsAbort) {
  F0Params f0_kmv, f0_hll;
  f0_hll.backend = F0Backend::kHyperLogLog;
  F0Estimator f0_a(f0_kmv, 1), f0_b(f0_hll, 1);
  EXPECT_DEATH(f0_a.Merge(f0_b), "different configurations");

  HeavyHitterParams hh_params, hh_other;
  hh_other.alpha = 0.5;
  F1HeavyHitterEstimator hh_a(hh_params, 1), hh_b(hh_other, 1);
  EXPECT_DEATH(hh_a.Merge(hh_b), "different configurations");
}

TEST(MergeTest, DistributedMonitorsPipeline) {
  // End-to-end distributed scenario: two routers Bernoulli-sample their
  // local traffic at the same rate, sketch locally, and a collector merges
  // to answer about the union of the *original* streams.
  TwoStreams t = MakeStreams();
  const double p = 0.2;
  FrequencyTable exact = ExactStats(t.both);

  KmvSketch kmv_a(1024, 19), kmv_b(1024, 19);
  CountSketch cs_a(7, 2048, 21), cs_b(7, 2048, 21);
  BernoulliSampler sampler_a(p, 23), sampler_b(p, 29);
  count_t len_a = 0, len_b = 0;
  for (item_t x : t.a) {
    if (sampler_a.Keep()) {
      kmv_a.Update(x);
      cs_a.Update(x);
      ++len_a;
    }
  }
  for (item_t x : t.b) {
    if (sampler_b.Keep()) {
      kmv_b.Update(x);
      cs_b.Update(x);
      ++len_b;
    }
  }
  kmv_a.Merge(kmv_b);
  cs_a.Merge(cs_b);

  // F0 via Algorithm 2 scaling on the merged sketch.
  const double f0_est = kmv_a.Estimate() / std::sqrt(p);
  EXPECT_TRUE(WithinFactor(f0_est, static_cast<double>(exact.F0()),
                           4.0 / std::sqrt(p)));

  // F2 via Rusu–Dobra-style unbiasing of the merged CountSketch F2.
  const double f1_sampled = static_cast<double>(len_a + len_b);
  const double f2_est =
      (cs_a.EstimateF2() - (1.0 - p) * f1_sampled) / (p * p);
  EXPECT_TRUE(WithinFactor(f2_est, exact.Fk(2), 1.5));
}

// ---------------------------------------------------------------------------
// Decayed-merge byte pins. Every weight-taking summary folds a second
// summary in at weights {1, 0.5, 0.01}; the CRC-32 of the merged wire
// record is pinned, so any change to the merge arithmetic — rounding,
// zero-skipping, total bookkeeping, candidate refresh and eviction order —
// fails here even when the estimates stay plausible. Counter-array classes
// are pinned at 64-bit and 16-bit cells (the narrow side runs the
// level-summed merge path). The plain one-argument Merge must serialize
// exactly like the explicit weight-1 merge.

constexpr std::array<double, 3> kPinWeights = {1.0, 0.5, 0.01};
using PinCrcs = std::array<std::uint32_t, 3>;

struct PinStreams {
  Stream a;
  Stream b;
};

const PinStreams& GetPinStreams() {
  static const PinStreams* streams = [] {
    auto* s = new PinStreams;
    ZipfGenerator ga(1500, 1.1, 101);
    ZipfGenerator gb(1500, 1.3, 202);
    s->a = Materialize(ga, 6000);
    s->b = Materialize(gb, 5000);
    return s;
  }();
  return *streams;
}

template <typename S>
std::uint32_t WireCrc(const S& summary) {
  serde::Writer writer;
  summary.Serialize(writer);
  return serde::Crc32(writer.bytes().data(), writer.size());
}

/// Builds two summaries with `make`, feeds them the two pinned Zipf
/// streams, merges the second into the first at each pinned weight and
/// compares the merged record's CRC with `expected`.
template <typename Make>
void ExpectMergePins(Make make, const PinCrcs& expected) {
  const PinStreams& s = GetPinStreams();
  for (std::size_t w = 0; w < kPinWeights.size(); ++w) {
    auto into = make();
    auto from = make();
    into.UpdateBatch(s.a.data(), s.a.size());
    from.UpdateBatch(s.b.data(), s.b.size());
    into.Merge(from, kPinWeights[w]);
    EXPECT_EQ(WireCrc(into), expected[w]) << "weight " << kPinWeights[w];
  }
  auto into = make();
  auto from = make();
  into.UpdateBatch(s.a.data(), s.a.size());
  from.UpdateBatch(s.b.data(), s.b.size());
  into.Merge(from);
  EXPECT_EQ(WireCrc(into), expected[0]) << "plain Merge vs weight 1";
}

TEST(MergePinTest, ScaleCounterIsExactAtWeightOne) {
  // Weight 1 is the exact merge: no round trip through double, which
  // would round counts past 2^53.
  const count_t big = (count_t{1} << 60) + 1;
  EXPECT_EQ(ScaleCounter(big, 1.0), big);
  const std::int64_t signed_big = -((std::int64_t{1} << 60) + 1);
  EXPECT_EQ(ScaleCounter(signed_big, 1.0), signed_big);
}

TEST(MergePinTest, CountMinSketch) {
  ExpectMergePins([] { return CountMinSketch(4, 256, false, 301); },
                  PinCrcs{3793147752u, 2426342152u, 3496704773u});
  ExpectMergePins(
      [] {
        return CountMinSketch(4, 256, false, 301,
                              CounterTableOptions{CellWidth::k16});
      },
      PinCrcs{2771067377u, 1164481617u, 338019859u});
}

TEST(MergePinTest, CountMinHeavyHitters) {
  ExpectMergePins([] { return CountMinHeavyHitters(0.5, 0.5, 0.05, 302); },
                  PinCrcs{3901797770u, 4263948902u, 3444420574u});
  ExpectMergePins(
      [] {
        return CountMinHeavyHitters(0.5, 0.5, 0.05, 302,
                                    CounterTableOptions{CellWidth::k16});
      },
      PinCrcs{3976872179u, 494863080u, 200403866u});
}

TEST(MergePinTest, CountSketch) {
  ExpectMergePins([] { return CountSketch(5, 256, 303); },
                  PinCrcs{3613310730u, 3934123547u, 1421102496u});
  ExpectMergePins(
      [] {
        return CountSketch(5, 256, 303, CounterTableOptions{CellWidth::k16});
      },
      PinCrcs{1875162616u, 1259643689u, 2737095592u});
}

TEST(MergePinTest, CountSketchHeavyHitters) {
  ExpectMergePins(
      [] { return CountSketchHeavyHitters(0.9, 0.5, 0.05, 304); },
      PinCrcs{1827809253u, 2841353809u, 653626530u});
  ExpectMergePins(
      [] {
        return CountSketchHeavyHitters(0.9, 0.5, 0.05, 304,
                                       CounterTableOptions{CellWidth::k16});
      },
      PinCrcs{103311067u, 2324816040u, 802126174u});
}

LevelSetParams PinLevelSetParams(CellWidth cell_width) {
  // Small pools and a low recoverability bar, so both the candidate
  // eviction and the exact-map overflow run during ingest and merge.
  LevelSetParams params;
  params.max_depth = 8;
  params.heavy_factor = 0.05;
  params.cs_width = 64;
  params.candidate_capacity = 8;
  params.exact_capacity = 96;
  params.cell_width = cell_width;
  return params;
}

TEST(MergePinTest, IndykWoodruffEstimator) {
  ExpectMergePins(
      [] {
        return IndykWoodruffEstimator(PinLevelSetParams(CellWidth::k64), 305);
      },
      PinCrcs{835804217u, 222908577u, 732868186u});
  ExpectMergePins(
      [] {
        return IndykWoodruffEstimator(PinLevelSetParams(CellWidth::k16), 305);
      },
      PinCrcs{788185675u, 806996820u, 1294695432u});
}

TEST(MergePinTest, ExactLevelSets) {
  ExpectMergePins([] { return ExactLevelSets(0.25, 0.5); },
                  PinCrcs{627037931u, 3249937017u, 592423277u});
}

TEST(MergePinTest, EntropyMleEstimator) {
  ExpectMergePins([] { return EntropyMleEstimator(); },
                  PinCrcs{3358198454u, 1238174092u, 1941876466u});
}

TEST(MergePinTest, EntropyEstimator) {
  ExpectMergePins([] { return EntropyEstimator(EntropyParams{}, 306); },
                  PinCrcs{1841754529u, 3279916563u, 3266881676u});
}

FkParams PinFkParams(CollisionBackend backend, CellWidth cell_width) {
  FkParams params;
  params.universe = 2048;
  params.epsilon = 0.25;
  params.backend = backend;
  params.cell_width = cell_width;
  return params;
}

TEST(MergePinTest, FkEstimatorSketchBackend) {
  ExpectMergePins(
      [] {
        return FkEstimator(
            PinFkParams(CollisionBackend::kSketch, CellWidth::k64), 307);
      },
      PinCrcs{1822520554u, 1222383255u, 1181655996u});
  ExpectMergePins(
      [] {
        return FkEstimator(
            PinFkParams(CollisionBackend::kSketch, CellWidth::k16), 307);
      },
      PinCrcs{3247716170u, 3530670209u, 4131673043u});
}

TEST(MergePinTest, FkEstimatorExactBackend) {
  ExpectMergePins(
      [] {
        return FkEstimator(
            PinFkParams(CollisionBackend::kExactCollisions, CellWidth::k64),
            307);
      },
      PinCrcs{1910663423u, 2939320992u, 3504511382u});
}

HeavyHitterParams PinHeavyHitterParams(CellWidth cell_width) {
  HeavyHitterParams params;
  params.alpha = 0.3;
  params.epsilon = 0.5;
  params.cell_width = cell_width;
  return params;
}

TEST(MergePinTest, F1HeavyHitterEstimator) {
  ExpectMergePins(
      [] {
        return F1HeavyHitterEstimator(PinHeavyHitterParams(CellWidth::k64),
                                      308);
      },
      PinCrcs{1061206156u, 3056342895u, 3531592137u});
  ExpectMergePins(
      [] {
        return F1HeavyHitterEstimator(PinHeavyHitterParams(CellWidth::k16),
                                      308);
      },
      PinCrcs{3721415008u, 34848961u, 1577842745u});
}

TEST(MergePinTest, F2HeavyHitterEstimator) {
  ExpectMergePins(
      [] {
        return F2HeavyHitterEstimator(PinHeavyHitterParams(CellWidth::k64),
                                      309);
      },
      PinCrcs{4292804125u, 686680656u, 1149560594u});
  ExpectMergePins(
      [] {
        return F2HeavyHitterEstimator(PinHeavyHitterParams(CellWidth::k16),
                                      309);
      },
      PinCrcs{2774178975u, 4256336293u, 2345345252u});
}

MonitorConfig PinMonitorConfig(CellWidth cell_width) {
  MonitorConfig config;
  config.universe = 2048;
  config.hh_alpha = 0.3;
  config.cell_width = cell_width;
  return config;
}

TEST(MergePinTest, Monitor) {
  ExpectMergePins(
      [] { return Monitor(PinMonitorConfig(CellWidth::k64), 310); },
      PinCrcs{1660327005u, 884749174u, 2664923644u});
  ExpectMergePins(
      [] { return Monitor(PinMonitorConfig(CellWidth::k16), 310); },
      PinCrcs{937351317u, 2465338357u, 2859915604u});
}

}  // namespace
}  // namespace substream
