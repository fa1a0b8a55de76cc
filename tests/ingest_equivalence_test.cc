/// Property test for the ingest contract: for EVERY summary class, the
/// three ingest paths —
///   (a) scalar:    Update(item) per element,
///   (b) batched:   UpdateBatch(data, n),
///   (c) prehashed: PrehashColumnSoA + UpdatePrehashed(PrehashedColumns, n)
/// — must leave the summary in bit-identical state, at every SIMD dispatch
/// level the host supports and at the batch sizes that sit on the kernel
/// boundaries: 0 and 1 (empty/degenerate), 63/64/65 (the 64-item
/// micro-block edge), 1023/1024/1025 (the cache-block and prehash chunk
/// edge), plus a 20000-item stream whose Zipf head drives u8 and u16 cells
/// through spill promotion mid-stream. "Bit-identical" is asserted in the
/// strongest available form: the serialized wire records (which include
/// every counter, candidate pool, float row norm and RNG state) must match
/// byte for byte, and estimates must compare EQ as doubles. This pins the
/// invariant of the shared prehash stage: it is a pure factoring of work,
/// never a change in semantics — including the FP row-norm accumulation
/// order in CountSketch and the PRNG consumption order in the reservoir
/// sketches.

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/entropy_estimator.h"
#include "core/f0_estimator.h"
#include "core/fk_estimator.h"
#include "core/heavy_hitters.h"
#include "core/monitor.h"
#include "serde/serde.h"
#include "sketch/ams_f2.h"
#include "sketch/counter_kernels.h"
#include "sketch/countmin.h"
#include "sketch/countsketch.h"
#include "sketch/entropy_sketch.h"
#include "sketch/hyperloglog.h"
#include "sketch/kmv.h"
#include "sketch/level_sets.h"
#include "sketch/misra_gries.h"
#include "sketch/space_saving.h"
#include "stream/generators.h"
#include "util/hash.h"
#include "util/simd.h"

namespace substream {
namespace {

constexpr std::size_t kItems = 20000;
constexpr std::size_t kSizes[] = {0,    1,    63,   64,    65,
                                  1023, 1024, 1025, kItems};

/// A fixed Zipf stream and its prehash column, so size N is always the
/// same N items on every path.
struct Fixture {
  Stream items;
  std::vector<std::uint64_t> hashes;

  static const Fixture& Get() {
    static const Fixture fixture = [] {
      Fixture f;
      ZipfGenerator generator(4096, 1.2, 42);
      f.items = Materialize(generator, kItems);
      f.hashes.resize(f.items.size());
      PrehashColumnSoA(f.items.data(), f.items.size(), f.hashes.data());
      return f;
    }();
    return fixture;
  }

  PrehashedColumns Columns() const {
    return PrehashedColumns{items.data(), hashes.data()};
  }
};

template <typename S>
std::vector<std::uint8_t> Bytes(const S& summary) {
  serde::Writer writer;
  summary.Serialize(writer);
  return writer.Take();
}

/// Restores the entry dispatch level even when a test fails mid-way.
class DispatchGuard {
 public:
  DispatchGuard() : entry_(kernels::ActiveIsa()) {}
  ~DispatchGuard() { kernels::SetActive(entry_); }

 private:
  simd::Isa entry_;
};

/// Feeds the first n fixture items through all three paths into freshly
/// constructed summaries, for every size and dispatch level, and asserts
/// byte-identical serialized state.
template <typename Factory>
void ExpectThreePathEquivalence(Factory make) {
  const Fixture& f = Fixture::Get();
  DispatchGuard guard;
  for (simd::Isa isa : kernels::AvailableIsas()) {
    ASSERT_TRUE(kernels::SetActive(isa));
    for (std::size_t n : kSizes) {
      SCOPED_TRACE(testing::Message()
                   << "isa=" << simd::Name(isa) << " n=" << n);
      auto scalar = make();
      auto batched = make();
      auto prehashed = make();
      for (std::size_t i = 0; i < n; ++i) scalar.Update(f.items[i]);
      batched.UpdateBatch(f.items.data(), n);
      prehashed.UpdatePrehashed(f.Columns(), n);

      const std::vector<std::uint8_t> want = Bytes(scalar);
      EXPECT_EQ(want, Bytes(batched))
          << "scalar vs batched serialized state differs";
      EXPECT_EQ(want, Bytes(prehashed))
          << "scalar vs prehashed serialized state differs";
    }
  }
}

constexpr OverflowPolicy kPolicies[] = {OverflowPolicy::kSpill,
                                        OverflowPolicy::kSaturate};

TEST(IngestEquivalenceTest, CountMinSketch) {
  ExpectThreePathEquivalence([] {
    return CountMinSketch(/*depth=*/4, /*width=*/512,
                          /*conservative_update=*/false, /*seed=*/7);
  });
}

TEST(IngestEquivalenceTest, CountMinSketchConservative) {
  ExpectThreePathEquivalence([] {
    return CountMinSketch(/*depth=*/4, /*width=*/512,
                          /*conservative_update=*/true, /*seed=*/7);
  });
}

TEST(IngestEquivalenceTest, CountMinCompactCells) {
  // Compact-cell storage: all three ingest paths must agree byte-for-byte
  // at every cell width x placement x overflow policy, including the
  // widths the Zipf head saturates (the top item appears far more than 255
  // times in the full stream, so u8 and u16 tables spill — or clamp —
  // mid-stream on every path).
  for (CellWidth cw : {CellWidth::k8, CellWidth::k16, CellWidth::k32,
                       CellWidth::k64}) {
    for (bool pow2 : {false, true}) {
      for (OverflowPolicy policy : kPolicies) {
        SCOPED_TRACE(testing::Message()
                     << "cell_bits=" << CellBits(cw) << " pow2=" << pow2
                     << " saturate="
                     << (policy == OverflowPolicy::kSaturate));
        ExpectThreePathEquivalence([cw, pow2, policy] {
          return CountMinSketch(/*depth=*/4, /*width=*/512,
                                /*conservative_update=*/false, /*seed=*/7,
                                CounterTableOptions{cw, policy, pow2});
        });
      }
    }
  }
}

TEST(IngestEquivalenceTest, CountSketchCompactCells) {
  // Signed cells: byte equality also pins the row-norm FP accumulation
  // order, and the mask (pow2) and fast-range placements are distinct
  // kernels.
  for (CellWidth cw : {CellWidth::k8, CellWidth::k16, CellWidth::k32,
                       CellWidth::k64}) {
    for (bool pow2 : {false, true}) {
      for (OverflowPolicy policy : kPolicies) {
        SCOPED_TRACE(testing::Message()
                     << "cell_bits=" << CellBits(cw) << " pow2=" << pow2
                     << " saturate="
                     << (policy == OverflowPolicy::kSaturate));
        ExpectThreePathEquivalence([cw, pow2, policy] {
          return CountSketch(/*depth=*/5, /*width=*/512, /*seed=*/13,
                             CounterTableOptions{cw, policy, pow2});
        });
      }
    }
  }
}

TEST(IngestEquivalenceTest, CompactCellEstimatesMatchWide) {
  // The compact-cell invariant: with spill promotion, a narrow table's
  // logical estimates are EXACTLY those of the 64-bit reference at equal
  // geometry and seed — not merely close. The Zipf head crosses the u8
  // saturation point thousands of times over, so this exercises deep
  // level chains.
  const Stream& s = Fixture::Get().items;
  CountMinSketch wide(4, 512, false, 7);
  wide.UpdateBatch(s.data(), s.size());
  for (CellWidth cw : {CellWidth::k8, CellWidth::k16, CellWidth::k32}) {
    CountMinSketch narrow(4, 512, false, 7, CounterTableOptions{cw});
    narrow.UpdateBatch(s.data(), s.size());
    for (item_t x = 0; x < 512; ++x) {
      ASSERT_EQ(narrow.Estimate(x), wide.Estimate(x))
          << "cell_bits=" << CellBits(cw) << " item=" << x;
    }
  }
  CountSketch wide_cs(5, 512, 13);
  wide_cs.UpdateBatch(s.data(), s.size());
  for (CellWidth cw : {CellWidth::k8, CellWidth::k16, CellWidth::k32}) {
    CountSketch narrow(5, 512, 13, CounterTableOptions{cw});
    narrow.UpdateBatch(s.data(), s.size());
    for (item_t x = 0; x < 512; ++x) {
      const PrehashedItem ph = MakePrehashed(x);
      ASSERT_EQ(narrow.Estimate(ph), wide_cs.Estimate(ph))
          << "cell_bits=" << CellBits(cw) << " item=" << x;
    }
  }
}

TEST(IngestEquivalenceTest, SaturateModeClampsAtCellMax) {
  // Saturating tables deliberately trade accuracy for never allocating:
  // a u8 cell driven past its stop value pins at 254 + the unit that
  // armed it — i.e. the estimate reads the stop value, never wraps, and
  // never grows an overflow level (serialized record stays base-only).
  CountMinSketch sat(2, 512, false, 7,
                     CounterTableOptions{CellWidth::k8,
                                         OverflowPolicy::kSaturate});
  for (int i = 0; i < 1000; ++i) sat.Update(1);
  EXPECT_EQ(sat.Estimate(1), 255u);
  serde::Writer writer;
  sat.Serialize(writer);
  serde::Reader reader(writer.bytes());
  auto decoded = CountMinSketch::Deserialize(reader);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->Estimate(1), 255u);
}

TEST(IngestEquivalenceTest, CountMinHeavyHitters) {
  ExpectThreePathEquivalence(
      [] { return CountMinHeavyHitters(0.02, 0.25, 0.05, 11); });
}

TEST(IngestEquivalenceTest, CountSketch) {
  ExpectThreePathEquivalence(
      [] { return CountSketch(/*depth=*/5, /*width=*/512, /*seed=*/13); });
}

TEST(IngestEquivalenceTest, CountSketchPow2) {
  // The mask fast path (bucket_row_mask) and the fast-range path
  // (bucket_row) are distinct kernels; cover both at 64-bit cells.
  ExpectThreePathEquivalence([] {
    return CountSketch(/*depth=*/5, /*width=*/512, /*seed=*/13,
                       CounterTableOptions{CellWidth::k64,
                                           OverflowPolicy::kSpill,
                                           /*pow2_width=*/true});
  });
}

TEST(IngestEquivalenceTest, CountSketchHeavyHitters) {
  ExpectThreePathEquivalence(
      [] { return CountSketchHeavyHitters(0.05, 0.25, 0.05, 17); });
}

TEST(IngestEquivalenceTest, HyperLogLog) {
  ExpectThreePathEquivalence([] { return HyperLogLog(12, 19); });
}

TEST(IngestEquivalenceTest, KmvSketch) {
  ExpectThreePathEquivalence([] { return KmvSketch(256, 23); });
}

TEST(IngestEquivalenceTest, EntropyMleEstimator) {
  ExpectThreePathEquivalence([] { return EntropyMleEstimator(); });
}

TEST(IngestEquivalenceTest, AmsEntropySketch) {
  // RNG-driven reservoir: byte equality also pins that all three paths
  // consume the PRNG sequence identically.
  ExpectThreePathEquivalence(
      [] { return AmsEntropySketch::WithGeometry(5, 64, 29); });
}

TEST(IngestEquivalenceTest, AmsF2Sketch) {
  ExpectThreePathEquivalence(
      [] { return AmsF2Sketch::WithGeometry(5, 32, 31); });
}

TEST(IngestEquivalenceTest, MisraGries) {
  ExpectThreePathEquivalence([] { return MisraGries(64); });
}

TEST(IngestEquivalenceTest, SpaceSaving) {
  ExpectThreePathEquivalence([] { return SpaceSaving(64); });
}

TEST(IngestEquivalenceTest, IndykWoodruffEstimator) {
  ExpectThreePathEquivalence([] {
    LevelSetParams params;
    params.eps_prime = 0.25;
    params.max_depth = 10;
    params.cs_depth = 5;
    params.cs_width = 256;
    return IndykWoodruffEstimator(params, 37);
  });
}

TEST(IngestEquivalenceTest, ExactLevelSets) {
  ExpectThreePathEquivalence([] { return ExactLevelSets(0.25, 0.5); });
}

TEST(IngestEquivalenceTest, F0EstimatorAllBackends) {
  for (F0Backend backend :
       {F0Backend::kKmv, F0Backend::kHyperLogLog, F0Backend::kExact}) {
    ExpectThreePathEquivalence([backend] {
      F0Params params;
      params.p = 0.5;
      params.backend = backend;
      params.kmv_k = 256;
      params.hll_precision = 12;
      return F0Estimator(params, 41);
    });
  }
}

TEST(IngestEquivalenceTest, FkEstimatorSketchBackend) {
  ExpectThreePathEquivalence([] {
    FkParams params;
    params.k = 2;
    params.p = 0.5;
    params.universe = 4096;
    params.epsilon = 0.25;
    params.max_width = 512;
    return FkEstimator(params, 43);
  });
}

TEST(IngestEquivalenceTest, EntropyEstimatorBothBackends) {
  for (EntropyBackend backend :
       {EntropyBackend::kMle, EntropyBackend::kAmsSketch}) {
    ExpectThreePathEquivalence([backend] {
      EntropyParams params;
      params.p = 0.5;
      params.backend = backend;
      params.epsilon = 0.3;
      return EntropyEstimator(params, 47);
    });
  }
}

TEST(IngestEquivalenceTest, F1HeavyHitterEstimator) {
  ExpectThreePathEquivalence([] {
    HeavyHitterParams params;
    params.alpha = 0.02;
    params.p = 0.5;
    return F1HeavyHitterEstimator(params, 53);
  });
}

TEST(IngestEquivalenceTest, F2HeavyHitterEstimator) {
  ExpectThreePathEquivalence([] {
    HeavyHitterParams params;
    params.alpha = 0.1;
    params.p = 0.5;
    return F2HeavyHitterEstimator(params, 59);
  });
}

TEST(IngestEquivalenceTest, MonitorFullPipeline) {
  ExpectThreePathEquivalence([] {
    MonitorConfig config;
    config.p = 0.25;
    config.universe = 1 << 14;
    config.hh_alpha = 0.02;
    config.max_f2_width = 1 << 10;
    return Monitor(config, 61);
  });
}

TEST(IngestEquivalenceTest, ScalarUpdateBatchMatchesColumns) {
  // UpdateBatch routes through the column chunker
  // (ForEachPrehashedChunkCols) and Update through a one-item column; pin
  // both against the prehashed entry point with the default heavy-hitter
  // threshold.
  ExpectThreePathEquivalence([] {
    MonitorConfig config;
    config.p = 0.25;
    config.universe = 1 << 14;
    config.max_f2_width = 1 << 10;
    return Monitor(config, 61);
  });
}

TEST(IngestEquivalenceTest, WeightedColumnsMatchRepeatedColumns) {
  // The weight argument of the estimators' UpdatePrehashed: for the
  // summaries whose state is linear in the counts (exact entropy map,
  // exact level sets), weight w must equal w unit-weight passes over the
  // same columns, byte for byte.
  const Fixture& f = Fixture::Get();
  constexpr count_t kWeight = 3;
  const auto check = [&](auto make) {
    for (std::size_t n : kSizes) {
      SCOPED_TRACE(testing::Message() << "n=" << n);
      auto weighted = make();
      auto repeated = make();
      weighted.UpdatePrehashed(f.Columns(), n, kWeight);
      for (count_t pass = 0; pass < kWeight; ++pass) {
        repeated.UpdatePrehashed(f.Columns(), n);
      }
      EXPECT_EQ(Bytes(weighted), Bytes(repeated));
    }
  };
  check([] {
    EntropyParams params;
    params.p = 0.5;
    params.backend = EntropyBackend::kMle;
    return EntropyEstimator(params, 47);
  });
  check([] {
    FkParams params;
    params.k = 2;
    params.p = 0.5;
    params.backend = CollisionBackend::kExactLevelSets;
    return FkEstimator(params, 43);
  });
}

TEST(IngestEquivalenceTest, MonitorReportsMatchAcrossPaths) {
  // Beyond state bytes: the consolidated reports must compare EQ as
  // doubles across all three ingest paths.
  MonitorConfig config;
  config.p = 0.25;
  config.universe = 1 << 14;
  config.max_f2_width = 1 << 10;
  const Fixture& f = Fixture::Get();
  const Stream& s = f.items;

  Monitor scalar(config, 67), batched(config, 67), prehashed(config, 67);
  for (item_t x : s) scalar.Update(x);
  batched.UpdateBatch(s.data(), s.size());
  prehashed.UpdatePrehashed(f.Columns(), s.size());

  const MonitorReport a = scalar.Report();
  const MonitorReport b = batched.Report();
  const MonitorReport c = prehashed.Report();
  for (const MonitorReport* r : {&b, &c}) {
    EXPECT_EQ(a.sampled_length, r->sampled_length);
    EXPECT_EQ(*a.distinct_items, *r->distinct_items);
    EXPECT_EQ(*a.second_moment, *r->second_moment);
    EXPECT_EQ(a.entropy->entropy, r->entropy->entropy);
    ASSERT_EQ(a.heavy_hitters->size(), r->heavy_hitters->size());
    for (std::size_t i = 0; i < a.heavy_hitters->size(); ++i) {
      EXPECT_EQ((*a.heavy_hitters)[i].item, (*r->heavy_hitters)[i].item);
      EXPECT_EQ((*a.heavy_hitters)[i].estimated_frequency,
                (*r->heavy_hitters)[i].estimated_frequency);
    }
  }
}

}  // namespace
}  // namespace substream
