/// Property test for the columnar (SoA) ingest path: for EVERY summary
/// class, the serialized state after UpdatePrehashed(PrehashedColumns, n)
/// must not depend on how the batch is cut into column views. A batch of n
/// prehashed items fed as one view must leave the summary bit-identical to
///   (a) the same batch fed as two views split at a kernel edge (1, 63, 64,
///       65, n/2, n-1), the second view starting mid-array and therefore
///       off the 64-byte alignment of the first, and
///   (b) the same batch fed as n one-element views (every item a tail),
/// at every SIMD dispatch level the host supports, and at the batch sizes
/// that sit on the kernel boundaries: 0 and 1 (empty/degenerate),
/// 63/64/65 (the 64-item micro-block edge), 1023/1024/1025 (the
/// cache-block and prehash chunk edge). This pins that a column view is a
/// pure change of representation, never of semantics — including the FP
/// row-norm accumulation order in CountSketch and the PRNG consumption
/// order in the reservoir sketches. Agreement of the column path with
/// scalar Update and UpdateBatch is pinned by ingest_equivalence_test.

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

constexpr std::size_t kBoundarySizes[] = {0, 1, 63, 64, 65, 1023, 1024, 1025};
constexpr std::size_t kMaxItems = 1025;

/// Fixture prefix shared by every size: columns over a fixed Zipf stream,
/// so size N is always the same N items on every cut.
struct Fixture {
  Stream items;
  std::vector<std::uint64_t> hashes;

  static const Fixture& Get() {
    static const Fixture fixture = [] {
      Fixture f;
      ZipfGenerator generator(4096, 1.2, 42);
      f.items = Materialize(generator, kMaxItems);
      f.hashes.resize(f.items.size());
      PrehashColumnSoA(f.items.data(), f.items.size(), f.hashes.data());
      return f;
    }();
    return fixture;
  }

  /// The column view starting at item `offset`.
  PrehashedColumns From(std::size_t offset) const {
    return PrehashedColumns{items.data() + offset, hashes.data() + offset};
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

/// Runs the one-view vs split-view vs one-element-view comparison at every
/// boundary size under every dispatch level this host supports.
template <typename Factory>
void ExpectColumnEquivalence(Factory make) {
  const Fixture& f = Fixture::Get();
  DispatchGuard guard;
  for (simd::Isa isa : kernels::AvailableIsas()) {
    ASSERT_TRUE(kernels::SetActive(isa));
    for (std::size_t n : kBoundarySizes) {
      SCOPED_TRACE(testing::Message()
                   << "isa=" << simd::Name(isa) << " n=" << n);
      auto whole = make();
      whole.UpdatePrehashed(f.From(0), n);
      const std::vector<std::uint8_t> want = Bytes(whole);

      for (std::size_t split : {std::size_t{1}, std::size_t{63},
                                std::size_t{64}, std::size_t{65}, n / 2,
                                n - (n > 0 ? 1 : 0)}) {
        if (split > n) continue;
        auto cut = make();
        cut.UpdatePrehashed(f.From(0), split);
        cut.UpdatePrehashed(f.From(split), n - split);
        EXPECT_EQ(want, Bytes(cut))
            << "one view vs two views split at " << split << " differs";
      }

      auto single = make();
      for (std::size_t i = 0; i < n; ++i) single.UpdatePrehashed(f.From(i), 1);
      EXPECT_EQ(want, Bytes(single))
          << "one view vs one-element views differs";
    }
  }
}

TEST(SoaEquivalenceTest, CountMinSketch) {
  ExpectColumnEquivalence([] {
    return CountMinSketch(/*depth=*/4, /*width=*/512,
                          /*conservative_update=*/false, /*seed=*/7);
  });
}

TEST(SoaEquivalenceTest, CountMinSketchConservative) {
  ExpectColumnEquivalence([] {
    return CountMinSketch(/*depth=*/4, /*width=*/512,
                          /*conservative_update=*/true, /*seed=*/7);
  });
}

TEST(SoaEquivalenceTest, CountMinCompactCells) {
  for (CellWidth cw : {CellWidth::k8, CellWidth::k16, CellWidth::k32}) {
    for (bool pow2 : {false, true}) {
      ExpectColumnEquivalence([cw, pow2] {
        return CountMinSketch(
            /*depth=*/4, /*width=*/512, /*conservative_update=*/false,
            /*seed=*/7, CounterTableOptions{cw, OverflowPolicy::kSpill, pow2});
      });
    }
  }
}

TEST(SoaEquivalenceTest, CountMinHeavyHitters) {
  ExpectColumnEquivalence(
      [] { return CountMinHeavyHitters(0.02, 0.25, 0.05, 11); });
}

TEST(SoaEquivalenceTest, CountSketch) {
  ExpectColumnEquivalence(
      [] { return CountSketch(/*depth=*/5, /*width=*/512, /*seed=*/13); });
}

TEST(SoaEquivalenceTest, CountSketchPow2) {
  // The mask fast path (bucket_row_mask_cols) and the fast-range path
  // (bucket_row_cols) are distinct kernels; cover both.
  ExpectColumnEquivalence([] {
    return CountSketch(/*depth=*/5, /*width=*/512, /*seed=*/13,
                       CounterTableOptions{CellWidth::k64,
                                           OverflowPolicy::kSpill,
                                           /*pow2_width=*/true});
  });
}

TEST(SoaEquivalenceTest, CountSketchCompactCells) {
  for (CellWidth cw : {CellWidth::k8, CellWidth::k16, CellWidth::k32}) {
    for (bool pow2 : {false, true}) {
      ExpectColumnEquivalence([cw, pow2] {
        return CountSketch(/*depth=*/5, /*width=*/512, /*seed=*/13,
                           CounterTableOptions{cw, OverflowPolicy::kSpill,
                                               pow2});
      });
    }
  }
}

TEST(SoaEquivalenceTest, CountSketchHeavyHitters) {
  ExpectColumnEquivalence(
      [] { return CountSketchHeavyHitters(0.05, 0.25, 0.05, 17); });
}

TEST(SoaEquivalenceTest, HyperLogLog) {
  ExpectColumnEquivalence([] { return HyperLogLog(12, 19); });
}

TEST(SoaEquivalenceTest, KmvSketch) {
  ExpectColumnEquivalence([] { return KmvSketch(256, 23); });
}

TEST(SoaEquivalenceTest, EntropyMleEstimator) {
  ExpectColumnEquivalence([] { return EntropyMleEstimator(); });
}

TEST(SoaEquivalenceTest, AmsEntropySketch) {
  // RNG-driven reservoir: byte equality also pins that both layouts
  // consume the PRNG sequence identically.
  ExpectColumnEquivalence(
      [] { return AmsEntropySketch::WithGeometry(5, 64, 29); });
}

TEST(SoaEquivalenceTest, AmsF2Sketch) {
  ExpectColumnEquivalence(
      [] { return AmsF2Sketch::WithGeometry(5, 32, 31); });
}

TEST(SoaEquivalenceTest, MisraGries) {
  ExpectColumnEquivalence([] { return MisraGries(64); });
}

TEST(SoaEquivalenceTest, SpaceSaving) {
  ExpectColumnEquivalence([] { return SpaceSaving(64); });
}

TEST(SoaEquivalenceTest, IndykWoodruffEstimator) {
  ExpectColumnEquivalence([] {
    LevelSetParams params;
    params.eps_prime = 0.25;
    params.max_depth = 10;
    params.cs_depth = 5;
    params.cs_width = 256;
    return IndykWoodruffEstimator(params, 37);
  });
}

TEST(SoaEquivalenceTest, ExactLevelSets) {
  ExpectColumnEquivalence([] { return ExactLevelSets(0.25, 0.5); });
}

TEST(SoaEquivalenceTest, F0EstimatorAllBackends) {
  for (F0Backend backend :
       {F0Backend::kKmv, F0Backend::kHyperLogLog, F0Backend::kExact}) {
    ExpectColumnEquivalence([backend] {
      F0Params params;
      params.p = 0.5;
      params.backend = backend;
      params.kmv_k = 256;
      params.hll_precision = 12;
      return F0Estimator(params, 41);
    });
  }
}

TEST(SoaEquivalenceTest, FkEstimatorSketchBackend) {
  ExpectColumnEquivalence([] {
    FkParams params;
    params.k = 2;
    params.p = 0.5;
    params.universe = 4096;
    params.epsilon = 0.25;
    params.max_width = 512;
    return FkEstimator(params, 43);
  });
}

TEST(SoaEquivalenceTest, EntropyEstimatorBothBackends) {
  for (EntropyBackend backend :
       {EntropyBackend::kMle, EntropyBackend::kAmsSketch}) {
    ExpectColumnEquivalence([backend] {
      EntropyParams params;
      params.p = 0.5;
      params.backend = backend;
      params.epsilon = 0.3;
      return EntropyEstimator(params, 47);
    });
  }
}

TEST(SoaEquivalenceTest, F1HeavyHitterEstimator) {
  ExpectColumnEquivalence([] {
    HeavyHitterParams params;
    params.alpha = 0.02;
    params.p = 0.5;
    return F1HeavyHitterEstimator(params, 53);
  });
}

TEST(SoaEquivalenceTest, F2HeavyHitterEstimator) {
  ExpectColumnEquivalence([] {
    HeavyHitterParams params;
    params.alpha = 0.1;
    params.p = 0.5;
    return F2HeavyHitterEstimator(params, 59);
  });
}

TEST(SoaEquivalenceTest, MonitorFullPipeline) {
  ExpectColumnEquivalence([] {
    MonitorConfig config;
    config.p = 0.25;
    config.universe = 1 << 14;
    config.hh_alpha = 0.02;
    config.max_f2_width = 1 << 10;
    return Monitor(config, 61);
  });
}

}  // namespace
}  // namespace substream
