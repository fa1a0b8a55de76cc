#include "sketch/countsketch.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include <gtest/gtest.h>

#include "serde/serde.h"
#include "stream/exact_stats.h"
#include "stream/generators.h"
#include "util/math.h"

namespace substream {
namespace {

TEST(CountSketchTest, PointEstimatesAccurateForHeavyItems) {
  PlantedHeavyHitterGenerator g(4, 0.6, 5000, 1);
  Stream s = Materialize(g, 80000);
  FrequencyTable exact = ExactStats(s);
  CountSketch cs(7, 4096, 2);
  for (item_t a : s) cs.Update(a);
  const double noise = std::sqrt(exact.Fk(2) / 4096.0);
  for (item_t id : g.HeavyIds()) {
    EXPECT_NEAR(cs.Estimate(id), static_cast<double>(exact.Frequency(id)),
                6.0 * noise)
        << "item " << id;
  }
}

TEST(CountSketchTest, F2EstimateWithinFactor) {
  ZipfGenerator g(2000, 1.1, 3);
  Stream s = Materialize(g, 100000);
  FrequencyTable exact = ExactStats(s);
  CountSketch cs(7, 2048, 4);
  for (item_t a : s) cs.Update(a);
  EXPECT_TRUE(WithinFactor(cs.EstimateF2(), exact.Fk(2), 1.25))
      << "estimate=" << cs.EstimateF2() << " exact=" << exact.Fk(2);
}

TEST(CountSketchTest, RunningF2MatchesRecomputation) {
  // The incrementally maintained row norms must equal a full recomputation;
  // EstimateF2 on a tiny sketch lets us verify against brute force.
  UniformGenerator g(100, 5);
  Stream s = Materialize(g, 5000);
  CountSketch cs(1, 8, 6);  // single row: estimate == row sumsq
  double expected = 0.0;
  std::vector<double> cells(8, 0.0);
  // Replicate the row's derivations: bucket = fast-range of the seeded
  // remix of the shared prehash (row seed DeriveSeed(seed, 2r)), sign =
  // 4-wise polynomial on the raw identity (seed DeriveSeed(seed, 2r+1)).
  PolynomialHash sign(4, DeriveSeed(6, 1));
  for (item_t a : s) {
    cs.Update(a);
    cells[FastRange64(RemixHash(PreHash(a), DeriveSeed(6, 0)), 8)] +=
        sign.Sign(a);
  }
  expected = 0.0;
  for (double c : cells) expected += c * c;
  EXPECT_DOUBLE_EQ(cs.EstimateF2(), expected);
}

TEST(CountSketchTest, ExtremeDeltaClampsDepthInsteadOfAborting) {
  // delta ~1e-9 would analytically want > 64 rows; the derivation clamps
  // at the CounterTable row bound instead of tripping its precondition.
  CountSketchHeavyHitters tracker(0.1, 0.5, 1e-9, 3);
  EXPECT_LE(tracker.sketch().depth(), 64);
  tracker.Update(42);
  EXPECT_EQ(tracker.Candidates(0.0).size(), 1u);
}

TEST(CountSketchTest, SupportsDeletions) {
  CountSketch cs(5, 512, 7);
  for (int i = 0; i < 100; ++i) cs.Update(42, 1);
  for (int i = 0; i < 40; ++i) cs.Update(42, -1);
  EXPECT_NEAR(cs.Estimate(42), 60.0, 1e-9);
  EXPECT_EQ(cs.TotalCount(), 60);
}

TEST(CountSketchTest, UnbiasedOverSeeds) {
  // Average point estimate over independent seeds approaches the truth.
  Stream s;
  for (int i = 0; i < 500; ++i) s.push_back(1);
  for (item_t x = 2; x <= 600; ++x) s.push_back(x);
  double sum = 0.0;
  const int reps = 200;
  for (int rep = 0; rep < reps; ++rep) {
    CountSketch cs(1, 16, static_cast<std::uint64_t>(rep));
    for (item_t a : s) cs.Update(a);
    sum += cs.Estimate(1);
  }
  EXPECT_NEAR(sum / reps, 500.0, 15.0);
}

TEST(CountSketchHeavyHittersTest, FindsPlantedF2Heavy) {
  PlantedHeavyHitterGenerator g(4, 0.5, 20000, 8);
  Stream s = Materialize(g, 100000);
  FrequencyTable exact = ExactStats(s);
  CountSketchHeavyHitters hh(0.1, 0.2, 0.01, 9);
  for (item_t a : s) hh.Update(a);
  auto candidates = hh.Candidates(0.1);
  // Planted items carry 12.5% of F1 each; with this much skew each clears
  // 0.1 * sqrt(F2).
  const double threshold = 0.1 * std::sqrt(exact.Fk(2));
  for (item_t id : g.HeavyIds()) {
    if (static_cast<double>(exact.Frequency(id)) >= 1.2 * threshold) {
      EXPECT_TRUE(std::any_of(candidates.begin(), candidates.end(),
                              [id](const auto& c) { return c.first == id; }))
          << "missing F2-heavy item " << id;
    }
  }
}

TEST(CountSketchHeavyHittersTest, NoDeepTailFalsePositives) {
  PlantedHeavyHitterGenerator g(4, 0.5, 20000, 10);
  Stream s = Materialize(g, 100000);
  FrequencyTable exact = ExactStats(s);
  CountSketchHeavyHitters hh(0.1, 0.2, 0.01, 11);
  for (item_t a : s) hh.Update(a);
  const double cutoff = 0.05 * std::sqrt(exact.Fk(2));
  for (const auto& [item, est] : hh.Candidates(0.1)) {
    (void)est;
    EXPECT_GT(static_cast<double>(exact.Frequency(item)), cutoff)
        << "deep-tail item " << item << " reported as F2-heavy";
  }
}

/// A depth-1, width-1, 64-bit-cell CountSketch record holding `cell` in its
/// only counter, decoded the way a Collector decodes untrusted records.
CountSketch DecodeOneCellSketch(std::int64_t cell) {
  serde::Writer out;
  out.Record(serde::TypeTag::kCountSketch);
  out.Varint(1);  // depth
  out.Varint(1);  // width
  out.U64(77);    // seed
  out.U8(static_cast<std::uint8_t>(CellWidth::k64));
  out.U8(0);  // flags: fast-range placement, spill
  out.Svarint(cell);                           // total
  out.F64(static_cast<double>(cell) * cell);  // row norm
  out.Svarint(cell);                           // the cell
  out.Varint(0);                               // no overflow levels
  serde::Reader in(out.bytes());
  std::optional<CountSketch> sketch = CountSketch::Deserialize(in);
  EXPECT_TRUE(sketch.has_value());
  return std::move(*sketch);
}

TEST(CountSketchTest, MergeWrapsCellsPastInt64Max) {
  // Decoded cells can sum past INT64_MAX. The merge adds mod 2^64, the
  // domain every counter-table add uses, instead of overflowing a signed
  // add (undefined behaviour, which UBSan aborts on).
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  CountSketch a = DecodeOneCellSketch(kMax - 5);
  const CountSketch b = DecodeOneCellSketch(10);
  a.Merge(b);
  const std::int64_t wrapped = std::numeric_limits<std::int64_t>::min() + 4;
  EXPECT_EQ(std::abs(a.Estimate(1)), -static_cast<double>(wrapped));
  EXPECT_DOUBLE_EQ(a.EstimateF2(),
                   static_cast<double>(wrapped) * static_cast<double>(wrapped));
}

TEST(CountSketchTest, FusedUpdateAndEstimateMatchesUpdateThenEstimate) {
  // UpdateAndEstimate promises exactly Update followed by Estimate, at
  // every cell width and overflow policy — including saturating narrow
  // cells, where the stored counter is the clamped sum.
  ZipfGenerator gen(300, 1.2, 19);
  const Stream stream = Materialize(gen, 4000);
  for (CellWidth width :
       {CellWidth::k8, CellWidth::k16, CellWidth::k32, CellWidth::k64}) {
    for (OverflowPolicy overflow :
         {OverflowPolicy::kSpill, OverflowPolicy::kSaturate}) {
      CounterTableOptions options{width};
      options.overflow = overflow;
      CountSketch fused(5, 64, 23, options), split(5, 64, 23, options);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        const PrehashedItem ph = MakePrehashed(stream[i]);
        const std::int64_t count = 1 + static_cast<std::int64_t>(i % 97);
        const double got = fused.UpdateAndEstimate(ph, count);
        split.Update(ph, count);
        ASSERT_EQ(got, split.Estimate(ph))
            << "cell width " << static_cast<int>(width) << " overflow "
            << static_cast<int>(overflow) << " item " << i;
      }
    }
  }
}

TEST(CountSketchTest, SpaceAccounting) {
  CountSketch cs(5, 1024, 12);
  EXPECT_GE(cs.SpaceBytes(), 5u * 1024u * sizeof(std::int64_t));
}

}  // namespace
}  // namespace substream
