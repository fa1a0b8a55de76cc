#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {
namespace {

constexpr std::uint64_t kZipfUniverse = std::uint64_t{1} << 20;
constexpr double kZipfSkew = 1.1;

/// SplitMix64 finalizer: bijective, so distinct inputs give distinct keys.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return Mix(state_);
  }
  double Uniform() {  // [0, 1)
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// Zipf(s) ranks on [1, n] by rejection-inversion (Hörmann & Derflinger,
/// 1996): O(1) expected time per draw, no table.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s) : n_(n), s_(s) {
    h_x1_ = HIntegral(1.5) - 1.0;
    h_n_ = HIntegral(static_cast<double>(n) + 0.5);
    cut_ = 2.0 - HIntegralInverse(HIntegral(2.5) - H(2.0));
  }

  std::uint64_t Draw(Rng& rng) const {
    for (;;) {
      const double u = h_n_ + rng.Uniform() * (h_x1_ - h_n_);
      const double x = HIntegralInverse(u);
      double k = std::floor(x + 0.5);
      k = std::clamp(k, 1.0, static_cast<double>(n_));
      if (k - x <= cut_ || u >= HIntegral(k + 0.5) - H(k)) {
        return static_cast<std::uint64_t>(k);
      }
    }
  }

 private:
  static double Helper1(double x) {  // log1p(x) / x
    return std::abs(x) > 1e-8 ? std::log1p(x) / x : 1.0 - x / 2.0;
  }
  static double Helper2(double x) {  // expm1(x) / x
    return std::abs(x) > 1e-8 ? std::expm1(x) / x : 1.0 + x / 2.0;
  }
  double H(double x) const { return std::exp(-s_ * std::log(x)); }
  double HIntegral(double x) const {
    const double lx = std::log(x);
    return Helper2((1.0 - s_) * lx) * lx;
  }
  double HIntegralInverse(double x) const {
    double t = x * (1.0 - s_);
    if (t < -1.0) t = -1.0;
    return std::exp(Helper1(t) * x);
  }

  std::uint64_t n_;
  double s_;
  double h_x1_ = 0.0;
  double h_n_ = 0.0;
  double cut_ = 0.0;
};

/// Exact statistics from a rank-indexed count array.
Exact FromCounts(const std::vector<std::uint32_t>& counts, double length,
                 double alpha, std::uint64_t salt) {
  Exact e;
  const double threshold = alpha * length;
  for (std::uint64_t r = 0; r < counts.size(); ++r) {
    const double c = counts[r];
    if (c == 0.0) continue;
    e.f0 += 1.0;
    e.f2 += c * c;
    if (c < length) e.entropy += (c / length) * std::log2(length / c);
    if (c >= threshold) e.heavy.push_back(Mix(r ^ salt));
  }
  return e;
}

/// All-distinct P: every statistic follows from the length alone.
Exact DistinctExact(double length) {
  Exact e;
  e.f0 = length;
  e.f2 = length;
  e.entropy = std::log2(length);
  return e;
}

}  // namespace

Inputs MakeInputs(const InputSpec& spec, std::uint64_t seed) {
  Inputs in;
  Rng rng(Mix(seed ^ 0x5eed5eed5eedULL));
  const std::uint64_t salt = rng.Next();
  const double len = static_cast<double>(spec.window_len);
  in.items.reserve(static_cast<std::size_t>(
      static_cast<double>(spec.windows) * len * spec.p * 1.05 + 64));
  in.offsets.push_back(0);

  if (spec.keys == KeyModel::kDistinct) {
    std::uint64_t index = 0;
    for (std::size_t w = 0; w < spec.windows; ++w) {
      for (std::size_t i = 0; i < spec.window_len; ++i, ++index) {
        if (rng.Uniform() < spec.p) in.items.push_back(Mix(index ^ salt));
      }
      in.offsets.push_back(in.items.size());
      in.window_exact.push_back(DistinctExact(len));
    }
    if (spec.ring_windows > 0) {
      for (std::size_t i = 0; i + 1 < spec.ring_windows; ++i) {
        in.ring_exact.push_back(
            DistinctExact(len * static_cast<double>(i + 1)));
      }
      for (std::size_t j = 0; j < spec.windows; ++j) {
        in.ring_exact.push_back(
            DistinctExact(len * static_cast<double>(spec.ring_windows)));
      }
    }
    return in;
  }

  const ZipfSampler zipf(kZipfUniverse, kZipfSkew);
  std::vector<std::uint32_t> counts(kZipfUniverse + 1, 0);
  // Sparse (rank, count) pairs per window, kept only for ring references.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> sparse;
  for (std::size_t w = 0; w < spec.windows; ++w) {
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < spec.window_len; ++i) {
      const std::uint64_t r = zipf.Draw(rng);
      ++counts[r];
      if (rng.Uniform() < spec.p) in.items.push_back(Mix(r ^ salt));
    }
    in.offsets.push_back(in.items.size());
    in.window_exact.push_back(FromCounts(counts, len, spec.alpha, salt));
    if (spec.ring_windows > 0) {
      sparse.emplace_back();
      for (std::uint32_t r = 0; r < counts.size(); ++r) {
        if (counts[r] != 0) sparse.back().emplace_back(r, counts[r]);
      }
    }
  }

  if (spec.ring_windows > 0) {
    const std::size_t ring = spec.ring_windows;
    const std::size_t windows = spec.windows;
    auto add = [&](std::size_t w) {
      for (const auto& [r, c] : sparse[w % windows]) counts[r] += c;
    };
    auto remove = [&](std::size_t w) {
      for (const auto& [r, c] : sparse[w % windows]) counts[r] -= c;
    };
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i + 1 < ring; ++i) {
      add(i);
      in.ring_exact.push_back(FromCounts(
          counts, len * static_cast<double>(i + 1), spec.alpha, salt));
    }
    // Cyclic rings: the run of `ring` windows ending at window j. Offsets
    // are shifted by windows * ring to stay non-negative.
    const std::size_t shift = windows * ring;
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t a = 1; a < ring; ++a) add(shift - ring + a);
    for (std::size_t j = 0; j < windows; ++j) {
      add(j);
      in.ring_exact.push_back(FromCounts(
          counts, len * static_cast<double>(ring), spec.alpha, salt));
      remove(shift + j - ring + 1);
    }
  }
  return in;
}

}  // namespace perfbench
