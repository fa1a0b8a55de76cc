#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file inputs.h
/// Seeded input generation and the exact reference. The original stream P
/// is generated window by window and Bernoulli(p)-sampled here, before any
/// timing; the library under test only ever sees the sampled items. The
/// exact statistics are computed on P itself.

namespace perfbench {

/// Exact statistics of one stretch of the original stream P.
struct Exact {
  double f0 = 0.0;       // distinct items
  double f2 = 0.0;       // second moment
  double entropy = 0.0;  // empirical entropy, log base 2
  std::vector<std::uint64_t> heavy;  // items with f_i >= alpha * F1(P)
};

enum class KeyModel { kZipf, kDistinct };

struct InputSpec {
  KeyModel keys = KeyModel::kZipf;
  std::size_t windows = 16;      // distinct windows, replayed cyclically
  std::size_t window_len = 0;    // items of P per window
  double p = 0.1;                // Bernoulli sampling rate
  double alpha = 0.05;           // heavy-hitter fraction of the reference
  std::size_t ring_windows = 0;  // > 0: also build ring references
};

struct Inputs {
  /// Sampled items of every window, back to back.
  std::vector<std::uint64_t> items;
  /// Window w's sampled items are items[offsets[w], offsets[w + 1]).
  std::vector<std::size_t> offsets;
  /// Exact statistics of each window of P.
  std::vector<Exact> window_exact;
  /// Exact statistics of the union of the windows a ring of
  /// `ring_windows` holds after the i-th window is adopted: entry i for
  /// i < ring_windows - 1 covers windows [0, i]; entry ring_windows - 1 + j
  /// covers the cyclic run of ring_windows windows ending at window j.
  std::vector<Exact> ring_exact;

  std::size_t windows() const { return window_exact.size(); }
  const std::uint64_t* window_data(std::size_t w) const {
    return items.data() + offsets[w];
  }
  std::size_t window_size(std::size_t w) const {
    return offsets[w + 1] - offsets[w];
  }
  /// Index into ring_exact of the ring after adopting the i-th window of
  /// a cyclic replay.
  std::size_t RingIndex(std::size_t i, std::size_t ring) const {
    return i + 1 < ring ? i : ring - 1 + i % windows();
  }
};

Inputs MakeInputs(const InputSpec& spec, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
