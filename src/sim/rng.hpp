#pragma once

// Deterministic pseudo-random number generation for the simulator.
//
// We use xoshiro256** (Blackman & Vigna) seeded through splitmix64, rather
// than std::mt19937, because its stream is identical across standard library
// implementations — reproducibility of experiment output is a hard
// requirement for this repository (EXPERIMENTS.md records exact numbers).

#include <cstdint>

namespace bcs::snapshot {
class StateIO;  // snapshot/state_io.hpp: serializes the 4-word state
}

namespace bcs::sim {

/// splitmix64 step; used to expand a single 64-bit seed into a full state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator.  Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5EEDBC5C0DEULL) { reseed(seed); }

  /// Re-initializes the state from a 64-bit seed via splitmix64.
  void reseed(std::uint64_t seed) {
    for (auto& word : state_) word = splitmix64(seed);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t below(std::uint64_t n) {
    // Lemire's nearly-divisionless method would be overkill; modulo bias is
    // negligible for the small ranges used in workload generation.
    return (*this)() % n;
  }

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Normally distributed value (Box-Muller).
  double normal(double mean, double stddev);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};

  /// Snapshot serializer (src/snapshot): the whole generator state is
  /// state_[4] — normal() draws both Box-Muller values per call, so there
  /// is no hidden cached spare to capture.
  friend class bcs::snapshot::StateIO;
};

/// Derives an independent child seed from (parent seed, stream index).
/// Used to give every node / process its own deterministic stream.
constexpr std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed ^ (0xA5A5A5A5DEADBEEFULL + stream * 0x9E3779B97F4A7C15ULL);
  return splitmix64(s);
}

}  // namespace bcs::sim
