// Deterministic pseudo-random number generation for the simulator.
//
// All stochastic components (stitch-loss sampling, workload generators,
// failure injection) take an explicit `Rng&` so experiments are exactly
// reproducible from a seed.  The generator is xoshiro256++, which is fast,
// well-distributed, and has a tiny state that is cheap to fork per-component.
#pragma once

#include <array>
#include <cstdint>

namespace lp {

/// One splitmix64 output: adds the golden-ratio increment to `x`, then
/// applies the full-avalanche finalizer.  Pure; a caller walking a stream
/// advances its own state by 0x9e3779b97f4a7c15 per draw.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit lanes from a single seed via splitmix64, per the
  /// xoshiro authors' recommendation.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// UniformRandomBitGenerator interface.
  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n).  n must be positive.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box-Muller (no cached spare: keeps state minimal).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate);

  /// Bernoulli trial.
  bool bernoulli(double p);

  /// A new generator whose stream is decorrelated from this one.  Use to
  /// give each subsystem its own stream so adding draws in one place does
  /// not perturb another.
  [[nodiscard]] Rng fork();

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace lp
