#include "util/rng.hpp"

#include <bit>
#include <cmath>
#include <numbers>

namespace lp {

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& lane : s_) {
    lane = splitmix64(x);
    x += 0x9e3779b97f4a7c15ULL;
  }
}

std::uint64_t Rng::next() {
  const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // = 2^64 mod n
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  // Box-Muller; draw u1 in (0,1] to avoid log(0).
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::exponential(double rate) {
  const double u = 1.0 - uniform();
  return -std::log(u) / rate;
}

bool Rng::bernoulli(double p) { return uniform() < p; }

Rng Rng::fork() {
  // Derive a child seed by consuming one draw; splitmix re-expansion in the
  // constructor decorrelates the child stream.
  return Rng{next() ^ 0xd1b54a32d192ed03ULL};
}

}  // namespace lp
