#include "sim/random.hpp"

#include <cmath>

#include "core/check.hpp"

namespace mci::sim {
namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t hashTag(std::string_view tag) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : tag) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Xoshiro256::result_type Xoshiro256::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::fork(std::string_view tag, std::uint64_t index) const {
  std::uint64_t mix = seed_;
  (void)splitmix64(mix);
  mix ^= hashTag(tag);
  (void)splitmix64(mix);
  mix ^= 0x9E3779B97F4A7C15ULL * (index + 1);
  std::uint64_t state = mix;
  return Rng(splitmix64(state));
}

double Rng::uniform01() {
  // 53-bit mantissa construction: uniform in [0, 1).
  return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

double Rng::uniformReal(double lo, double hi) {
  MCI_DCHECK(lo <= hi);
  return lo + (hi - lo) * uniform01();
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) {
  MCI_DCHECK(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(engine_());  // full range
  // Rejection-free Lemire-style reduction is overkill here; modulo bias is
  // below 2^-50 for all ranges the simulation uses (<= 2^20).
  return lo + static_cast<std::int64_t>(engine_() % range);
}

double Rng::exponential(double mean) {
  MCI_DCHECK(mean > 0);
  double u = uniform01();
  // Guard: -log(0) is inf; shift to the smallest representable positive.
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

bool Rng::bernoulli(double p) { return uniform01() < p; }

int Rng::poisson(double mean) {
  MCI_DCHECK(mean >= 0);
  // Knuth inversion; fine for the small means (<= ~20) the model uses.
  const double limit = std::exp(-mean);
  double prod = 1.0;
  int k = 0;
  do {
    prod *= uniform01();
    ++k;
  } while (prod > limit);
  return k - 1;
}

}  // namespace mci::sim
