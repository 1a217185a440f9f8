#include "common/rng.h"

#include <algorithm>
#include <cmath>

namespace hdmm {
namespace {

// SplitMix64 finalizer (Steele, Lea & Flood): a full-avalanche mix used to
// derive well-separated child seeds from correlated inputs like
// (seed, epoch, stream) triples.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

Rng Rng::Fork(uint64_t stream) {
  ++fork_epoch_;
  uint64_t h = SplitMix64(seed_);
  h = SplitMix64(h ^ fork_epoch_);
  h = SplitMix64(h ^ stream);
  return Rng(h);
}

double Rng::Uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(gen_);
}

double Rng::Uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(gen_);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(gen_);
}

double Rng::Gaussian() {
  return std::normal_distribution<double>(0.0, 1.0)(gen_);
}

double Rng::Laplace(double b) {
  // Inverse-CDF sampling: u uniform in (-1/2, 1/2),
  // x = -b * sign(u) * ln(1 - 2|u|).
  double u = Uniform() - 0.5;
  double sign = (u >= 0.0) ? 1.0 : -1.0;
  return -b * sign * std::log(1.0 - 2.0 * std::fabs(u));
}

std::vector<double> Rng::RademacherVector(int64_t n) {
  std::vector<double> out(static_cast<size_t>(n));
  for (auto& v : out) v = (Uniform() < 0.5) ? -1.0 : 1.0;
  return out;
}

std::vector<int> Rng::Permutation(int n) {
  std::vector<int> p(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<size_t>(i)] = i;
  std::shuffle(p.begin(), p.end(), gen_);
  return p;
}

}  // namespace hdmm
