// Seeded input generators for the end-to-end benchmark. Every input the
// library sees — workload specs, data vectors, query text — is a pure
// function of the run's --seed, drawn from the benchmark's own SplitMix64
// streams (never from the library's Rng), so a change to the library cannot
// change the traffic it is measured on. InputHash folds the generated bytes
// into one FNV-1a value that two runs on one seed can compare.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "workload/domain.h"

namespace perfbench {

/// SplitMix64: tiny, portable, and identical on every standard library.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform integer in [lo, hi] (inclusive).
  int64_t Int(int64_t lo, int64_t hi);
  /// Uniform double in [0, 1).
  double Unit();

 private:
  uint64_t state_;
};

/// Independent stream for (seed, tag, index): tags separate input kinds so
/// adding a new kind never shifts an existing one.
SplitMix Stream(uint64_t seed, uint64_t tag, uint64_t index);

/// The paper's CPS and Adult schemas and the census-style schema of
/// bench_engine, as `domain` lines of the workload text format.
extern const char* const kCpsDomain;
extern const char* const kAdultDomain;
extern const char* const kCensusDomain;

/// A stream of distinct workload specs (text format of workload/parser.h)
/// over a fixed list of schemas. Spec i uses schema i % schemas.size() and
/// rotates through three kinds: range-heavy products, mixed products, and
/// `marginals k=2` plus products — so OPT_x, OPT_+ and OPT_M all get
/// chosen. Blocks are identity / prefix / allrange / width(k) / total. The
/// shape of spec i (attributes, blocks, widths) is fixed by i modulo a fixed
/// period; the seed draws the product weights, so every seed plans different
/// workloads of the same cost profile.
class PlanSpecStream {
 public:
  PlanSpecStream(uint64_t seed, uint64_t tag, std::vector<std::string> domains);
  std::string Next();

 private:
  uint64_t seed_;
  uint64_t tag_;
  std::vector<std::string> domains_;
  int64_t index_ = 0;
  std::set<std::string> seen_;
};

/// Skewed synthetic counts over `domain`: a product of seeded Zipf-like
/// per-attribute profiles plus seeded jitter, rounded to whole counts.
std::vector<double> SyntheticCounts(const hdmm::Domain& domain, uint64_t seed);

/// One batch of query lines (ParseQueryLine syntax) for `domain`. The first
/// `covered` lines constrain exactly two attributes (answerable from a
/// 2-way marginal table); the rest constrain three or more. Which attributes
/// a line binds and how wide its box is are fixed by (tag, index, line); the
/// seed draws where the box sits.
std::vector<std::string> QueryBatch(const hdmm::Domain& domain, uint64_t seed,
                                    uint64_t tag, int64_t index, int size,
                                    int covered);

/// FNV-1a over generated inputs.
class InputHash {
 public:
  void Add(const std::string& text);
  void Add(const std::vector<double>& values);
  void Add(const std::vector<std::string>& lines);
  uint64_t value() const { return value_; }

 private:
  void AddBytes(const void* data, size_t size);
  uint64_t value_ = 1469598103934665603ull;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
