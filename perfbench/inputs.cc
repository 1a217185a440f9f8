#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <utility>

namespace perfbench {

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int64_t SplitMix::Int(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

double SplitMix::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

SplitMix Stream(uint64_t seed, uint64_t tag, uint64_t index) {
  SplitMix mix(seed ^ (tag * 0xd6e8feb86659fd93ull));
  const uint64_t a = mix.Next();
  SplitMix inner(a ^ (index * 0xa0761d6478bd642full));
  return SplitMix(inner.Next());
}

const char* const kCpsDomain =
    "domain income=100 age=50 race=7 hispanic=4 sex=2";
const char* const kAdultDomain =
    "domain age=75 education=16 race=5 sex=2 hours=20";
const char* const kCensusDomain = "domain sex=2 age=115 race=64";

namespace {

// Seed of the shape streams: which attributes and blocks a generated workload
// uses and how wide a query's box is are fixed by the workload definition,
// so a run's cost does not hinge on its seed; the seed draws the values.
constexpr uint64_t kShapeSeed = 0x48444d4d;
// Plan-spec shapes repeat with this period (a multiple of the 3 x 3
// schema-by-kind rotation), so a longer run sees the same mix, not new
// extremes; the weights still make every spec distinct.
constexpr int64_t kShapePeriod = 36;

struct Attr {
  std::string name;
  int64_t size;
};

std::vector<Attr> ParseDomainLine(const std::string& line) {
  std::istringstream in(line);
  std::string token;
  in >> token;  // "domain"
  std::vector<Attr> attrs;
  while (in >> token) {
    const size_t eq = token.find('=');
    attrs.push_back({token.substr(0, eq), std::stoll(token.substr(eq + 1))});
  }
  return attrs;
}

std::string Block(SplitMix& rng, int64_t n, bool ranges_only) {
  const int64_t pick = ranges_only ? rng.Int(1, 3) : rng.Int(0, 4);
  switch (pick) {
    case 0:
      return "identity";
    case 1:
      return "prefix";
    case 2:
      return "allrange";
    case 3:
      return "width(" + std::to_string(rng.Int(std::min<int64_t>(2, n),
                                               std::max<int64_t>(2, n / 2))) +
             ")";
    default:
      return "total";
  }
}

// One product line constraining `arity` distinct attributes. The shape
// stream picks attributes and blocks; the value stream picks the weight.
std::string Product(SplitMix& shape, SplitMix& values,
                    const std::vector<Attr>& attrs, int arity, bool ranges_only) {
  std::vector<int> order(attrs.size());
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(shape.Int(0, i - 1))]);
  }
  std::vector<int> chosen(order.begin(), order.begin() + arity);
  std::sort(chosen.begin(), chosen.end());
  // Weights 1.00 .. 4.99 in steps of 0.01: ample room for distinct specs.
  const int64_t hundredths = values.Int(100, 499);
  std::string line = "product weight=" + std::to_string(hundredths / 100) + "." +
                     std::to_string(hundredths / 10 % 10) + std::to_string(hundredths % 10);
  for (int a : chosen) {
    const Attr& attr = attrs[static_cast<size_t>(a)];
    line += " " + attr.name + "=" + Block(shape, attr.size, ranges_only);
  }
  return line + "\n";
}

}  // namespace

PlanSpecStream::PlanSpecStream(uint64_t seed, uint64_t tag,
                               std::vector<std::string> domains)
    : seed_(seed), tag_(tag), domains_(std::move(domains)) {}

std::string PlanSpecStream::Next() {
  const int64_t i = index_++;
  const std::string& domain = domains_[static_cast<size_t>(i) % domains_.size()];
  const std::vector<Attr> attrs = ParseDomainLine(domain);
  const int d = static_cast<int>(attrs.size());
  const int kind = static_cast<int>((i / static_cast<int64_t>(domains_.size())) % 3);
  // Redraw the weights on the (rare) repeat so every spec is distinct.
  for (uint64_t attempt = 0;; ++attempt) {
    SplitMix shape = Stream(kShapeSeed, tag_, static_cast<uint64_t>(i % kShapePeriod));
    SplitMix values = Stream(seed_, tag_, static_cast<uint64_t>(i) * 1024 + attempt);
    std::string spec = domain + "\n";
    if (kind == 0) {  // Range-heavy products over one or two attributes.
      const int64_t products = shape.Int(2, 3);
      for (int64_t p = 0; p < products; ++p) {
        spec += Product(shape, values, attrs, static_cast<int>(shape.Int(1, 2)), true);
      }
    } else if (kind == 1) {  // Mixed blocks over one to three attributes.
      const int64_t products = shape.Int(2, 4);
      for (int64_t p = 0; p < products; ++p) {
        spec += Product(shape, values, attrs,
                        static_cast<int>(shape.Int(1, std::min(3, d))), false);
      }
    } else {  // All 2-way marginals plus a few products.
      spec += "marginals k=2\n";
      const int64_t products = shape.Int(1, 2);
      for (int64_t p = 0; p < products; ++p) {
        spec += Product(shape, values, attrs, static_cast<int>(shape.Int(1, 2)), false);
      }
    }
    if (seen_.insert(spec).second) return spec;
  }
}

std::vector<double> SyntheticCounts(const hdmm::Domain& domain, uint64_t seed) {
  const int d = domain.NumAttributes();
  std::vector<std::vector<double>> profiles(static_cast<size_t>(d));
  for (int a = 0; a < d; ++a) {
    SplitMix rng = Stream(seed, 0x5eed, static_cast<uint64_t>(a));
    const int64_t n = domain.AttributeSize(a);
    std::vector<double>& p = profiles[static_cast<size_t>(a)];
    p.resize(static_cast<size_t>(n));
    const double skew = 0.5 + rng.Unit();
    for (int64_t v = 0; v < n; ++v) {
      p[static_cast<size_t>(v)] = 1.0 / std::pow(1.0 + static_cast<double>(v), skew);
    }
    for (int64_t v = n; v > 1; --v) {
      std::swap(p[static_cast<size_t>(v - 1)],
                p[static_cast<size_t>(rng.Int(0, v - 1))]);
    }
    const double total = std::accumulate(p.begin(), p.end(), 0.0);
    for (double& w : p) w /= total;
  }
  const int64_t cells = domain.TotalSize();
  const double mass = 50.0 * static_cast<double>(cells);
  SplitMix jitter = Stream(seed, 0x5eed, 1000);
  std::vector<double> x(static_cast<size_t>(cells));
  std::vector<int64_t> coord(static_cast<size_t>(d), 0);
  for (int64_t c = 0; c < cells; ++c) {
    double expected = mass;
    for (int a = 0; a < d; ++a) {
      expected *= profiles[static_cast<size_t>(a)][static_cast<size_t>(coord[static_cast<size_t>(a)])];
    }
    x[static_cast<size_t>(c)] = std::floor(expected + jitter.Unit());
    for (int a = d - 1; a >= 0; --a) {
      if (++coord[static_cast<size_t>(a)] < domain.AttributeSize(a)) break;
      coord[static_cast<size_t>(a)] = 0;
    }
  }
  return x;
}

std::vector<std::string> QueryBatch(const hdmm::Domain& domain, uint64_t seed,
                                    uint64_t tag, int64_t index, int size,
                                    int covered) {
  SplitMix shape = Stream(kShapeSeed, tag, static_cast<uint64_t>(index));
  SplitMix values = Stream(seed, tag, static_cast<uint64_t>(index));
  const int d = domain.NumAttributes();
  std::vector<std::string> lines;
  lines.reserve(static_cast<size_t>(size));
  for (int q = 0; q < size; ++q) {
    // Covered queries bind exactly two attributes; uncovered ones bind three
    // or more, so no 2-way table covers them.
    const int arity = q < covered ? 2 : static_cast<int>(shape.Int(std::min(3, d), d));
    std::vector<int> attrs(static_cast<size_t>(d));
    std::iota(attrs.begin(), attrs.end(), 0);
    for (int i = d; i > 1; --i) {
      std::swap(attrs[static_cast<size_t>(i - 1)],
                attrs[static_cast<size_t>(shape.Int(0, i - 1))]);
    }
    attrs.resize(static_cast<size_t>(arity));
    std::sort(attrs.begin(), attrs.end());
    const bool ranges = shape.Int(0, 3) != 0;
    std::string line = ranges ? "range" : (arity == d ? "point" : "marginal");
    for (int a : attrs) {
      const int64_t n = domain.AttributeSize(a);
      const int64_t extent = ranges ? shape.Int(1, n) : 1;
      const int64_t lo = values.Int(0, n - extent);
      line += " " + domain.AttributeName(a) + "=" + std::to_string(lo);
      if (ranges) line += ":" + std::to_string(lo + extent - 1);
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

void InputHash::AddBytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    value_ ^= bytes[i];
    value_ *= 1099511628211ull;
  }
}

void InputHash::Add(const std::string& text) {
  AddBytes(text.data(), text.size());
  AddBytes("\n", 1);
}

void InputHash::Add(const std::vector<double>& values) {
  AddBytes(values.data(), values.size() * sizeof(double));
}

void InputHash::Add(const std::vector<std::string>& lines) {
  for (const std::string& line : lines) Add(line);
}

}  // namespace perfbench
