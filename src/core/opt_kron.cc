#include "core/opt_kron.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "workload/building_blocks.h"

namespace hdmm {
namespace {

// A block-cyclic pass that improves the error by at most this fraction
// ends the run.
constexpr double kCycleTol = 1e-4;

}  // namespace

int AttributeDefaultP(const UnionWorkload& w, const std::vector<int>& products,
                      int attribute) {
  int p = 1;
  for (int j : products) {
    const ProductWorkload& prod = w.products()[static_cast<size_t>(j)];
    p = std::max(p, DefaultP(prod.factors[static_cast<size_t>(attribute)]));
  }
  return p;
}

OptKronResult OptKron(const UnionWorkload& w, const OptKronOptions& options,
                      Rng* rng) {
  std::vector<int> all(static_cast<size_t>(w.NumProducts()));
  std::iota(all.begin(), all.end(), 0);
  return OptKron(w, all, options, rng);
}

OptKronResult OptKron(const UnionWorkload& w, const std::vector<int>& products,
                      const OptKronOptions& options, Rng* rng) {
  const int d = w.domain().NumAttributes();
  const int k = static_cast<int>(products.size());
  HDMM_CHECK(k >= 1);
  for (int j : products) HDMM_CHECK(j >= 0 && j < w.NumProducts());
  // Weight of the j-th listed product.
  auto weight = [&](int j) {
    return w.products()[static_cast<size_t>(products[static_cast<size_t>(j)])]
        .weight;
  };

  // Total-only attributes take 1^T in closed form (see opt_kron.h).
  std::vector<bool> total_only(static_cast<size_t>(d));
  int optimized = 0;  // Attributes OPT_0 runs on.
  for (int i = 0; i < d; ++i) {
    total_only[static_cast<size_t>(i)] =
        std::all_of(products.begin(), products.end(),
                    [&](int j) { return w.Stats(j, i).total_like; });
    if (!total_only[static_cast<size_t>(i)]) ++optimized;
  }

  // Per-product, per-attribute Gram matrices (Section 6.2 notes (W^T W)_i^(j)
  // can be precomputed), deduplicated on the workload's factor keys:
  // products that share an identical factor for attribute i (the common case
  // — unions are usually built from a small set of per-attribute building
  // blocks) share one Gram, one trace entry in the t table, and one term in
  // the surrogate sum. The Grams themselves come from the process-wide
  // GramCache, so they also survive across optimizer calls (serve-mode plans
  // re-planning similar workloads pay nothing).
  // unique_grams[i][u] is the Gram pool for attribute i; gram_id[j][i] maps
  // listed product j into it. A Total-only attribute needs no Gram: its
  // trace against 1^T is fixed per product, so gram_id[j][i] = j there.
  std::vector<std::vector<std::shared_ptr<const Matrix>>> unique_grams(
      static_cast<size_t>(d));
  std::vector<std::vector<int>> gram_id(static_cast<size_t>(k),
                                        std::vector<int>(static_cast<size_t>(d)));
  for (int i = 0; i < d; ++i) {
    if (total_only[static_cast<size_t>(i)]) {
      for (int j = 0; j < k; ++j)
        gram_id[static_cast<size_t>(j)][static_cast<size_t>(i)] = j;
      continue;
    }
    std::unordered_map<uint64_t, int> by_key;  // factor key -> pool index
    for (int j = 0; j < k; ++j) {
      const int product = products[static_cast<size_t>(j)];
      const uint64_t key = w.FactorKey(product, i);
      auto it = by_key.find(key);
      if (it == by_key.end()) {
        it = by_key.emplace(key, static_cast<int>(
                                     unique_grams[static_cast<size_t>(i)].size()))
                 .first;
        unique_grams[static_cast<size_t>(i)].push_back(
            w.FactorGram(product, i));
      }
      gram_id[static_cast<size_t>(j)][static_cast<size_t>(i)] = it->second;
    }
  }

  std::vector<int> p(static_cast<size_t>(d));
  for (int i = 0; i < d; ++i) {
    p[static_cast<size_t>(i)] = options.p.empty()
                                    ? AttributeDefaultP(w, products, i)
                                    : options.p[static_cast<size_t>(i)];
  }

  // One run; Algorithm 2's restarts are OptimizeStrategy's grid, which hands
  // every job its own stream. The start is drawn from Fork(0) rather than
  // from `rng` itself so that plans stay bit-identical to those of builds
  // whose OPT_x ran its own restarts (restart 0 drew from Fork(0)).
  Rng stream = rng->Fork(0);
  std::vector<Matrix> thetas;
  thetas.reserve(static_cast<size_t>(d));
  for (int i = 0; i < d; ++i) {
    thetas.push_back(Matrix::RandomUniform(p[static_cast<size_t>(i)],
                                           w.domain().AttributeSize(i),
                                           &stream, 0.0, 0.5));
  }
  // tu[i][u] = tr[(A_i^T A_i)^{-1} G_i^(u)], evaluated once per *unique*
  // Gram; t[j][i] reads through gram_id so products sharing a factor share
  // the trace.
  std::vector<std::vector<double>> tu(static_cast<size_t>(d));
  auto refresh_traces = [&](int i) {
    const auto& pool = unique_grams[static_cast<size_t>(i)];
    tu[static_cast<size_t>(i)].resize(pool.size());
    for (size_t u = 0; u < pool.size(); ++u)
      tu[static_cast<size_t>(i)][u] = PIdentityObjective::TraceWithGram(
          thetas[static_cast<size_t>(i)], *pool[u]);
  };
  for (int i = 0; i < d; ++i) {
    if (!total_only[static_cast<size_t>(i)]) {
      refresh_traces(i);
      continue;
    }
    // tr[(11^T)^+ F^T F] = 1^T F^T F 1 / n^2 = ||F 1||^2 / n^2: the row
    // count r of an all-ones F.
    const double n = static_cast<double>(w.domain().AttributeSize(i));
    for (int j : products)
      tu[static_cast<size_t>(i)].push_back(w.Stats(j, i).row_sum_sq / (n * n));
  }
  auto t = [&](int j, int i) {
    return tu[static_cast<size_t>(i)][static_cast<size_t>(
        gram_id[static_cast<size_t>(j)][static_cast<size_t>(i)])];
  };

  auto total_error = [&]() {
    double total = 0.0;
    for (int j = 0; j < k; ++j) {
      double term = weight(j) * weight(j);
      for (int i = 0; i < d; ++i) term *= t(j, i);
      total += term;
    }
    return total;
  };

  double err = total_error();
  // Block-cyclic optimization (Problem 3). With k == 1 the surrogate is
  // just a rescaled G_i, so one pass reduces to independent OPT_0 calls
  // (Definition 10). With one optimized attribute its surrogate never
  // changes, so one pass is exact too.
  const int cycles = (optimized <= 1) ? 1 : options.max_cycles;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (int i = 0; i < d; ++i) {
      if (total_only[static_cast<size_t>(i)]) continue;
      // Surrogate Gram: \hat{G}_i = sum_j c_j^2 G_i^(j) with
      // c_j = w_j prod_{i' != i} ||W_i'^(j) A_i'^+||_F (Equation 6).
      // Coefficients of products sharing a Gram are merged first so each
      // unique Gram is accumulated exactly once.
      const int64_t ni = w.domain().AttributeSize(i);
      const auto& pool = unique_grams[static_cast<size_t>(i)];
      std::vector<double> coeff(pool.size(), 0.0);
      for (int j = 0; j < k; ++j) {
        double c2 = weight(j) * weight(j);
        for (int i2 = 0; i2 < d; ++i2) {
          if (i2 == i) continue;
          c2 *= t(j, i2);
        }
        coeff[static_cast<size_t>(
            gram_id[static_cast<size_t>(j)][static_cast<size_t>(i)])] += c2;
      }
      Matrix surrogate = Matrix::Zeros(ni, ni);
      for (size_t u = 0; u < pool.size(); ++u)
        surrogate.AddInPlace(*pool[u], coeff[u]);
      Opt0Result res = Opt0WarmStart(
          surrogate, thetas[static_cast<size_t>(i)], options.lbfgs);
      thetas[static_cast<size_t>(i)] = std::move(res.theta);
      refresh_traces(i);
    }
    double new_err = total_error();
    if (err - new_err <= kCycleTol * std::fabs(err)) {
      err = new_err;
      break;
    }
    err = new_err;
  }
  OptKronResult out;
  out.factors.reserve(static_cast<size_t>(d));
  for (int i = 0; i < d; ++i) {
    out.factors.push_back(
        total_only[static_cast<size_t>(i)]
            ? TotalBlock(w.domain().AttributeSize(i))
            : PIdentityObjective::BuildStrategy(thetas[static_cast<size_t>(i)]));
  }
  out.error = err;
  return out;
}

}  // namespace hdmm
