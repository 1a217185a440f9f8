#include "core/opt_union.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/check.h"

namespace hdmm {

std::vector<std::vector<int>> PartitionBySignature(const UnionWorkload& w,
                                                   int max_groups) {
  const int d = w.domain().NumAttributes();
  HDMM_CHECK(d <= 31);
  std::map<uint32_t, std::vector<int>> by_signature;
  for (int j = 0; j < w.NumProducts(); ++j) {
    uint32_t sig = 0;
    for (int i = 0; i < d; ++i) {
      if (!w.Stats(j, i).total_like) sig |= (1u << i);
    }
    by_signature[sig].push_back(j);
  }
  std::vector<std::vector<int>> groups;
  for (auto& [sig, indices] : by_signature) groups.push_back(indices);
  // Merge smallest groups until within the cap.
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) { return a.size() > b.size(); });
  while (static_cast<int>(groups.size()) > std::max(1, max_groups)) {
    auto last = groups.back();
    groups.pop_back();
    groups.back().insert(groups.back().end(), last.begin(), last.end());
  }
  return groups;
}

std::vector<double> OptimalBudgetSplit(const std::vector<double>& errors) {
  // Minimize sum_g e_g / lambda_g^2 subject to sum lambda_g = 1:
  // stationarity gives lambda_g proportional to e_g^{1/3}.
  std::vector<double> split(errors.size(), 0.0);
  double z = 0.0;
  for (double e : errors) z += std::cbrt(std::max(0.0, e));
  if (z <= 0.0) {
    double uniform = 1.0 / static_cast<double>(errors.size());
    for (double& s : split) s = uniform;
    return split;
  }
  for (size_t g = 0; g < errors.size(); ++g)
    split[g] = std::cbrt(std::max(0.0, errors[g])) / z;
  return split;
}

OptUnionResult OptUnion(const UnionWorkload& w, const OptUnionOptions& options,
                        Rng* rng) {
  std::vector<std::vector<int>> groups =
      PartitionBySignature(w, options.max_groups);
  const int l = static_cast<int>(groups.size());

  OptUnionResult out;
  out.group_products = groups;
  std::vector<double> group_errors;
  for (const std::vector<int>& group : groups) {
    OptKronResult res = OptKron(w, group, options.kron, rng);
    group_errors.push_back(res.error);
    out.group_factors.push_back(std::move(res.factors));
  }

  if (options.optimize_budget_split) {
    out.budget_split = OptimalBudgetSplit(group_errors);
  } else {
    out.budget_split.assign(static_cast<size_t>(l),
                            1.0 / static_cast<double>(l));
  }
  // Total error under the split: each group's measurements get a
  // lambda_g-fraction of the budget, inflating its error by 1/lambda_g^2.
  // Scaling one factor of the group by lambda_g gives its strategy exactly
  // that share, and the strategy's closed-form error matches this sum.
  double total = 0.0;
  for (size_t g = 0; g < group_errors.size(); ++g) {
    double lam = std::max(1e-12, out.budget_split[g]);
    total += group_errors[g] / (lam * lam);
    out.group_factors[g][0].ScaleInPlace(out.budget_split[g]);
  }
  out.error = total;
  return out;
}

}  // namespace hdmm
