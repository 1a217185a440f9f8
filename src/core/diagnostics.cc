#include "core/diagnostics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "core/gaussian.h"
#include "core/svd_bound.h"
#include "linalg/gemm.h"
#include "linalg/kron.h"
#include "linalg/pinv.h"
#include "linalg/svd.h"

namespace hdmm {
namespace {

// rank and extreme singular values of an explicit matrix.
void SpectralSummary(const Matrix& a, double rcond, int64_t* rank,
                     double* sigma_max, double* sigma_min_positive) {
  const Vector s = SingularValues(a);
  *sigma_max = s.empty() ? 0.0 : s.front();
  const double cutoff = rcond * (*sigma_max);
  *rank = 0;
  *sigma_min_positive = 0.0;
  for (double sv : s) {
    if (sv > cutoff && sv > 0.0) {
      ++*rank;
      *sigma_min_positive = sv;  // s is descending; last kept is smallest.
    }
  }
}

}  // namespace

bool SupportsWorkloadExplicit(const Matrix& w, const Matrix& a, double tol) {
  HDMM_CHECK(w.cols() == a.cols());
  // W A^+ A == W <=> residual of projecting each workload row onto
  // rowspace(A) vanishes. The rows go through the cols x cols projector
  // A^+ A a block at a time, so no product as tall as W is held: an
  // AllRange(115) factor has 6,670 rows.
  const Matrix projector = MatMul(PseudoInverse(a), a);
  const int64_t n = w.cols();
  constexpr int64_t kBlockRows = 256;
  Matrix projected;
  double residual = 0.0;
  for (int64_t r0 = 0; r0 < w.rows(); r0 += kBlockRows) {
    const int64_t rows = std::min(kBlockRows, w.rows() - r0);
    projected.ResizeZeroed(rows, n);
    GemmViewUpdate(rows, n, n, 1.0, w.Row(r0), n, false, projector.data(), n,
                   false, projected.data(), n, /*lower_only=*/false);
    for (int64_t i = 0; i < rows; ++i) {
      const double* got = projected.Row(i);
      const double* want = w.Row(r0 + i);
      for (int64_t j = 0; j < n; ++j)
        residual = std::max(residual, std::fabs(got[j] - want[j]));
    }
  }
  return residual <= tol;
}

bool SupportsWorkload(const Strategy& strategy, const UnionWorkload& w,
                      double tol) {
  HDMM_CHECK(strategy.DomainSize() == w.DomainSize());

  if (const auto* kron = dynamic_cast<const KronStrategy*>(&strategy)) {
    // Product strategies: exact per-factor reduction. rowspace of a
    // Kronecker product is the tensor product of factor rowspaces, so the
    // product workload is contained iff each factor is.
    const std::vector<Matrix>& factors = kron->factors();
    for (const ProductWorkload& p : w.products()) {
      HDMM_CHECK(p.factors.size() == factors.size());
      for (size_t i = 0; i < factors.size(); ++i) {
        if (!SupportsWorkloadExplicit(p.factors[i], factors[i], tol)) {
          return false;
        }
      }
    }
    return true;
  }

  if (const auto* marg = dynamic_cast<const MarginalsStrategy*>(&strategy)) {
    // M(theta) spans the full contingency table iff the full marginal has
    // positive weight; then every linear query is supported.
    const Vector& theta = marg->theta();
    return theta.back() > tol;
  }

  if (const auto* expl = dynamic_cast<const ExplicitStrategy*>(&strategy)) {
    return SupportsWorkloadExplicit(w.Explicit(), expl->matrix(), tol);
  }

  if (const auto* uk = dynamic_cast<const UnionKronStrategy*>(&strategy)) {
    // Definition 11 convention: each part answers its own product group.
    for (int g = 0; g < uk->NumParts(); ++g) {
      const std::vector<Matrix>& part = uk->parts()[static_cast<size_t>(g)];
      for (int prod : uk->group_products()[static_cast<size_t>(g)]) {
        HDMM_CHECK(prod >= 0 && prod < w.NumProducts());
        const ProductWorkload& p = w.products()[static_cast<size_t>(prod)];
        HDMM_CHECK(p.factors.size() == part.size());
        for (size_t i = 0; i < part.size(); ++i) {
          if (!SupportsWorkloadExplicit(p.factors[i], part[i], tol)) {
            return false;
          }
        }
      }
    }
    return true;
  }

  HDMM_CHECK_MSG(false, "unknown strategy type for support checking");
  return false;
}

StrategyReport DescribeStrategy(const Strategy& strategy,
                                int64_t max_explicit_cells) {
  StrategyReport report;
  report.name = strategy.Name();
  report.num_queries = strategy.NumQueries();
  report.domain_size = strategy.DomainSize();
  report.l1_sensitivity = strategy.Sensitivity();

  constexpr double kRcond = 1e-12;
  if (const auto* kron = dynamic_cast<const KronStrategy*>(&strategy)) {
    // Spectra of Kronecker products multiply: rank is the product of factor
    // ranks; extreme singular values are products of extremes.
    report.l2_sensitivity = KronL2Sensitivity(kron->factors());
    report.rank = 1;
    double sigma_max = 1.0, sigma_min = 1.0;
    for (const Matrix& f : kron->factors()) {
      int64_t r;
      double smax, smin;
      SpectralSummary(f, kRcond, &r, &smax, &smin);
      report.rank *= r;
      sigma_max *= smax;
      sigma_min *= smin;
    }
    report.condition_number = sigma_min > 0.0 ? sigma_max / sigma_min : 0.0;
  } else if (const auto* expl =
                 dynamic_cast<const ExplicitStrategy*>(&strategy)) {
    report.l2_sensitivity = L2Sensitivity(expl->matrix());
    double sigma_max, sigma_min;
    SpectralSummary(expl->matrix(), kRcond, &report.rank, &sigma_max,
                    &sigma_min);
    report.condition_number = sigma_min > 0.0 ? sigma_max / sigma_min : 0.0;
  } else {
    // Generic path: expand A row-block by applying it to basis vectors.
    HDMM_CHECK_MSG(
        report.num_queries * report.domain_size <= max_explicit_cells,
        "strategy too large for explicit diagnostics");
    Matrix a(report.num_queries, report.domain_size);
    Vector e(static_cast<size_t>(report.domain_size), 0.0);
    for (int64_t j = 0; j < report.domain_size; ++j) {
      e[static_cast<size_t>(j)] = 1.0;
      const Vector col = strategy.Apply(e);
      for (int64_t i = 0; i < report.num_queries; ++i) {
        a(i, j) = col[static_cast<size_t>(i)];
      }
      e[static_cast<size_t>(j)] = 0.0;
    }
    report.l2_sensitivity = L2Sensitivity(a);
    double sigma_max, sigma_min;
    SpectralSummary(a, kRcond, &report.rank, &sigma_max, &sigma_min);
    report.condition_number = sigma_min > 0.0 ? sigma_max / sigma_min : 0.0;
  }
  report.full_column_rank = report.rank == report.domain_size;
  return report;
}

std::string ReportToString(const StrategyReport& report) {
  std::ostringstream out;
  out << "strategy " << report.name << ": " << report.num_queries
      << " queries over " << report.domain_size << " cells\n";
  out << "  L1 sensitivity " << report.l1_sensitivity << ", L2 sensitivity "
      << report.l2_sensitivity << "\n";
  out << "  rank " << report.rank << "/" << report.domain_size
      << (report.full_column_rank ? " (supports every workload)" : "")
      << ", condition number " << report.condition_number << "\n";
  return out.str();
}

SessionDiagnostics DiagnoseSession(const Strategy& strategy,
                                   const UnionWorkload& w, double epsilon,
                                   int64_t max_explicit_cells) {
  SessionDiagnostics diag;
  diag.epsilon = epsilon;
  // Single products get the implicit (factor-multiplicative) nuclear norm at
  // any size; unions need the explicit N x N Gram spectrum, so refuse
  // gracefully past the ceiling instead of dying inside the bound.
  if (w.NumProducts() > 1 && w.DomainSize() > max_explicit_cells) {
    diag.note = "lower bound needs the explicit Gram spectrum (domain " +
                std::to_string(w.DomainSize()) + " > ceiling " +
                std::to_string(max_explicit_cells) + " for union workloads)";
    return diag;
  }
  const double bound_sq =
      SquaredErrorLowerBound(w, w.DomainSize() * w.DomainSize());
  if (bound_sq <= 0.0) {
    diag.note = "degenerate workload: zero spectral bound";
    return diag;
  }
  const double achieved_sq = strategy.SquaredError(w);
  diag.lower_bound_total_sq = 2.0 / (epsilon * epsilon) * bound_sq;
  diag.achieved_total_sq = 2.0 / (epsilon * epsilon) * achieved_sq;
  // Root scale (the paper's error-ratio convention): 100% certifies the
  // plan optimal among all supporting strategies. Epsilon cancels.
  diag.pct_of_optimal =
      achieved_sq > 0.0 ? 100.0 * std::sqrt(bound_sq / achieved_sq) : 0.0;
  diag.computable = true;
  return diag;
}

}  // namespace hdmm
