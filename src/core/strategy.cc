#include "core/strategy.h"

#include <cmath>
#include <map>

#include "common/check.h"
#include "core/gaussian.h"
#include "core/measure.h"
#include "linalg/lsmr.h"
#include "linalg/pinv.h"
#include "workload/building_blocks.h"

namespace hdmm {

// ---------------------------------------------------------------- Strategy

Vector Strategy::Measure(const Vector& x, double epsilon, Rng* rng) const {
  // LaplaceScale validates the contract: epsilon and the sensitivity must
  // both be positive and finite, else the noise would be NaN/zero and the
  // privacy guarantee silently void.
  const double scale = LaplaceScale(Sensitivity(), epsilon);
  Vector answers = Apply(x);
  for (double& v : answers) v += rng->Laplace(scale);
  return answers;
}

Vector Strategy::MeasureGaussian(const Vector& x, double rho,
                                 Rng* rng) const {
  // GaussianSigmaFromRho validates the contract: rho and the L2 sensitivity
  // must both be positive and finite, else the noise would be NaN/zero and
  // the zCDP guarantee silently void.
  const double sigma = GaussianSigmaFromRho(L2Sensitivity(), rho);
  Vector answers = Apply(x);
  for (double& v : answers) v += sigma * rng->Gaussian();
  return answers;
}

double Strategy::TotalSquaredError(const UnionWorkload& w,
                                   double epsilon) const {
  return 2.0 / (epsilon * epsilon) * SquaredError(w);
}

double Strategy::RootMeanSquaredError(const UnionWorkload& w,
                                      double epsilon) const {
  return std::sqrt(TotalSquaredError(w, epsilon) /
                   static_cast<double>(w.TotalQueries()));
}

// -------------------------------------------------------- ExplicitStrategy

ExplicitStrategy::ExplicitStrategy(Matrix a, std::string name)
    : a_(std::move(a)), name_(std::move(name)) {}

double ExplicitStrategy::Sensitivity() const { return a_.MaxAbsColSum(); }

double ExplicitStrategy::L2Sensitivity() const {
  return hdmm::L2Sensitivity(a_);
}

Vector ExplicitStrategy::Apply(const Vector& x) const { return MatVec(a_, x); }

const Matrix& ExplicitStrategy::Pinv() const {
  std::call_once(pinv_once_, [this] { pinv_ = PseudoInverse(a_); });
  return pinv_;
}

Vector ExplicitStrategy::Reconstruct(const Vector& y) const {
  return MatVec(Pinv(), y);
}

double ExplicitStrategy::SquaredError(const UnionWorkload& w) const {
  HDMM_CHECK(w.DomainSize() == a_.cols());
  Matrix wg = w.ExplicitGram();
  double sens = Sensitivity();
  return sens * sens * TracePinvGram(Gram(a_), wg);
}

// ------------------------------------------------------------ KronStrategy

KronStrategy::KronStrategy(std::vector<Matrix> factors, std::string name)
    : factors_(std::move(factors)), name_(std::move(name)) {
  HDMM_CHECK(!factors_.empty());
}

int64_t KronStrategy::DomainSize() const {
  int64_t n = 1;
  for (const Matrix& f : factors_) n *= f.cols();
  return n;
}

int64_t KronStrategy::NumQueries() const {
  int64_t m = 1;
  for (const Matrix& f : factors_) m *= f.rows();
  return m;
}

double KronStrategy::Sensitivity() const {
  // Memoized: MaxAbsColSum allocates a column-sum scratch per factor, and
  // SquaredError calls this on every evaluation — the cache keeps repeated
  // error evaluations allocation-free once warm.
  std::call_once(sensitivity_once_,
                 [this] { sensitivity_ = KronSensitivity(factors_); });
  return sensitivity_;
}

double KronStrategy::L2Sensitivity() const {
  return KronL2Sensitivity(factors_);
}

Vector KronStrategy::Apply(const Vector& x) const {
  return KronMatVec(factors_, x);
}

const std::vector<Matrix>& KronStrategy::FactorPinvs() const {
  std::call_once(pinvs_once_, [this] {
    pinvs_.reserve(factors_.size());
    for (const Matrix& f : factors_) pinvs_.push_back(PseudoInverse(f));
  });
  return pinvs_;
}

Vector KronStrategy::Reconstruct(const Vector& y) const {
  return KronMatVec(FactorPinvs(), y);
}

const std::vector<PinvGramTracer>& KronStrategy::FactorTracers() const {
  std::call_once(tracers_once_, [this] {
    tracers_.reserve(factors_.size());
    for (const Matrix& f : factors_) tracers_.emplace_back(f);
  });
  return tracers_;
}

double KronStrategy::SquaredError(const UnionWorkload& w) const {
  HDMM_CHECK(w.DomainSize() == DomainSize());
  HDMM_CHECK(static_cast<int>(factors_.size()) ==
             w.domain().NumAttributes());
  // Theorem 6: ||W A^+||_F^2 = sum_j w_j^2 prod_i tr[(A_i^T A_i)^+ G_i^(j)].
  // The factor Grams and their inverses live on the strategy (FactorTracers)
  // and the workload Grams come shared from the GramCache under the
  // workload's own factor keys, so once both are warm a repeated evaluation
  // materializes and rehashes nothing.
  const std::vector<PinvGramTracer>& tracers = FactorTracers();
  double total = 0.0;
  for (int j = 0; j < w.NumProducts(); ++j) {
    const double weight = w.products()[static_cast<size_t>(j)].weight;
    double term = weight * weight;
    for (size_t i = 0; i < factors_.size(); ++i) {
      term *= tracers[i].Trace(*w.FactorGram(j, static_cast<int>(i)));
    }
    total += term;
  }
  double sens = Sensitivity();
  return sens * sens * total;
}

// ------------------------------------------------------- UnionKronStrategy

UnionKronStrategy::UnionKronStrategy(
    std::vector<std::vector<Matrix>> parts,
    std::vector<std::vector<int>> group_products, std::string name)
    : parts_(std::move(parts)),
      group_products_(std::move(group_products)),
      name_(std::move(name)) {
  HDMM_CHECK(!parts_.empty());
  HDMM_CHECK(parts_.size() == group_products_.size());
  std::vector<std::shared_ptr<const LinearOperator>> blocks;
  for (const auto& factors : parts_)
    blocks.push_back(std::make_shared<KronOperator>(factors));
  op_ = std::make_shared<StackedOperator>(std::move(blocks));
}

int64_t UnionKronStrategy::DomainSize() const { return op_->Cols(); }

int64_t UnionKronStrategy::NumQueries() const { return op_->Rows(); }

double UnionKronStrategy::Sensitivity() const {
  // Memoized for the same reason as KronStrategy::Sensitivity.
  std::call_once(sensitivity_once_, [this] {
    double s = 0.0;
    for (const auto& factors : parts_) s += KronSensitivity(factors);
    sensitivity_ = s;
  });
  return sensitivity_;
}

double UnionKronStrategy::L2Sensitivity() const {
  // Columns of the stack concatenate the parts' columns, so squared norms
  // add per column; bounding each part's contribution by its own max column
  // norm gives max_j ||col_j||^2 <= sum_k max_j ||col_j of part k||^2. An
  // upper bound — sound to calibrate against, exact when the parts attain
  // their maxima in the same column (e.g. uniform-column-norm blocks).
  std::vector<double> part(parts_.size());
  for (size_t g = 0; g < parts_.size(); ++g) {
    part[g] = KronL2Sensitivity(parts_[g]);
  }
  return L2Norm(part.data(), static_cast<int64_t>(part.size()));
}

Vector UnionKronStrategy::Apply(const Vector& x) const {
  return op_->Apply(x);
}

Vector UnionKronStrategy::Reconstruct(const Vector& y) const {
  LsmrResult res = LsmrSolve(*op_, y);
  return res.x;
}

const std::vector<std::vector<PinvGramTracer>>&
UnionKronStrategy::PartTracers() const {
  std::call_once(part_tracers_once_, [this] {
    part_tracers_.resize(parts_.size());
    for (size_t g = 0; g < parts_.size(); ++g) {
      part_tracers_[g].reserve(parts_[g].size());
      for (const Matrix& f : parts_[g]) part_tracers_[g].emplace_back(f);
    }
  });
  return part_tracers_;
}

double UnionKronStrategy::SquaredError(const UnionWorkload& w) const {
  HDMM_CHECK_MSG(static_cast<int>(group_products_.size()) >= 1,
                 "union strategy without group mapping");
  // Each group g answers the workload products assigned to it using its own
  // sub-strategy; the stacked sensitivity scales all measurements. Factor
  // Grams and inverses are memoized per part (PartTracers), so repeated
  // evaluations allocate nothing once the GramCache is warm.
  const std::vector<std::vector<PinvGramTracer>>& tracers = PartTracers();
  double total = 0.0;
  for (size_t g = 0; g < parts_.size(); ++g) {
    for (int j : group_products_[g]) {
      HDMM_CHECK(j >= 0 && j < w.NumProducts());
      const double weight = w.products()[static_cast<size_t>(j)].weight;
      double term = weight * weight;
      for (size_t i = 0; i < tracers[g].size(); ++i) {
        term *= tracers[g][i].Trace(*w.FactorGram(j, static_cast<int>(i)));
      }
      total += term;
    }
  }
  double sens = Sensitivity();
  return sens * sens * total;
}

// ------------------------------------------------------- MarginalsStrategy

MarginalsStrategy::MarginalsStrategy(Domain domain, Vector theta,
                                     std::string name)
    : domain_(std::move(domain)),
      theta_(std::move(theta)),
      name_(std::move(name)),
      algebra_(domain_.sizes()) {
  HDMM_CHECK(theta_.size() == algebra_.num_masks());
}

std::vector<uint32_t> MarginalsStrategy::ActiveMasks() const {
  std::vector<uint32_t> masks;
  for (uint32_t a = 0; a < algebra_.num_masks(); ++a) {
    if (theta_[a] > 1e-12) masks.push_back(a);
  }
  HDMM_CHECK_MSG(!masks.empty(), "marginals strategy with all-zero weights");
  return masks;
}

std::vector<Matrix> MarginalsStrategy::MarginalFactors(uint32_t mask) const {
  std::vector<Matrix> factors;
  for (int i = 0; i < domain_.NumAttributes(); ++i) {
    const int64_t n = domain_.AttributeSize(i);
    factors.push_back(((mask >> i) & 1u) ? IdentityBlock(n) : TotalBlock(n));
  }
  return factors;
}

int64_t MarginalsStrategy::NumQueries() const {
  int64_t m = 0;
  for (uint32_t mask : ActiveMasks()) {
    int64_t cells = 1;
    for (int i = 0; i < domain_.NumAttributes(); ++i)
      if ((mask >> i) & 1u) cells *= domain_.AttributeSize(i);
    m += cells;
  }
  return m;
}

double MarginalsStrategy::Sensitivity() const {
  double s = 0.0;
  for (double t : theta_) s += std::fabs(t);
  return s;
}

double MarginalsStrategy::L2Sensitivity() const {
  // One record lands in exactly one cell of every active marginal, with
  // coefficient theta_a — every column of M(theta) has norm
  // sqrt(sum_a theta_a^2) exactly.
  return L2Norm(theta_.data(), static_cast<int64_t>(theta_.size()));
}

Vector MarginalsStrategy::Apply(const Vector& x) const {
  Vector out;
  for (uint32_t mask : ActiveMasks()) {
    Vector part = KronMatVec(MarginalFactors(mask), x);
    for (double& v : part) v *= theta_[mask];
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

Vector MarginalsStrategy::Reconstruct(const Vector& y) const {
  // x_hat = (M^T M)^{-1} M^T y, with (M^T M)^{-1} = G(v) (Appendix A.4),
  // through the same per-submask tables the sessions stream from.
  Vector xhat(static_cast<size_t>(domain_.TotalSize()));
  MarginalsStreamReconstructor(*this, y).Fill(0, domain_.TotalSize(),
                                              xhat.data());
  return xhat;
}

double MarginalsStrategy::SquaredError(const UnionWorkload& w) const {
  Vector tau = algebra_.WorkloadTraceVector(w);
  double tr = algebra_.TraceObjective(theta_, tau);
  double sens = Sensitivity();
  return sens * sens * tr;
}

// --------------------------------------------- MarginalsStreamReconstructor

namespace {

// Sums a per-mask measurement table (row-major over mask's attributes,
// ascending) down to the attributes in `sub` (sub subset of mask). Tables
// are marginal-sized, so the straightforward odometer pass is cheap.
Vector DownsumTable(const Domain& domain, uint32_t mask, uint32_t sub,
                    const Vector& in) {
  const int d = domain.NumAttributes();
  std::vector<int> attrs;
  for (int i = 0; i < d; ++i) {
    if ((mask >> i) & 1u) attrs.push_back(i);
  }
  const size_t k = attrs.size();
  std::vector<int64_t> in_stride(k, 1);
  for (size_t i = k; i-- > 1;) {
    in_stride[i - 1] = in_stride[i] * domain.AttributeSize(attrs[i]);
  }
  // Row-major strides of the output over the kept attributes (0 = summed
  // out), built innermost-first.
  int64_t out_cells = 1;
  std::vector<int64_t> out_stride(k, 0);
  for (size_t i = k; i-- > 0;) {
    if ((sub >> attrs[i]) & 1u) {
      out_stride[i] = out_cells;
      out_cells *= domain.AttributeSize(attrs[i]);
    }
  }
  Vector out(static_cast<size_t>(out_cells), 0.0);
  std::vector<int64_t> coord(k, 0);
  int64_t out_idx = 0;
  for (size_t cell = 0; cell < in.size(); ++cell) {
    out[static_cast<size_t>(out_idx)] += in[cell];
    size_t axis = k;
    while (axis-- > 0) {
      out_idx += out_stride[axis];
      if (++coord[axis] < domain.AttributeSize(attrs[axis])) break;
      out_idx -= coord[axis] * out_stride[axis];
      coord[axis] = 0;
    }
  }
  return out;
}

}  // namespace

MarginalsStreamReconstructor::MarginalsStreamReconstructor(
    const MarginalsStrategy& strategy, const Vector& y)
    : domain_(strategy.domain()) {
  const int d = domain_.NumAttributes();
  const MarginalsAlgebra algebra(domain_.sizes());
  const uint32_t full = algebra.num_masks() - 1;
  const Vector& theta = strategy.theta();
  Vector u(algebra.num_masks());
  for (uint32_t a = 0; a < algebra.num_masks(); ++a) u[a] = theta[a] * theta[a];
  const Vector v = algebra.InverseWeights(u);

  // Combined tables E_s in ascending-submask order (deterministic layout —
  // the backends' bit-identity rests on a fixed summation order).
  std::map<uint32_t, Vector> combined;
  size_t offset = 0;
  for (uint32_t m : strategy.ActiveMasks()) {
    int64_t cells = 1;
    for (int i = 0; i < d; ++i) {
      if ((m >> i) & 1u) cells *= domain_.AttributeSize(i);
    }
    HDMM_CHECK(offset + static_cast<size_t>(cells) <= y.size());
    const Vector raw(y.begin() + static_cast<long>(offset),
                     y.begin() + static_cast<long>(offset) +
                         static_cast<long>(cells));
    offset += static_cast<size_t>(cells);

    // K_{m,s} = theta_m sum_{b subset ~m} v_{s|b} prod_{i in ~m \ b} n_i:
    // every G(v) term with a & m == s lands on the same downsummed table.
    const uint32_t fm = full & ~m;
    uint32_t s = m;
    while (true) {
      double k = 0.0;
      uint32_t b = fm;
      while (true) {
        double mult = 1.0;
        for (int i = 0; i < d; ++i) {
          if (((fm >> i) & 1u) && !((b >> i) & 1u)) {
            mult *= static_cast<double>(domain_.AttributeSize(i));
          }
        }
        k += v[s | b] * mult;
        if (b == 0) break;
        b = (b - 1) & fm;
      }
      k *= theta[m];
      if (k != 0.0) {
        Vector t = DownsumTable(domain_, m, s, raw);
        Vector& e = combined[s];
        if (e.empty()) e.assign(t.size(), 0.0);
        HDMM_CHECK(e.size() == t.size());
        for (size_t i = 0; i < t.size(); ++i) e[i] += k * t[i];
      }
      if (s == 0) break;
      s = (s - 1) & m;
    }
  }
  HDMM_CHECK(offset == y.size());

  for (auto& [s, values] : combined) {
    Table table;
    table.values = std::move(values);
    table.stride.assign(static_cast<size_t>(d), 0);
    int64_t stride = 1;
    for (int i = d; i-- > 0;) {
      if ((s >> i) & 1u) {
        table.stride[static_cast<size_t>(i)] = stride;
        stride *= domain_.AttributeSize(i);
      }
    }
    // roll[j]: index delta when axis j increments and every inner axis
    // wraps from its maximum back to zero.
    table.roll.assign(static_cast<size_t>(d), 0);
    for (int j = 0; j < d; ++j) {
      int64_t roll = table.stride[static_cast<size_t>(j)];
      for (int i = j + 1; i < d; ++i) {
        roll -= (domain_.AttributeSize(i) - 1) *
                table.stride[static_cast<size_t>(i)];
      }
      table.roll[static_cast<size_t>(j)] = roll;
    }
    tables_.push_back(std::move(table));
  }
}

void MarginalsStreamReconstructor::Fill(int64_t begin, int64_t end,
                                        double* out) const {
  HDMM_CHECK(begin >= 0 && begin <= end && end <= domain_.TotalSize());
  if (begin == end) return;
  const int d = domain_.NumAttributes();
  std::vector<int64_t> coord = domain_.Unflatten(begin);
  const size_t nt = tables_.size();
  std::vector<int64_t> idx(nt, 0);
  for (size_t t = 0; t < nt; ++t) {
    for (int i = 0; i < d; ++i) {
      idx[t] += coord[static_cast<size_t>(i)] *
                tables_[t].stride[static_cast<size_t>(i)];
    }
  }
  for (int64_t c = begin; c < end; ++c) {
    double value = 0.0;
    for (size_t t = 0; t < nt; ++t) {
      value += tables_[t].values[static_cast<size_t>(idx[t])];
    }
    *out++ = value;
    int axis = d - 1;
    while (axis >= 0) {
      if (++coord[static_cast<size_t>(axis)] < domain_.AttributeSize(axis)) {
        break;
      }
      coord[static_cast<size_t>(axis)] = 0;
      --axis;
    }
    if (axis < 0) break;  // Walked past the final cell.
    for (size_t t = 0; t < nt; ++t) {
      idx[t] += tables_[t].roll[static_cast<size_t>(axis)];
    }
  }
}

}  // namespace hdmm
