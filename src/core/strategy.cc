#include "core/strategy.h"

#include <algorithm>
#include <cmath>

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

namespace {

// Cells of the marginal table over the attributes in `mask`.
int64_t TableCells(const Domain& domain, uint32_t mask) {
  int64_t cells = 1;
  for (int i = 0; i < domain.NumAttributes(); ++i) {
    if ((mask >> i) & 1u) cells *= domain.AttributeSize(i);
  }
  return cells;
}

}  // namespace

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
  for (uint32_t mask : ActiveMasks()) m += TableCells(domain_, mask);
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
  // Through the same tables the sessions stream from.
  Vector xhat(static_cast<size_t>(domain_.TotalSize()));
  MarginalsStreamReconstructor(*this, y).Fill(0, domain_.TotalSize(),
                                              xhat.data());
  return xhat;
}

double MarginalsStrategy::SquaredError(const UnionWorkload& w) const {
  const double tr =
      algebra_.TraceObjective(theta_, algebra_.EigenspaceTraces(w));
  const double sens = Sensitivity();
  return sens * sens * tr;
}

// --------------------------------------------- MarginalsStreamReconstructor

namespace {

// A table over the attributes of `mask` (row-major, ascending attributes)
// seen around one of them, `axis`: cell (o, k, r) sits at (o * n + k) *
// inner + r, with `outer` cells of the attributes before it and `inner` of
// those after it.
struct AxisSplit {
  int64_t outer = 1;
  int64_t n = 1;
  int64_t inner = 1;
};

AxisSplit SplitAt(const Domain& domain, uint32_t mask, int axis) {
  AxisSplit split;
  split.n = domain.AttributeSize(axis);
  for (int i = 0; i < domain.NumAttributes(); ++i) {
    if (i == axis || !((mask >> i) & 1u)) continue;
    (i < axis ? split.outer : split.inner) *= domain.AttributeSize(i);
  }
  return split;
}

// small[o, r] += scale * sum_k big[o, k, r].
void AddAxisSum(const AxisSplit& s, const double* big, double scale,
                double* small) {
  for (int64_t o = 0; o < s.outer; ++o) {
    for (int64_t k = 0; k < s.n; ++k) {
      const double* in = big + (o * s.n + k) * s.inner;
      for (int64_t r = 0; r < s.inner; ++r) {
        small[o * s.inner + r] += scale * in[r];
      }
    }
  }
}

// big[o, k, r] += scale * small[o, r].
void AddBroadcast(const AxisSplit& s, const double* small, double scale,
                  double* big) {
  for (int64_t o = 0; o < s.outer; ++o) {
    for (int64_t k = 0; k < s.n; ++k) {
      double* out = big + (o * s.n + k) * s.inner;
      for (int64_t r = 0; r < s.inner; ++r) {
        out[r] += scale * small[o * s.inner + r];
      }
    }
  }
}

}  // namespace

MarginalsStreamReconstructor::MarginalsStreamReconstructor(
    const MarginalsStrategy& strategy, const Vector& y)
    : domain_(strategy.domain()) {
  const int d = domain_.NumAttributes();
  const MarginalsAlgebra algebra(domain_.sizes());
  const uint32_t masks = algebra.num_masks();
  const Vector& theta = strategy.theta();
  const Vector a = algebra.Eigenvalues(theta);

  // z[m] starts as theta_m Y_m for every measured mask; an empty table is a
  // mask outside every measured one.
  std::vector<Vector> z(masks);
  size_t offset = 0;
  for (uint32_t m : strategy.ActiveMasks()) {
    const size_t cells = static_cast<size_t>(TableCells(domain_, m));
    HDMM_CHECK(offset + cells <= y.size());
    z[m].assign(y.begin() + static_cast<long>(offset),
                y.begin() + static_cast<long>(offset + cells));
    for (double& v : z[m]) v *= theta[m];
    offset += cells;
  }
  HDMM_CHECK(offset == y.size());

  // 1. Down: z_V = sum_{m superset of V} theta_m mean_{m\V}(Y_m), a
  //    superset-sum transform whose step along attribute i averages it out.
  //    Every subset of a measured mask gets a table.
  for (int i = 0; i < d; ++i) {
    const uint32_t bit = uint32_t{1} << i;
    for (uint32_t v = 0; v < masks; ++v) {
      if (!(v & bit) || z[v].empty()) continue;
      const AxisSplit s = SplitAt(domain_, v, i);
      Vector& dst = z[v ^ bit];
      if (dst.empty()) dst.assign(static_cast<size_t>(s.outer * s.inner), 0.0);
      AddAxisSum(s, z[v].data(), 1.0 / static_cast<double>(s.n), dst.data());
    }
  }

  // 2. Center each z_U along its own attributes (Q_i) and scale it by 1/a_U;
  //    a_U >= theta_m^2 c(m) > 0 for U inside a measured m.
  Vector mean;
  for (uint32_t u = 0; u < masks; ++u) {
    if (z[u].empty()) continue;
    HDMM_CHECK(a[u] > 0.0);
    for (int i = 0; i < d; ++i) {
      if (!((u >> i) & 1u)) continue;
      const AxisSplit s = SplitAt(domain_, u, i);
      mean.assign(static_cast<size_t>(s.outer * s.inner), 0.0);
      AddAxisSum(s, z[u].data(), 1.0 / static_cast<double>(s.n), mean.data());
      AddBroadcast(s, mean.data(), -1.0, z[u].data());
    }
    for (double& v : z[u]) v /= a[u];
  }

  // 3. Up: broadcast-add each table into a superset table along one
  //    attribute (the smallest available), in ascending mask order so that a
  //    table has received all of its subsets before it moves on. Only the
  //    maximal tables are left.
  for (uint32_t u = 0; u < masks; ++u) {
    if (z[u].empty()) continue;
    int axis = -1;
    for (int i = 0; i < d; ++i) {
      if (((u >> i) & 1u) || z[u | (uint32_t{1} << i)].empty()) continue;
      if (axis < 0 || domain_.AttributeSize(i) < domain_.AttributeSize(axis)) {
        axis = i;
      }
    }
    if (axis < 0) continue;
    const uint32_t parent = u | (uint32_t{1} << axis);
    AddBroadcast(SplitAt(domain_, parent, axis), z[u].data(), 1.0,
                 z[parent].data());
    Vector().swap(z[u]);
  }

  for (uint32_t u = 0; u < masks; ++u) {
    if (z[u].empty()) continue;
    Table table;
    table.values = std::move(z[u]);
    table.stride.assign(static_cast<size_t>(d), 0);
    int64_t stride = 1;
    for (int i = d; i-- > 0;) {
      if ((u >> i) & 1u) {
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
