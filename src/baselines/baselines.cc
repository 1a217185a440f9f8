#include "baselines/baselines.h"

#include <cmath>

#include "common/check.h"
#include "core/error.h"
#include "core/gaussian.h"
#include "linalg/kron.h"
#include "linalg/lsmr.h"
#include "linalg/pinv.h"
#include "linalg/trace_estimator.h"
#include "workload/building_blocks.h"

namespace hdmm {

std::unique_ptr<Strategy> MakeIdentityBaseline(const Domain& domain) {
  std::vector<Matrix> factors;
  for (int i = 0; i < domain.NumAttributes(); ++i)
    factors.push_back(IdentityBlock(domain.AttributeSize(i)));
  return std::make_unique<KronStrategy>(std::move(factors), "identity");
}

double LaplaceMechanismSquaredError(const UnionWorkload& w) {
  double sens = w.Sensitivity();
  double weighted_rows = 0.0;
  for (const ProductWorkload& p : w.products()) {
    weighted_rows +=
        p.weight * p.weight * static_cast<double>(p.NumQueries());
  }
  return sens * sens * weighted_rows;
}

ImplicitStackedStrategy::ImplicitStackedStrategy(
    std::vector<std::vector<Matrix>> parts, std::string name,
    int64_t dense_threshold, uint64_t estimator_seed, int estimator_samples)
    : parts_(std::move(parts)),
      name_(std::move(name)),
      dense_threshold_(dense_threshold),
      estimator_seed_(estimator_seed),
      estimator_samples_(estimator_samples) {
  HDMM_CHECK(!parts_.empty());
  std::vector<std::shared_ptr<const LinearOperator>> blocks;
  for (const auto& factors : parts_)
    blocks.push_back(std::make_shared<KronOperator>(factors));
  op_ = std::make_shared<StackedOperator>(std::move(blocks));
}

int64_t ImplicitStackedStrategy::DomainSize() const { return op_->Cols(); }

int64_t ImplicitStackedStrategy::NumQueries() const { return op_->Rows(); }

double ImplicitStackedStrategy::Sensitivity() const {
  // Exact when every part has uniform column sums (true for the partition
  // levels these baselines stack); an upper bound otherwise.
  double s = 0.0;
  for (const auto& factors : parts_) s += KronSensitivity(factors);
  return s;
}

double ImplicitStackedStrategy::L2Sensitivity() const {
  double sq = 0.0;
  for (const auto& factors : parts_) {
    const double part = KronL2Sensitivity(factors);
    sq += part * part;
  }
  return std::sqrt(sq);
}

Vector ImplicitStackedStrategy::Apply(const Vector& x) const {
  return op_->Apply(x);
}

Vector ImplicitStackedStrategy::Reconstruct(const Vector& y) const {
  return LsmrSolve(*op_, y).x;
}

double ImplicitStackedStrategy::SquaredError(const UnionWorkload& w) const {
  HDMM_CHECK(w.DomainSize() == DomainSize());
  const double sens = Sensitivity();
  if (DomainSize() <= dense_threshold_) {
    // Exact dense path.
    std::vector<Matrix> blocks;
    for (const auto& factors : parts_) blocks.push_back(KronExplicit(factors));
    Matrix a = VStack(blocks);
    return sens * sens * TracePinvGram(Gram(a), w.ExplicitGram());
  }
  // Matrix-free Hutchinson estimate. A loose CG tolerance is plenty: the
  // Hutchinson sampling error (~1/sqrt(samples)) dominates the solve error.
  Rng rng(estimator_seed_);
  auto wop = w.ToOperator();
  GramOperator gram_a(op_);
  GramOperator gram_w(wop);
  TraceEstimatorOptions opts;
  opts.num_samples = estimator_samples_;
  opts.cg.rtol = 1e-5;
  opts.cg.max_iterations = 300;
  double tr = EstimateTraceInvProduct(gram_a, gram_w, &rng, opts);
  return sens * sens * tr;
}

}  // namespace hdmm
