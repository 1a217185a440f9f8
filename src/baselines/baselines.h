// Baseline mechanisms (Section 8.1): the two universal baselines Identity
// and the Laplace Mechanism (LM), plus the implicit stacked strategy type
// shared by structured baselines (QuadTree, multi-level hierarchies).
#ifndef HDMM_BASELINES_BASELINES_H_
#define HDMM_BASELINES_BASELINES_H_

#include <memory>

#include "core/strategy.h"
#include "workload/workload.h"

namespace hdmm {

/// The Identity baseline: measure every cell of the data vector, answer the
/// workload from the noisy histogram.
std::unique_ptr<Strategy> MakeIdentityBaseline(const Domain& domain);

/// Expected squared error (the paper's sens^2 ||W A^+||_F^2 convention) of
/// the Laplace Mechanism: noise scaled to the workload sensitivity added
/// directly to every workload answer, so
/// Err = ||W||_1^2 * sum_j w_j^2 m_j.
double LaplaceMechanismSquaredError(const UnionWorkload& w);

/// A strategy held as an implicit union (vertical stack) of Kronecker
/// products measured *jointly* (unlike UnionKronStrategy's per-group budget
/// convention): reconstruction is global least squares via LSMR, and the
/// expected error is evaluated exactly on small domains (dense) or via the
/// Hutchinson estimator on large ones. Used by QuadTree and other structured
/// baselines that stack partition levels.
class ImplicitStackedStrategy : public Strategy {
 public:
  ImplicitStackedStrategy(std::vector<std::vector<Matrix>> parts,
                          std::string name,
                          int64_t dense_threshold = 1024,
                          uint64_t estimator_seed = 7,
                          int estimator_samples = 8);

  std::string Name() const override { return name_; }
  int64_t DomainSize() const override;
  int64_t NumQueries() const override;
  double Sensitivity() const override;
  /// Same stacked-column upper bound as UnionKronStrategy: sqrt of the sum
  /// of squared part L2 sensitivities.
  double L2Sensitivity() const override;
  Vector Apply(const Vector& x) const override;
  Vector Reconstruct(const Vector& y) const override;
  double SquaredError(const UnionWorkload& w) const override;

 private:
  std::vector<std::vector<Matrix>> parts_;
  std::string name_;
  int64_t dense_threshold_;
  uint64_t estimator_seed_;
  int estimator_samples_;
  std::shared_ptr<LinearOperator> op_;
};

}  // namespace hdmm

#endif  // HDMM_BASELINES_BASELINES_H_
