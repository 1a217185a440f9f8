#include "workload/workload.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "common/check.h"
#include "core/gram_cache.h"

namespace hdmm {

struct UnionWorkload::FactorTable {
  struct Slot {
    std::once_flag key_once;
    uint64_t key = 0;
    std::once_flag stats_once;
    FactorStats stats;
  };
  explicit FactorTable(size_t n) : slots(n) {}
  std::vector<Slot> slots;
};

namespace {

FactorStats ComputeFactorStats(const Matrix& f) {
  FactorStats stats;
  stats.frobenius_sq = f.FrobeniusNormSquared();
  stats.total_like = true;
  for (int64_t r = 0; r < f.rows(); ++r) {
    const double* row = f.Row(r);
    double rs = 0.0;
    for (int64_t c = 0; c < f.cols(); ++c) {
      rs += row[c];
      if (row[c] != 1.0) stats.total_like = false;
    }
    stats.row_sum_sq += rs * rs;
  }
  return stats;
}

}  // namespace

int64_t ProductWorkload::NumQueries() const {
  int64_t q = 1;
  for (const Matrix& f : factors) q *= f.rows();
  return q;
}

int64_t ProductWorkload::DomainSize() const {
  int64_t n = 1;
  for (const Matrix& f : factors) n *= f.cols();
  return n;
}

Matrix ProductWorkload::Explicit() const {
  Matrix m = KronExplicit(factors);
  if (weight != 1.0) m.ScaleInPlace(weight);
  return m;
}

int64_t ProductWorkload::ImplicitStorageDoubles() const {
  int64_t s = 0;
  for (const Matrix& f : factors) s += f.size();
  return s;
}

void UnionWorkload::AddProduct(ProductWorkload p) {
  HDMM_CHECK(static_cast<int>(p.factors.size()) == domain_.NumAttributes());
  for (int i = 0; i < domain_.NumAttributes(); ++i) {
    HDMM_CHECK_MSG(p.factors[static_cast<size_t>(i)].cols() ==
                       domain_.AttributeSize(i),
                   "factor width does not match attribute domain");
  }
  products_.push_back(std::move(p));
  // Keys and statistics stay lazy: parsing never pays for them.
  factor_table_ = std::make_shared<FactorTable>(
      products_.size() * static_cast<size_t>(domain_.NumAttributes()));
}

size_t UnionWorkload::SlotIndex(int j, int i) const {
  HDMM_CHECK(j >= 0 && j < NumProducts() && i >= 0 &&
             i < domain_.NumAttributes());
  return static_cast<size_t>(j) * static_cast<size_t>(domain_.NumAttributes()) +
         static_cast<size_t>(i);
}

uint64_t UnionWorkload::FactorKey(int j, int i) const {
  FactorTable::Slot& slot = factor_table_->slots[SlotIndex(j, i)];
  std::call_once(slot.key_once, [&] {
    slot.key = GramCache::FactorKey(
        products_[static_cast<size_t>(j)].factors[static_cast<size_t>(i)]);
  });
  return slot.key;
}

const FactorStats& UnionWorkload::Stats(int j, int i) const {
  FactorTable::Slot& slot = factor_table_->slots[SlotIndex(j, i)];
  std::call_once(slot.stats_once, [&] {
    slot.stats = ComputeFactorStats(
        products_[static_cast<size_t>(j)].factors[static_cast<size_t>(i)]);
  });
  return slot.stats;
}

std::shared_ptr<const Matrix> UnionWorkload::FactorGram(int j, int i) const {
  const uint64_t key = FactorKey(j, i);  // Checks j and i.
  return GramCache::Global().FactorGramWithKey(
      products_[static_cast<size_t>(j)].factors[static_cast<size_t>(i)], key);
}

int64_t UnionWorkload::TotalQueries() const {
  int64_t q = 0;
  for (const ProductWorkload& p : products_) q += p.NumQueries();
  return q;
}

Matrix UnionWorkload::Explicit() const {
  HDMM_CHECK(!products_.empty());
  std::vector<Matrix> blocks;
  blocks.reserve(products_.size());
  for (const ProductWorkload& p : products_) blocks.push_back(p.Explicit());
  return VStack(blocks);
}

Matrix UnionWorkload::ExplicitGram() const {
  HDMM_CHECK(!products_.empty());
  const int64_t n = DomainSize();
  Matrix g = Matrix::Zeros(n, n);
  for (const ProductWorkload& p : products_) {
    std::vector<Matrix> grams;
    grams.reserve(p.factors.size());
    for (const Matrix& f : p.factors) grams.push_back(Gram(f));
    Matrix kg = KronExplicit(grams);
    g.AddInPlace(kg, p.weight * p.weight);
  }
  return g;
}

std::shared_ptr<LinearOperator> UnionWorkload::ToOperator() const {
  HDMM_CHECK(!products_.empty());
  std::vector<std::shared_ptr<const LinearOperator>> blocks;
  for (const ProductWorkload& p : products_) {
    auto kron = std::make_shared<KronOperator>(p.factors);
    if (p.weight == 1.0) {
      blocks.push_back(std::move(kron));
    } else {
      blocks.push_back(
          std::make_shared<ScaledOperator>(p.weight, std::move(kron)));
    }
  }
  if (blocks.size() == 1) {
    return std::const_pointer_cast<LinearOperator>(blocks[0]);
  }
  return std::make_shared<StackedOperator>(std::move(blocks));
}

int64_t UnionWorkload::ImplicitStorageDoubles() const {
  int64_t s = 0;
  for (const ProductWorkload& p : products_) s += p.ImplicitStorageDoubles();
  return s;
}

int64_t UnionWorkload::ExplicitStorageDoubles() const {
  return TotalQueries() * DomainSize();
}

Vector UnionWorkload::AbsColumnSums(int64_t max_cells) const {
  const int64_t n = DomainSize();
  HDMM_CHECK_MSG(n <= max_cells, "domain too large for explicit column sums");
  Vector total(static_cast<size_t>(n), 0.0);
  for (const ProductWorkload& p : products_) {
    std::vector<Vector> per_factor;
    per_factor.reserve(p.factors.size());
    for (const Matrix& f : p.factors) per_factor.push_back(f.AbsColSums());
    Vector expanded = KronVector(per_factor);
    for (size_t i = 0; i < total.size(); ++i)
      total[i] += std::fabs(p.weight) * expanded[i];
  }
  return total;
}

double UnionWorkload::Sensitivity() const {
  const int64_t n = DomainSize();
  if (n <= (int64_t{1} << 26)) {
    Vector sums = AbsColumnSums();
    double m = 0.0;
    for (double v : sums) m = std::max(m, v);
    return m;
  }
  double bound = 0.0;
  for (const ProductWorkload& p : products_) {
    double s = std::fabs(p.weight);
    for (const Matrix& f : p.factors) s *= f.MaxAbsColSum();
    bound += s;
  }
  return bound;
}

UnionWorkload MakeProductWorkload(Domain domain, std::vector<Matrix> factors,
                                  double weight) {
  UnionWorkload w(std::move(domain));
  ProductWorkload p;
  p.factors = std::move(factors);
  p.weight = weight;
  w.AddProduct(std::move(p));
  return w;
}

UnionWorkload WeightForRelativeError(const UnionWorkload& w) {
  UnionWorkload out(w.domain());
  for (const ProductWorkload& p : w.products()) {
    // Average query L1 norm of a product = product of per-factor average
    // absolute row sums (rows of the Kronecker product are Kronecker
    // products of rows, and L1 norms multiply).
    double avg_l1 = 1.0;
    for (const Matrix& f : p.factors) {
      double total = 0.0;
      for (int64_t i = 0; i < f.rows(); ++i) {
        const double* row = f.Row(i);
        double s = 0.0;
        for (int64_t j = 0; j < f.cols(); ++j) s += std::fabs(row[j]);
        total += s;
      }
      avg_l1 *= total / static_cast<double>(f.rows());
    }
    ProductWorkload q = p;
    q.weight = (avg_l1 > 0.0) ? p.weight / avg_l1 : p.weight;
    out.AddProduct(std::move(q));
  }
  return out;
}

}  // namespace hdmm
