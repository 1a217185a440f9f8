#include "core/error.h"

#include "common/check.h"
#include "linalg/gemm.h"
#include "linalg/pinv.h"

namespace hdmm {

double ExplicitSquaredError(const Matrix& w, const Matrix& a) {
  HDMM_CHECK(w.cols() == a.cols());
  double sens = a.MaxAbsColSum();
  Matrix gram_a, gram_w;
  GramInto(a, &gram_a);
  GramInto(w, &gram_w);
  return sens * sens * TracePinvGram(gram_a, gram_w);
}

double EmpiricalSquaredError(const Vector& truth, const Vector& estimate) {
  HDMM_CHECK(truth.size() == estimate.size());
  double total = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    double diff = truth[i] - estimate[i];
    total += diff * diff;
  }
  return total;
}

}  // namespace hdmm
