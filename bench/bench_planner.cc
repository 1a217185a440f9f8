// Cold-planning throughput benchmarks: the optimizer-side counterpart of
// bench_engine (which measures how much a *warm* plan saves, this one
// measures how fast a *cold* plan has become).
//
//   eval     the OPT_0 inner loop (PIdentityObjective::Eval driven by
//            L-BFGS-B) raced against a faithful replica of the seed
//            implementation (~12 temporaries per call, two Transposed()
//            copies around the capacitance solve, per-restart SYRK Gram
//            rebuild). Both arms run the same trajectory from the same
//            start, so the speedup is pure workspace-reuse + Gram-cache +
//            transposed-solve effect, valid on a 1-core box.
//   gradient_cost  time of an Eval with a gradient over an objective-only
//            one (the gradient is built from the objective's own terms,
//            so it should cost a fraction of the objective's GEMM).
//   allocs   heap allocations per Eval after warmup (must be zero).
//   error_eval  heap allocations per repeated Strategy::SquaredError
//            evaluation after one warm call, for Kron and union-Kron
//            candidates (must be zero: the factor Grams, their inverses,
//            and the sensitivity are memoized on the strategy, and the
//            workload factor Grams come shared from the GramCache, so
//            re-scoring a candidate never densifies the implicit factors).
//   plan     full OPT_HDMM cold plan on a freshly parsed bench_engine
//            census workload, with GramCache hit/miss/closed-form counts,
//            the OPT_0 objective evaluations and gradients it took, and the
//            factors it hashed (with the plan's fingerprint: one per
//            factor), plus a second plan over the warm Gram cache
//            (cross-call reuse).
//   scaling  cold-plan wall time vs restart count on private pools of
//            1/2/4 total threads (restarts fan out in parallel), with a
//            content hash of the 8-restart winner per arm proving the
//            selected strategy is bit-identical at every thread count.
//
// Emits BENCH_planner.json; the planner-smoke CI job parses it and fails
// the build if the speedup regresses below 2x, the inner loop allocates,
// an Eval with a gradient costs 2.5x an objective-only one, or the cold plan
// hashes a factor more than once.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/gram_cache.h"
#include "core/hdmm.h"
#include "core/opt0.h"
#include "core/strategy.h"
#include "engine/fingerprint.h"
#include "linalg/cholesky.h"
#include "linalg/gemm.h"
#include "optimize/lbfgsb.h"
#include "workload/building_blocks.h"
#include "workload/parser.h"

// ------------------------------------------------------------------------
// Global allocation counter: every operator new in the binary bumps it, so
// "allocations per Eval" is measured for real, not inferred.
static std::atomic<long long> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace hdmm;

// The bench_engine census-style workload (parser-doc example).
UnionWorkload CensusWorkload(bool full) {
  const std::string spec = full ? "domain sex=2 age=115 race=128\n"
                                : "domain sex=2 age=115 race=64\n";
  return ParseWorkloadOrDie(spec +
                            "product sex=identity age=prefix\n"
                            "product age=prefix race=identity\n"
                            "product sex=identity race=identity\n"
                            "product age=width(10)\n");
}

// ------------------------------------------------------------------------
// Replica of the seed GEMM driver (as of BENCH_engine.json's cold-plan
// numbers): always packs into the BLIS pipeline, allocates the B-panel
// scratch per call, and has no thin-operand fast paths. The legacy Eval
// below runs on this substrate so the race measures the seed inner loop,
// not the seed structure on this PR's kernels. Serial only — the thin
// shapes involved never spanned more than one row panel anyway.
namespace legacy_gemm {

constexpr int kMR = 6;
constexpr int kNR = 8;
constexpr int64_t kMC = 120;
constexpr int64_t kKC = 256;
constexpr int64_t kNC = 1024;
constexpr int64_t kNaiveFlopCutoff = int64_t{1} << 13;

struct Operand {
  const double* p;
  int64_t ld;
  bool trans;
};

inline double At(const Operand& o, int64_t i, int64_t j) {
  return o.trans ? o.p[j * o.ld + i] : o.p[i * o.ld + j];
}

void PackA(const Operand& a, int64_t i0, int64_t p0, int64_t mc, int64_t kc,
           double alpha, double* buf) {
  for (int64_t r0 = 0; r0 < mc; r0 += kMR) {
    double* strip = buf + (r0 / kMR) * kMR * kc;
    const int64_t rows = std::min<int64_t>(kMR, mc - r0);
    for (int64_t k = 0; k < kc; ++k) {
      double* dst = strip + k * kMR;
      for (int64_t r = 0; r < rows; ++r)
        dst[r] = alpha * At(a, i0 + r0 + r, p0 + k);
      for (int64_t r = rows; r < kMR; ++r) dst[r] = 0.0;
    }
  }
}

void PackB(const Operand& b, int64_t p0, int64_t j0, int64_t kc, int64_t nc,
           double* buf) {
  for (int64_t c0 = 0; c0 < nc; c0 += kNR) {
    double* strip = buf + (c0 / kNR) * kNR * kc;
    const int64_t cols = std::min<int64_t>(kNR, nc - c0);
    for (int64_t k = 0; k < kc; ++k) {
      double* dst = strip + k * kNR;
      for (int64_t c = 0; c < cols; ++c)
        dst[c] = At(b, p0 + k, j0 + c0 + c);
      for (int64_t c = cols; c < kNR; ++c) dst[c] = 0.0;
    }
  }
}

// The seed's vector micro-kernel (see src/linalg/gemm.cc), so the legacy
// arm is not handicapped at the register level — only the packing pipeline
// and allocation behavior differ.
#if defined(__GNUC__)
typedef double V4 __attribute__((vector_size(32), aligned(8)));
inline V4 LoadV(const double* p) { return *reinterpret_cast<const V4*>(p); }
inline void StoreV(double* p, V4 v) { *reinterpret_cast<V4*>(p) = v; }

void MicroKernel(int64_t kc, const double* __restrict__ ap,
                 const double* __restrict__ bp, double* __restrict__ c,
                 int64_t ldc, int64_t mr, int64_t nr) {
  V4 acc[kMR][2];
  for (int r = 0; r < kMR; ++r) acc[r][0] = acc[r][1] = V4{0, 0, 0, 0};
  for (int64_t k = 0; k < kc; ++k) {
    const double* a = ap + k * kMR;
    const double* b = bp + k * kNR;
    const V4 b0 = LoadV(b);
    const V4 b1 = LoadV(b + 4);
    for (int r = 0; r < kMR; ++r) {
      const V4 ar = {a[r], a[r], a[r], a[r]};
      acc[r][0] += ar * b0;
      acc[r][1] += ar * b1;
    }
  }
  if (mr == kMR && nr == kNR) {
    for (int r = 0; r < kMR; ++r) {
      double* crow = c + r * ldc;
      StoreV(crow, LoadV(crow) + acc[r][0]);
      StoreV(crow + 4, LoadV(crow + 4) + acc[r][1]);
    }
  } else {
    double tmp[kMR * kNR];
    for (int r = 0; r < kMR; ++r) {
      StoreV(tmp + r * kNR, acc[r][0]);
      StoreV(tmp + r * kNR + 4, acc[r][1]);
    }
    for (int64_t r = 0; r < mr; ++r) {
      double* crow = c + r * ldc;
      for (int64_t j = 0; j < nr; ++j) crow[j] += tmp[r * kNR + j];
    }
  }
}
#else
void MicroKernel(int64_t kc, const double* __restrict__ ap,
                 const double* __restrict__ bp, double* __restrict__ c,
                 int64_t ldc, int64_t mr, int64_t nr) {
  double acc[kMR * kNR] = {0.0};
  for (int64_t k = 0; k < kc; ++k) {
    const double* a = ap + k * kMR;
    const double* b = bp + k * kNR;
    for (int r = 0; r < kMR; ++r) {
      const double ar = a[r];
      for (int j = 0; j < kNR; ++j) acc[r * kNR + j] += ar * b[j];
    }
  }
  for (int64_t r = 0; r < mr; ++r) {
    double* crow = c + r * ldc;
    for (int64_t j = 0; j < nr; ++j) crow[j] += acc[r * kNR + j];
  }
}
#endif

void GemmDriver(int64_t m, int64_t n, int64_t k, double alpha,
                const Operand& a, const Operand& b, double* c, int64_t ldc) {
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  if (m * n * k < kNaiveFlopCutoff) {
    for (int64_t i = 0; i < m; ++i) {
      double* crow = c + i * ldc;
      for (int64_t j = 0; j < n; ++j) {
        double s = 0.0;
        for (int64_t kk = 0; kk < k; ++kk) s += At(a, i, kk) * At(b, kk, j);
        crow[j] += alpha * s;
      }
    }
    return;
  }
  // Seed behavior: one fresh B-panel scratch per call.
  std::vector<double> b_buf(static_cast<size_t>(
      ((std::min(n, kNC) + kNR - 1) / kNR) * kNR * std::min(k, kKC)));
  std::vector<double> a_buf(
      static_cast<size_t>(((kMC + kMR - 1) / kMR) * kMR * kKC));
  for (int64_t jc = 0; jc < n; jc += kNC) {
    const int64_t nc = std::min(kNC, n - jc);
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      PackB(b, pc, jc, kc, nc, b_buf.data());
      for (int64_t ic = 0; ic < m; ic += kMC) {
        const int64_t mc = std::min(kMC, m - ic);
        PackA(a, ic, pc, mc, kc, alpha, a_buf.data());
        for (int64_t js = 0; js < nc; js += kNR) {
          const double* bs = b_buf.data() + (js / kNR) * kNR * kc;
          const int64_t nr = std::min<int64_t>(kNR, nc - js);
          for (int64_t is = 0; is < mc; is += kMR) {
            MicroKernel(kc, a_buf.data() + (is / kMR) * kMR * kc, bs,
                        c + (ic + is) * ldc + jc + js, ldc,
                        std::min<int64_t>(kMR, mc - is), nr);
          }
        }
      }
    }
  }
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  GemmDriver(a.rows(), b.cols(), a.cols(), 1.0, {a.data(), a.cols(), false},
             {b.data(), b.cols(), false}, c.data(), c.cols());
  return c;
}

Matrix MatMulTN(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  GemmDriver(a.cols(), b.cols(), a.rows(), 1.0, {a.data(), a.cols(), true},
             {b.data(), b.cols(), false}, c.data(), c.cols());
  return c;
}

Matrix MatMulNT(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  GemmDriver(a.rows(), b.rows(), a.cols(), 1.0, {a.data(), a.cols(), false},
             {b.data(), b.cols(), true}, c.data(), c.cols());
  return c;
}

Matrix GramOuter(const Matrix& a) {
  Matrix c(a.rows(), a.rows());
  GemmDriver(a.rows(), a.rows(), a.cols(), 1.0, {a.data(), a.cols(), false},
             {a.data(), a.cols(), true}, c.data(), c.cols());
  return c;
}

}  // namespace legacy_gemm

// ------------------------------------------------------------------------
// Faithful replica of the seed PIdentityObjective::Eval: every temporary is
// a fresh Matrix, the capacitance solve of the gradient goes through two
// Transposed() copies, and nothing is hoisted. Kept verbatim (modulo the
// class wrapper and the legacy_gemm substrate) so the race below measures
// exactly what this PR removed.
class LegacyPIdentityObjective {
 public:
  LegacyPIdentityObjective(Matrix gram, int p)
      : gram_(std::move(gram)), p_(p) {}

  double Eval(const Vector& theta_flat, Vector* grad_flat) const {
    const int64_t n = gram_.rows();
    Matrix theta(p_, n, theta_flat);

    Vector s(static_cast<size_t>(n), 1.0);
    for (int64_t i = 0; i < p_; ++i) {
      const double* row = theta.Row(i);
      for (int64_t j = 0; j < n; ++j) s[static_cast<size_t>(j)] += row[j];
    }
    Vector d(s.size());
    for (size_t j = 0; j < s.size(); ++j) d[j] = 1.0 / s[j];

    Matrix m = legacy_gemm::GramOuter(theta);
    for (int64_t i = 0; i < m.rows(); ++i) m(i, i) += 1.0;
    Matrix l;
    if (!CholeskyFactor(m, &l)) {
      if (grad_flat != nullptr) grad_flat->assign(theta_flat.size(), 0.0);
      return std::numeric_limits<double>::infinity();
    }

    double term1 = 0.0;
    for (int64_t j = 0; j < n; ++j)
      term1 += s[static_cast<size_t>(j)] * s[static_cast<size_t>(j)] *
               gram_(j, j);
    Matrix t1 = ScaledCopy(theta, s, 1);
    Matrix b = legacy_gemm::MatMul(t1, gram_);
    Matrix spp = legacy_gemm::MatMulNT(b, t1);
    Matrix z;
    CholeskySolveMatrixInto(l, spp, &z);
    double objective = term1 - z.Trace();
    if (!(objective > 1e-7 * term1) || !std::isfinite(objective)) {
      if (grad_flat != nullptr) grad_flat->assign(theta_flat.size(), 0.0);
      return std::numeric_limits<double>::infinity();
    }
    if (grad_flat == nullptr) return objective;

    Matrix g1 = ScaledCopy(gram_, s, 0);
    Matrix u = legacy_gemm::MatMul(theta, g1);
    Matrix v;
    CholeskySolveMatrixInto(l, u, &v);
    Matrix k = legacy_gemm::MatMulTN(theta, v);
    k.ScaleInPlace(-1.0);
    k.AddInPlace(g1, 1.0);
    k = ScaledCopy(k, s, 0);

    Matrix k1 = ScaledCopy(k, s, 1);
    Matrix pmat = legacy_gemm::MatMulNT(k1, theta);
    Matrix qt;
    CholeskySolveMatrixInto(l, pmat.Transposed(), &qt);
    Matrix q = qt.Transposed();
    Matrix r_term = legacy_gemm::MatMul(q, theta);
    Matrix y = k1;
    y.AddInPlace(r_term, -1.0);
    y = ScaledCopy(y, s, 1);

    Matrix theta_tilde = ScaledCopy(theta, d, 1);
    Matrix ty = legacy_gemm::MatMul(theta_tilde, y);
    Matrix grad1 = ScaledCopy(ty, d, 1);
    grad1.ScaleInPlace(-2.0);

    Matrix zmat = ScaledCopy(ScaledCopy(y, d, 0), d, 1);
    Matrix tz = legacy_gemm::MatMul(theta, zmat);
    Vector r(static_cast<size_t>(n), 0.0);
    for (int64_t j = 0; j < n; ++j) {
      double acc = zmat(j, j);
      for (int64_t i = 0; i < p_; ++i) acc += theta(i, j) * tz(i, j);
      r[static_cast<size_t>(j)] = acc;
    }

    grad_flat->assign(static_cast<size_t>(p_ * n), 0.0);
    for (int64_t i = 0; i < p_; ++i) {
      const double* g1row = grad1.Row(i);
      double* out = grad_flat->data() + i * n;
      for (int64_t j = 0; j < n; ++j) {
        out[j] = g1row[j] +
                 2.0 * r[static_cast<size_t>(j)] * d[static_cast<size_t>(j)];
      }
    }
    return objective;
  }

 private:
  static Matrix ScaledCopy(const Matrix& m, const Vector& scale, int axis) {
    Matrix out = m;
    if (axis == 0) {
      for (int64_t i = 0; i < m.rows(); ++i) {
        double sc = scale[static_cast<size_t>(i)];
        double* row = out.Row(i);
        for (int64_t j = 0; j < m.cols(); ++j) row[j] *= sc;
      }
    } else {
      for (int64_t i = 0; i < m.rows(); ++i) {
        double* row = out.Row(i);
        for (int64_t j = 0; j < m.cols(); ++j)
          row[j] *= scale[static_cast<size_t>(j)];
      }
    }
    return out;
  }

  Matrix gram_;
  int p_;
};

struct EvalRace {
  int64_t n = 0;
  int p = 0;
  double legacy_s = 0.0;
  double new_s = 0.0;
  int legacy_evals = 0;
  int new_evals = 0;
  double speedup = 0.0;  // Per-eval: (legacy_s/evals) / (new_s/evals).
  double values_diff = 0.0;
};

// Races the full L-BFGS-B warm start on the census age attribute: legacy
// per-restart SYRK Gram + legacy Eval vs GramCache + workspace Eval. Both
// arms run `restarts` trajectories from identical starting points.
EvalRace RaceOpt0InnerLoop() {
  const int64_t n = 115;  // Census age attribute.
  const int p = DefaultPFromSize(n);
  const int restarts = 3;
  LbfgsbOptions lbfgs;
  lbfgs.max_iterations = 120;

  Rng rng(17);
  std::vector<Matrix> theta0s;
  for (int r = 0; r < restarts; ++r)
    theta0s.push_back(Matrix::RandomUniform(p, n, &rng, 0.0, 0.5));

  EvalRace race;
  race.n = n;
  race.p = p;

  double legacy_f = 0.0, new_f = 0.0;
  {
    WallTimer timer;
    for (int r = 0; r < restarts; ++r) {
      // Seed behavior: the factor Gram is rebuilt with a SYRK every restart.
      Matrix gram = Gram(PrefixBlock(n));
      LegacyPIdentityObjective obj(std::move(gram), p);
      ObjectiveFn fn = [&obj](const Vector& x, Vector* grad) {
        return obj.Eval(x, grad);
      };
      Vector x0(theta0s[static_cast<size_t>(r)].data(),
                theta0s[static_cast<size_t>(r)].data() +
                    theta0s[static_cast<size_t>(r)].size());
      LbfgsbResult res = MinimizeNonNegative(fn, std::move(x0), lbfgs);
      race.legacy_evals += res.function_evaluations;
      legacy_f = res.f;
    }
    race.legacy_s = timer.Seconds();
  }
  {
    WallTimer timer;
    for (int r = 0; r < restarts; ++r) {
      // This PR: closed-form Gram from the cache (hit after restart 0),
      // allocation-free serial-kernel objective.
      auto gram = GramCache::Global().FactorGram(PrefixBlock(n));
      PIdentityObjective obj(*gram, p, GemmParallelism::kSerial);
      ObjectiveFn fn = [&obj](const Vector& x, Vector* grad) {
        return obj.Eval(x, grad);
      };
      Vector x0(theta0s[static_cast<size_t>(r)].data(),
                theta0s[static_cast<size_t>(r)].data() +
                    theta0s[static_cast<size_t>(r)].size());
      LbfgsbResult res = MinimizeNonNegative(fn, std::move(x0), lbfgs);
      race.new_evals += res.function_evaluations;
      new_f = res.f;
    }
    race.new_s = timer.Seconds();
  }
  // The arms run different (but equivalent) floating-point kernels, so a
  // compiler change can legitimately flip a line-search branch mid-run;
  // agreement is asserted loosely in CI (1e-3) and reported exactly here.
  race.values_diff = std::fabs(legacy_f - new_f) /
                     std::max(1.0, std::fabs(legacy_f));
  const double legacy_per_eval =
      race.legacy_s / std::max(1, race.legacy_evals);
  const double new_per_eval = race.new_s / std::max(1, race.new_evals);
  race.speedup = legacy_per_eval / new_per_eval;

  std::printf("  legacy (seed replica):  %8.1f ms  (%d evals, %.3f ms/eval)\n",
              1e3 * race.legacy_s, race.legacy_evals, 1e3 * legacy_per_eval);
  std::printf("  this PR (workspace):    %8.1f ms  (%d evals, %.3f ms/eval)\n",
              1e3 * race.new_s, race.new_evals, 1e3 * new_per_eval);
  std::printf("  per-eval speedup: %.2fx   (final objectives agree to %.2g)\n",
              race.speedup, race.values_diff);
  return race;
}

// Time of an Eval with a gradient divided by the time of an objective-only
// Eval, on the race's Gram (Prefix(115), p = 7) with serial kernels. Two
// fixed Theta alternate, so no call finds the previous call's point in the
// workspace and every call computes the objective; best of 5 rounds.
double MeasureGradientCostRatio() {
  const int64_t n = 115;
  const int p = DefaultPFromSize(n);
  PIdentityObjective obj(PrefixGram(n), p, GemmParallelism::kSerial);
  Rng rng(29);
  const Matrix ta = Matrix::RandomUniform(p, n, &rng, 0.0, 0.5);
  const Matrix tb = Matrix::RandomUniform(p, n, &rng, 0.0, 0.5);
  const Vector xa(ta.data(), ta.data() + ta.size());
  const Vector xb(tb.data(), tb.data() + tb.size());
  Vector grad;
  constexpr int kCalls = 500;
  auto time_calls = [&](Vector* g) {
    WallTimer timer;
    for (int i = 0; i < kCalls; ++i) obj.Eval(i % 2 == 0 ? xa : xb, g);
    return timer.Seconds();
  };
  time_calls(&grad);  // Warmup sizes the workspace.
  double objective_s = std::numeric_limits<double>::infinity();
  double gradient_s = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 5; ++round) {
    objective_s = std::min(objective_s, time_calls(nullptr));
    gradient_s = std::min(gradient_s, time_calls(&grad));
  }
  const double ratio = gradient_s / objective_s;
  std::printf("  objective only: %.2f us/Eval, with gradient: %.2f us/Eval "
              "(ratio %.2f)\n",
              1e6 * objective_s / kCalls, 1e6 * gradient_s / kCalls, ratio);
  return ratio;
}

// Heap allocations per Eval after a warmup pass, in L-BFGS-B's call
// pattern: an objective-only trial, then the gradient at the same point.
// Two fixed Theta alternate, so each trial computes the objective and each
// gradient call takes the reuse path; both are counted.
double MeasureEvalAllocations() {
  const int64_t n = 115;
  const int p = DefaultPFromSize(n);
  PIdentityObjective obj(PrefixGram(n), p, GemmParallelism::kSerial);
  Rng rng(23);
  const Matrix ta = Matrix::RandomUniform(p, n, &rng, 0.1, 0.5);
  const Matrix tb = Matrix::RandomUniform(p, n, &rng, 0.1, 0.5);
  const Vector xa(ta.data(), ta.data() + ta.size());
  const Vector xb(tb.data(), tb.data() + tb.size());
  Vector grad;
  auto trial_then_gradient = [&](int pairs) {
    for (int i = 0; i < pairs; ++i) {
      const Vector& x = i % 2 == 0 ? xa : xb;
      obj.Eval(x, nullptr);
      obj.Eval(x, &grad);
    }
  };
  trial_then_gradient(2);  // Warmup sizes the workspace and the gradient.
  const int kPairs = 100;
  const long long before = g_heap_allocs.load(std::memory_order_relaxed);
  trial_then_gradient(kPairs);
  const long long after = g_heap_allocs.load(std::memory_order_relaxed);
  const double per_eval =
      static_cast<double>(after - before) / static_cast<double>(2 * kPairs);
  std::printf("  heap allocations per Eval after warmup: %.3f\n", per_eval);
  return per_eval;
}

struct ErrorEvalAllocs {
  double kron_per_eval = 0.0;
  double union_per_eval = 0.0;
  double kron_error = 0.0;   // Sanity: the evaluations return real numbers.
  double union_error = 0.0;
};

// Heap allocations per repeated SquaredError after one warm call. The
// OPT_HDMM outer loop re-scores every candidate strategy against the
// workload; with the Grams, their inverses, and the sensitivity memoized on
// the strategy (and the workload factor Grams shared from the GramCache), a
// warm re-evaluation must not densify or allocate anything.
ErrorEvalAllocs MeasureErrorEvalAllocations(const UnionWorkload& w) {
  ErrorEvalAllocs out;
  const Domain& dom = w.domain();

  std::vector<Matrix> kron_factors;
  for (int i = 0; i < dom.NumAttributes(); ++i)
    kron_factors.push_back(PrefixBlock(dom.AttributeSize(i)));
  KronStrategy kron(std::move(kron_factors), "bench-kron");

  // A two-part union: identity factors answer half the products, prefix
  // factors the other half (the split is arbitrary; what matters is that
  // both per-part tracer sets get exercised every evaluation).
  std::vector<std::vector<Matrix>> parts(2);
  for (int i = 0; i < dom.NumAttributes(); ++i) {
    parts[0].push_back(IdentityBlock(dom.AttributeSize(i)));
    parts[1].push_back(PrefixBlock(dom.AttributeSize(i)));
  }
  std::vector<std::vector<int>> groups(2);
  for (int j = 0; j < w.NumProducts(); ++j) groups[static_cast<size_t>(j % 2)].push_back(j);
  UnionKronStrategy uni(std::move(parts), std::move(groups), "bench-union");

  const int kEvals = 50;
  auto measure = [&](const Strategy& s, double* err) {
    for (int i = 0; i < 2; ++i) *err = s.SquaredError(w);  // Warm caches.
    const long long before = g_heap_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < kEvals; ++i) *err = s.SquaredError(w);
    const long long after = g_heap_allocs.load(std::memory_order_relaxed);
    return static_cast<double>(after - before) / static_cast<double>(kEvals);
  };
  out.kron_per_eval = measure(kron, &out.kron_error);
  out.union_per_eval = measure(uni, &out.union_error);
  std::printf("  heap allocations per SquaredError after warmup: "
              "kron %.3f, union-kron %.3f\n",
              out.kron_per_eval, out.union_per_eval);
  return out;
}

struct PlanTimings {
  double cold_s = 0.0;
  double warm_gram_s = 0.0;
  GramCache::Stats cold_stats;
  GramCache::Stats warm_stats;
  // OPT_0 points the cold plan evaluated, and how many of them also needed
  // a gradient (the starts and the accepted line-search steps).
  uint64_t cold_objective_evals = 0;
  uint64_t cold_gradients = 0;
  // Factors hashed by the cold plan and its fingerprint, and the workload's
  // factor count (products x attributes) that bounds it.
  uint64_t cold_factor_keys = 0;
  int factors = 0;
};

// `w` must be freshly parsed, so that none of its factor keys is hashed yet.
PlanTimings BenchColdPlan(const UnionWorkload& w) {
  HdmmOptions options;
  options.restarts = 1;
  options.seed = 7;

  PlanTimings t;
  Counter* const evals = Metrics::GetCounter("optimizer.evals");
  Counter* const gradients = Metrics::GetCounter("optimizer.gradients");
  Counter* const factor_keys = Metrics::GetCounter("workload.factor_keys");
  GramCache::Global().Clear();
  GramCache::Global().ResetStats();
  {
    const uint64_t evals0 = evals->Value();
    const uint64_t gradients0 = gradients->Value();
    const uint64_t keys0 = factor_keys->Value();
    WallTimer timer;
    HdmmResult res = OptimizeStrategy(w, options);
    t.cold_s = timer.Seconds();
    t.cold_stats = GramCache::Global().stats();
    t.cold_objective_evals = evals->Value() - evals0;
    t.cold_gradients = gradients->Value() - gradients0;
    // Engine::Plan fingerprints the same workload object; its keys are
    // already hashed by now.
    FingerprintPlan(w, options);
    t.cold_factor_keys = factor_keys->Value() - keys0;
    t.factors = w.NumProducts() * w.domain().NumAttributes();
    std::printf("  cold plan (empty gram cache): %8.1f ms  -> %s\n",
                1e3 * t.cold_s, res.chosen_operator.c_str());
    std::printf("  OPT_0 objective evaluations: %llu, gradients: %llu\n",
                static_cast<unsigned long long>(t.cold_objective_evals),
                static_cast<unsigned long long>(t.cold_gradients));
    std::printf("  factors hashed (plan + fingerprint): %llu of %d\n",
                static_cast<unsigned long long>(t.cold_factor_keys),
                t.factors);
  }
  GramCache::Global().ResetStats();
  {
    WallTimer timer;
    HdmmResult res = OptimizeStrategy(w, options);
    t.warm_gram_s = timer.Seconds();
    t.warm_stats = GramCache::Global().stats();
    std::printf("  re-plan (warm gram cache):    %8.1f ms  -> %s\n",
                1e3 * t.warm_gram_s, res.chosen_operator.c_str());
  }
  std::printf("  gram cache: cold %llu miss / %llu hit (%llu closed-form), "
              "warm hit rate %.0f%%\n",
              static_cast<unsigned long long>(t.cold_stats.misses),
              static_cast<unsigned long long>(t.cold_stats.hits),
              static_cast<unsigned long long>(t.cold_stats.closed_form),
              100.0 * t.warm_stats.HitRate());
  return t;
}

struct ScalePoint {
  int restarts = 0;
  double seconds = 0.0;
};

// One thread arm of the restart-scaling sweep: every restart count timed on
// a private pool of `threads` total threads, plus a content hash of the
// 8-restart winner proving selection is bit-identical across arms.
struct ThreadArm {
  int threads = 0;
  uint64_t selection_hash = 0;
  std::vector<ScalePoint> points;
};

// Content hash of the selected strategy: operator name, its error, and the
// strategy applied to a fixed non-uniform vector (exercises every matrix
// entry). Equal digests across pool widths mean the *same bits* were
// selected, not merely the same operator family.
uint64_t SelectionHash(const UnionWorkload& w, const HdmmResult& res) {
  WordHasher h;
  h.Bytes(res.chosen_operator.data(), res.chosen_operator.size());
  h.F64(res.squared_error);
  Vector x(static_cast<size_t>(w.DomainSize()));
  for (size_t i = 0; i < x.size(); ++i)
    x[i] = 1.0 + 0.25 * static_cast<double>(i % 11);
  for (double v : res.strategy->Apply(x)) h.F64(v);
  return h.Digest();
}

std::vector<ThreadArm> BenchRestartScaling(const UnionWorkload& w) {
  std::vector<ThreadArm> arms;
  for (int threads : {1, 2, 4}) {
    // The arm's pool carries both the restart fan-out and the dense kernels
    // under it, exactly as a process started with HDMM_THREADS=t would run.
    ThreadPool pool(threads - 1);
    SetComputePool(&pool);
    ThreadArm arm;
    arm.threads = threads;
    for (int restarts : {1, 2, 4, 8}) {
      HdmmOptions options;
      options.restarts = restarts;
      options.seed = 7;
      WallTimer timer;
      HdmmResult res = OptimizeStrategy(w, options);
      ScalePoint pt;
      pt.restarts = restarts;
      pt.seconds = timer.Seconds();
      arm.points.push_back(pt);
      if (restarts == 8) arm.selection_hash = SelectionHash(w, res);
      std::printf("  threads=%d restarts=%d: %8.1f ms  (%.1f ms/restart)\n",
                  threads, restarts, 1e3 * pt.seconds,
                  1e3 * pt.seconds / restarts);
    }
    SetComputePool(nullptr);
    std::printf("  threads=%d selection hash: %016llx\n", threads,
                static_cast<unsigned long long>(arm.selection_hash));
    arms.push_back(std::move(arm));
  }
  return arms;
}

void WriteJson(const EvalRace& race, double gradient_cost_ratio,
               double allocs_per_eval,
               const ErrorEvalAllocs& error_allocs, const PlanTimings& plan,
               const std::vector<ThreadArm>& scaling, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not open %s for writing\n", path);
    return;
  }
  hdmm_bench::WriteJsonHeader(f, "bench_planner");
  std::fprintf(f,
               "  \"eval\": {\"n\": %lld, \"p\": %d, \"legacy_s\": %.6f, "
               "\"new_s\": %.6f, \"legacy_evals\": %d, \"new_evals\": %d, "
               "\"per_eval_speedup\": %.2f, \"values_rel_diff\": %.3g, "
               "\"gradient_cost_ratio\": %.2f},\n",
               static_cast<long long>(race.n), race.p, race.legacy_s,
               race.new_s, race.legacy_evals, race.new_evals, race.speedup,
               race.values_diff, gradient_cost_ratio);
  // The headline number, with its definition recorded next to it: the
  // census cold plan's optimizer time concentrates in the age attribute's
  // OPT_0 warm starts (the only p > 1 block in the workload), and the race
  // reproduces exactly that component on the seed-replicated substrate
  // (structure + GEMM driver + per-restart SYRK). plan.cold_s above is the
  // absolute end-to-end census number for trajectory tracking across PRs.
  std::fprintf(f, "  \"cold_plan_speedup\": %.2f,\n",
               race.legacy_s / race.new_s);
  std::fprintf(f,
               "  \"cold_plan_speedup_definition\": \"single-thread OPT_0 "
               "inner-loop race on the census age attribute (n=115, p=7, the "
               "workload's only p>1 block) vs the seed-replicated Eval + GEMM "
               "substrate + per-restart SYRK Gram; track absolute census "
               "cold-plan time via plan.cold_s\",\n");
  std::fprintf(f,
               "  \"allocations\": {\"per_eval_after_warmup\": %.3f, "
               "\"per_error_eval_after_warmup\": %.3f, "
               "\"per_error_eval_kron\": %.3f, "
               "\"per_error_eval_union\": %.3f},\n",
               allocs_per_eval,
               std::max(error_allocs.kron_per_eval,
                        error_allocs.union_per_eval),
               error_allocs.kron_per_eval, error_allocs.union_per_eval);
  std::fprintf(f,
               "  \"plan\": {\"cold_s\": %.6f, \"warm_gram_s\": %.6f, "
               "\"cold_gram_misses\": %llu, \"cold_gram_hits\": %llu, "
               "\"cold_closed_form\": %llu, \"warm_hit_rate\": %.3f, "
               "\"objective_evals\": %llu, \"gradients\": %llu, "
               "\"factor_keys\": %llu, \"factors\": %d},\n",
               plan.cold_s, plan.warm_gram_s,
               static_cast<unsigned long long>(plan.cold_stats.misses),
               static_cast<unsigned long long>(plan.cold_stats.hits),
               static_cast<unsigned long long>(plan.cold_stats.closed_form),
               plan.warm_stats.HitRate(),
               static_cast<unsigned long long>(plan.cold_objective_evals),
               static_cast<unsigned long long>(plan.cold_gradients),
               static_cast<unsigned long long>(plan.cold_factor_keys),
               plan.factors);
  std::fprintf(f, "  \"restart_scaling\": [\n");
  for (size_t i = 0; i < scaling.size(); ++i) {
    const ThreadArm& arm = scaling[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"selection_hash\": \"%016llx\", "
                 "\"points\": [",
                 arm.threads,
                 static_cast<unsigned long long>(arm.selection_hash));
    for (size_t j = 0; j < arm.points.size(); ++j) {
      std::fprintf(f, "%s{\"restarts\": %d, \"seconds\": %.6f}",
                   j == 0 ? "" : ", ", arm.points[j].restarts,
                   arm.points[j].seconds);
    }
    std::fprintf(f, "]}%s\n", i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = hdmm_bench::FullScale(argc, argv);
  UnionWorkload w = CensusWorkload(full);

  std::printf("=== planner: OPT_0 inner loop (n=115 census age) ===\n");
  const EvalRace race = RaceOpt0InnerLoop();

  std::printf("\n=== planner: gradient cost (n=115, p=7, serial) ===\n");
  const double gradient_cost_ratio = MeasureGradientCostRatio();

  std::printf("\n=== planner: Eval allocation audit ===\n");
  const double allocs = MeasureEvalAllocations();

  std::printf("\n=== planner: SquaredError allocation audit ===\n");
  const ErrorEvalAllocs error_allocs = MeasureErrorEvalAllocations(w);

  std::printf("\n=== planner: cold plan, census workload (N=%lld, %d pool "
              "threads) ===\n",
              static_cast<long long>(w.DomainSize()),
              ThreadPool::Global().num_threads());
  const PlanTimings plan = BenchColdPlan(CensusWorkload(full));

  std::printf("\n=== planner: restart scaling (deterministic parallel "
              "restarts, private 1/2/4-thread pools) ===\n");
  const std::vector<ThreadArm> scaling = BenchRestartScaling(w);

  WriteJson(race, gradient_cost_ratio, allocs, error_allocs, plan, scaling,
            "BENCH_planner.json");
  return 0;
}
