// Micro-benchmarks for the kernels HDMM's scalability rests on. The headline
// section races the seed repo's naive GEMM/Gram kernels (replicated below,
// threading included) against the blocked SYRK/GEMM substrate and emits the
// results as machine-readable BENCH_matmul.json in the working directory so
// future PRs have a perf trajectory to regress against. The remaining
// sections time the Kronecker mat-vec (Appendix A.5), the p-Identity
// objective (Theorem 4), Cholesky solves, and LSMR iterations.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/pidentity.h"
#include "linalg/cholesky.h"
#include "linalg/gemm.h"
#include "linalg/kron.h"
#include "linalg/lsmr.h"
#include "workload/building_blocks.h"

namespace {

using namespace hdmm;

// ----------------------------------------------------------------------
// Replicas of the seed repo's kernels (pre-blocked-GEMM), used as the fixed
// baseline in BENCH_matmul.json. Kept verbatim, per-call std::thread and all.
constexpr int64_t kSeedParallelFlopThreshold = int64_t{1} << 24;

void SeedParallelOverRows(int64_t rows, int64_t flops,
                          const std::function<void(int64_t, int64_t)>& body) {
  unsigned hw = std::thread::hardware_concurrency();
  int threads =
      (flops < kSeedParallelFlopThreshold || hw == 0) ? 1 : static_cast<int>(hw);
  if (threads <= 1 || rows < 2 * threads) {
    body(0, rows);
    return;
  }
  std::vector<std::thread> pool;
  int64_t chunk = (rows + threads - 1) / threads;
  for (int t = 0; t < threads; ++t) {
    int64_t r0 = t * chunk;
    int64_t r1 = std::min(rows, r0 + chunk);
    if (r0 >= r1) break;
    pool.emplace_back(body, r0, r1);
  }
  for (auto& th : pool) th.join();
}

Matrix SeedMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  int64_t flops = a.rows() * a.cols() * b.cols();
  SeedParallelOverRows(a.rows(), flops, [&](int64_t r0, int64_t r1) {
    const int64_t k_dim = a.cols();
    const int64_t n = b.cols();
    for (int64_t i = r0; i < r1; ++i) {
      const double* arow = a.Row(i);
      double* crow = c.Row(i);
      for (int64_t k = 0; k < k_dim; ++k) {
        const double aik = arow[k];
        if (aik == 0.0) continue;
        const double* brow = b.Row(k);
        for (int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
  });
  return c;
}

Matrix SeedGram(const Matrix& a) {
  // Seed Gram(a) == seed MatMulTN(a, a): serial outer-product accumulation.
  Matrix c(a.cols(), a.cols());
  const int64_t m = a.rows();
  const int64_t p = a.cols();
  for (int64_t k = 0; k < m; ++k) {
    const double* arow = a.Row(k);
    for (int64_t i = 0; i < p; ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      double* crow = c.Row(i);
      for (int64_t j = 0; j < p; ++j) crow[j] += aki * arow[j];
    }
  }
  return c;
}

// ----------------------------------------------------------------------
// Best-of-N wall time of `fn`, with enough repetitions to get past timer
// noise on fast kernels.
double TimeBest(const std::function<void()>& fn, int min_reps = 3,
                double min_total_s = 0.3) {
  double best = 1e300;
  double total = 0.0;
  for (int rep = 0; rep < 20 && (rep < min_reps || total < min_total_s);
       ++rep) {
    WallTimer timer;
    fn();
    double t = timer.Seconds();
    best = std::min(best, t);
    total += t;
  }
  return best;
}

struct MatmulRow {
  std::string kernel;
  int64_t m, k, n;
  double seed_naive_s, blocked_s, blocked_pool_s;
};

// One arm of the pooled-GEMM thread-scaling sweep: wall time on a private
// pool of `threads` total threads, plus whether the product matched the
// 1-thread arm bit for bit (the decomposition is pool-width invariant, so
// anything but `true` is a kernel bug).
struct ScalePoint {
  int threads;
  double seconds;
  bool identical;
};

void BenchMatmulSection(bool full, std::vector<MatmulRow>* rows) {
  hdmm_bench::Banner("GEMM / Gram kernel comparison",
                     "seed naive kernels vs blocked SYRK/GEMM substrate");
  std::vector<int64_t> sizes = {256, 512, 1024};
  if (full) sizes.push_back(2048);

  hdmm_bench::PrintHeader(
      "matmul NxNxN", {"seed(s)", "blocked(s)", "pool(s)", "x-blk", "x-pool"},
      12);
  Rng rng(1);
  for (int64_t n : sizes) {
    Matrix a = Matrix::RandomUniform(n, n, &rng, -1.0, 1.0);
    Matrix b = Matrix::RandomUniform(n, n, &rng, -1.0, 1.0);
    Matrix out;
    MatmulRow row{"matmul", n, n, n, 0, 0, 0};
    row.seed_naive_s = TimeBest([&] { out = SeedMatMul(a, b); });
    row.blocked_s = TimeBest(
        [&] { MatMulInto(a, b, &out, GemmParallelism::kSerial); });
    row.blocked_pool_s = TimeBest(
        [&] { MatMulInto(a, b, &out, GemmParallelism::kPooled); });
    std::printf("%-28s%12.4f%12.4f%12.4f%12.2f%12.2f\n",
                (std::to_string(n) + "^3").c_str(), row.seed_naive_s,
                row.blocked_s, row.blocked_pool_s,
                row.seed_naive_s / row.blocked_s,
                row.seed_naive_s / row.blocked_pool_s);
    rows->push_back(row);
  }

  hdmm_bench::PrintHeader(
      "gram MxN", {"seed(s)", "blocked(s)", "pool(s)", "x-blk", "x-pool"}, 12);
  std::vector<std::pair<int64_t, int64_t>> gram_shapes = {{1024, 512},
                                                          {1024, 1024}};
  if (full) gram_shapes.push_back({4096, 1024});
  for (auto [m, n] : gram_shapes) {
    Matrix a = Matrix::RandomUniform(m, n, &rng, -1.0, 1.0);
    Matrix out;
    // Gram(A) for m x n A is the n x n product A^T A with inner dimension m.
    MatmulRow row{"gram", n, m, n, 0, 0, 0};
    row.seed_naive_s = TimeBest([&] { out = SeedGram(a); });
    row.blocked_s =
        TimeBest([&] { GramInto(a, &out, GemmParallelism::kSerial); });
    row.blocked_pool_s =
        TimeBest([&] { GramInto(a, &out, GemmParallelism::kPooled); });
    std::printf("%-28s%12.4f%12.4f%12.4f%12.2f%12.2f\n",
                (std::to_string(m) + "x" + std::to_string(n)).c_str(),
                row.seed_naive_s, row.blocked_s, row.blocked_pool_s,
                row.seed_naive_s / row.blocked_s,
                row.seed_naive_s / row.blocked_pool_s);
    rows->push_back(row);
  }
}

// Pooled 1024^3 GEMM across private pools of 1/2/4/8 total threads (caller
// included), installed via SetComputePool so every arm runs in this process.
// On a 1-core host the arms oversubscribe the core and the curve is flat —
// the JSON's host_cores field lets validators tell that apart from a real
// scaling regression.
void BenchThreadScalingSection(std::vector<ScalePoint>* points) {
  hdmm_bench::Banner("GEMM thread scaling",
                     "pooled 1024^3 on private 1/2/4/8-thread pools");
  const int64_t n = 1024;
  Rng rng(7);
  Matrix a = Matrix::RandomUniform(n, n, &rng, -1.0, 1.0);
  Matrix b = Matrix::RandomUniform(n, n, &rng, -1.0, 1.0);
  Matrix ref;
  MatMulInto(a, b, &ref, GemmParallelism::kSerial);
  hdmm_bench::PrintHeader("threads", {"pool(s)", "speedup", "eff", "bits"},
                          12);
  double base_s = 0.0;
  for (int t : {1, 2, 4, 8}) {
    ThreadPool pool(t - 1);
    SetComputePool(&pool);
    Matrix out;
    ScalePoint pt{t, 0.0, false};
    pt.seconds =
        TimeBest([&] { MatMulInto(a, b, &out, GemmParallelism::kPooled); });
    SetComputePool(nullptr);
    pt.identical = out.rows() == ref.rows() && out.cols() == ref.cols() &&
                   std::memcmp(out.data(), ref.data(),
                               sizeof(double) * static_cast<size_t>(
                                                    out.rows() * out.cols())) ==
                       0;
    if (t == 1) base_s = pt.seconds;
    const double speedup = base_s / pt.seconds;
    std::printf("%-28d%12.4f%12.2f%12.2f%12s\n", t, pt.seconds, speedup,
                speedup / t, pt.identical ? "same" : "DIFFER");
    points->push_back(pt);
  }
}

void WriteJson(const std::vector<MatmulRow>& rows,
               const std::vector<ScalePoint>& points, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not open %s for writing\n", path);
    return;
  }
  hdmm_bench::WriteJsonHeader(f, "bench_micro/matmul");
  std::fprintf(f, "  \"thread_scaling\": [\n");
  const double base_s = points.empty() ? 1.0 : points.front().seconds;
  for (size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"seconds\": %.6f, "
                 "\"speedup_vs_1\": %.3f, \"efficiency\": %.3f, "
                 "\"bitwise_identical\": %s}%s\n",
                 p.threads, p.seconds, base_s / p.seconds,
                 base_s / p.seconds / p.threads,
                 p.identical ? "true" : "false",
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const MatmulRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"kernel\": \"%s\", \"m\": %lld, \"k\": %lld, \"n\": %lld, "
        "\"seed_naive_s\": %.6f, \"blocked_s\": %.6f, "
        "\"blocked_pool_s\": %.6f, \"speedup_blocked\": %.3f, "
        "\"speedup_pool\": %.3f}%s\n",
        r.kernel.c_str(), static_cast<long long>(r.m),
        static_cast<long long>(r.k), static_cast<long long>(r.n),
        r.seed_naive_s, r.blocked_s, r.blocked_pool_s,
        r.seed_naive_s / r.blocked_s, r.seed_naive_s / r.blocked_pool_s,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

void BenchKronSection() {
  hdmm_bench::Banner("Kronecker mat-vec", "Appendix A.5 kmatvec");
  Rng rng(1);
  for (int64_t n : {32, 64, 128}) {
    Matrix a = Matrix::RandomUniform(n, n, &rng);
    Matrix b = Matrix::RandomUniform(n, n, &rng);
    Vector x(static_cast<size_t>(n * n), 1.0);
    Vector y;
    double t = TimeBest([&] { y = KronMatVec({a, b}, x); }, 5, 0.1);
    std::printf("kron matvec %4lldx%-4lld          %10.6fs\n",
                static_cast<long long>(n), static_cast<long long>(n), t);
  }
}

void BenchPIdentitySection() {
  hdmm_bench::Banner("p-Identity objective", "Theorem 4 gradient evaluation");
  Rng rng(2);
  for (int64_t n : {64, 128, 256}) {
    const int p = static_cast<int>(std::max<int64_t>(1, n / 16));
    Matrix gram = AllRangeGram(n);
    PIdentityObjective obj(gram, p);
    // Two Theta alternate: Eval reuses the terms of a repeated point, and
    // this line times the objective and the gradient together.
    const Matrix ta = Matrix::RandomUniform(p, n, &rng, 0.1, 1.0);
    const Matrix tb = Matrix::RandomUniform(p, n, &rng, 0.1, 1.0);
    const Vector xa(ta.data(), ta.data() + ta.size());
    const Vector xb(tb.data(), tb.data() + tb.size());
    Vector grad;
    bool use_a = true;
    double t = TimeBest(
        [&] {
          obj.Eval(use_a ? xa : xb, &grad);
          use_a = !use_a;
        },
        5, 0.1);
    std::printf("pidentity eval n=%-4lld          %10.6fs\n",
                static_cast<long long>(n), t);
  }
}

void BenchSolversSection() {
  hdmm_bench::Banner("Direct / iterative solvers", "Cholesky and LSMR");
  for (int64_t n : {64, 256}) {
    Matrix gram = PrefixGram(n);
    Matrix l;
    CholeskyFactor(gram, &l);
    Vector b(static_cast<size_t>(n), 1.0);
    Vector sol;
    double t = TimeBest([&] { sol = CholeskySolve(l, b); }, 5, 0.1);
    std::printf("cholesky solve n=%-4lld          %10.6fs\n",
                static_cast<long long>(n), t);
  }
  Rng rng(3);
  for (int64_t n : {64, 256}) {
    Matrix h = HierarchicalBlock(n, 2);
    DenseOperator op(h);
    Vector x(static_cast<size_t>(n));
    for (auto& v : x) v = rng.Uniform(0.0, 1.0);
    Vector y = MatVec(h, x);
    double t = TimeBest([&] { LsmrSolve(op, y); }, 5, 0.1);
    std::printf("lsmr solve n=%-4lld              %10.6fs\n",
                static_cast<long long>(n), t);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = hdmm_bench::FullScale(argc, argv);
  std::vector<MatmulRow> rows;
  std::vector<ScalePoint> points;
  BenchMatmulSection(full, &rows);
  BenchThreadScalingSection(&points);
  WriteJson(rows, points, "BENCH_matmul.json");
  BenchKronSection();
  BenchPIdentitySection();
  BenchSolversSection();
  return 0;
}
