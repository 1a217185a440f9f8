// Micro-benchmarks for the kernels HDMM's scalability rests on. The headline
// section times the blocked GEMM and SYRK Gram kernels, serial and pooled,
// and a pooled GEMM thread-scaling sweep, and writes them to
// BENCH_matmul.json in the working directory: a change to the substrate
// compares its `blocked_s` with the checked-in file, recorded on the same
// host. The remaining sections time the Kronecker mat-vec (Appendix A.5),
// the p-Identity objective (Theorem 4), Cholesky solves, and LSMR
// iterations.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/pidentity.h"
#include "linalg/cholesky.h"
#include "linalg/gemm.h"
#include "linalg/kron.h"
#include "linalg/lsmr.h"
#include "workload/building_blocks.h"

namespace {

using namespace hdmm;

using hdmm_bench::TimeBest;

struct MatmulRow {
  std::string kernel;
  int64_t m, k, n;
  double blocked_s, blocked_pool_s;
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
  hdmm_bench::Banner("GEMM / Gram kernels",
                     "blocked SYRK/GEMM substrate, serial and pooled");
  std::vector<int64_t> sizes = {256, 512, 1024};
  if (full) sizes.push_back(2048);

  hdmm_bench::PrintHeader("matmul NxNxN", {"blocked(s)", "pool(s)"}, 12);
  Rng rng(1);
  for (int64_t n : sizes) {
    Matrix a = Matrix::RandomUniform(n, n, &rng, -1.0, 1.0);
    Matrix b = Matrix::RandomUniform(n, n, &rng, -1.0, 1.0);
    Matrix out;
    MatmulRow row{"matmul", n, n, n, 0, 0};
    row.blocked_s = TimeBest(
        [&] { MatMulInto(a, b, &out, GemmParallelism::kSerial); });
    row.blocked_pool_s = TimeBest(
        [&] { MatMulInto(a, b, &out, GemmParallelism::kPooled); });
    std::printf("%-28s%12.4f%12.4f\n", (std::to_string(n) + "^3").c_str(),
                row.blocked_s, row.blocked_pool_s);
    rows->push_back(row);
  }

  hdmm_bench::PrintHeader("gram MxN", {"blocked(s)", "pool(s)"}, 12);
  std::vector<std::pair<int64_t, int64_t>> gram_shapes = {{1024, 512},
                                                          {1024, 1024}};
  if (full) gram_shapes.push_back({4096, 1024});
  for (auto [m, n] : gram_shapes) {
    Matrix a = Matrix::RandomUniform(m, n, &rng, -1.0, 1.0);
    Matrix out;
    // Gram(A) for m x n A is the n x n product A^T A with inner dimension m.
    MatmulRow row{"gram", n, m, n, 0, 0};
    row.blocked_s =
        TimeBest([&] { GramInto(a, &out, GemmParallelism::kSerial); });
    row.blocked_pool_s =
        TimeBest([&] { GramInto(a, &out, GemmParallelism::kPooled); });
    std::printf("%-28s%12.4f%12.4f\n",
                (std::to_string(m) + "x" + std::to_string(n)).c_str(),
                row.blocked_s, row.blocked_pool_s);
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
        "\"blocked_s\": %.6f, \"blocked_pool_s\": %.6f}%s\n",
        r.kernel.c_str(), static_cast<long long>(r.m),
        static_cast<long long>(r.k), static_cast<long long>(r.n), r.blocked_s,
        r.blocked_pool_s, i + 1 < rows.size() ? "," : "");
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
