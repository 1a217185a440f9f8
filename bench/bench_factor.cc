// Factorization-layer micro-benchmarks: times the blocked right-looking
// Cholesky, the Householder+QL eigensolver, and the multi-RHS
// TracePinvGram path, and writes BENCH_factor.json in the working directory
// as the perf-trajectory record alongside BENCH_matmul.json: a change to
// the layer compares its `blocked_s` with the checked-in file, recorded on
// the same host.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/gemm.h"
#include "linalg/pinv.h"

namespace {

using namespace hdmm;

using hdmm_bench::TimeBest;

struct FactorRow {
  std::string kernel;
  int64_t n;
  double blocked_s;
};

void PrintRow(const FactorRow& r) {
  std::printf("%-16s n=%-6lld %12.4f\n", r.kernel.c_str(),
              static_cast<long long>(r.n), r.blocked_s);
}

void BenchCholesky(bool full, std::vector<FactorRow>* rows) {
  hdmm_bench::Banner("Cholesky factorization (blocked right-looking)");
  std::vector<int64_t> sizes = {256, 512, 1024};
  if (full) sizes.push_back(2048);
  Rng rng(1);
  for (int64_t n : sizes) {
    Matrix a = Matrix::RandomUniform(n + 5, n, &rng, -1.0, 1.0);
    Matrix g;
    GramInto(a, &g);
    for (int64_t i = 0; i < n; ++i) g(i, i) += 0.5;
    Matrix l;
    FactorRow row{"cholesky", n, 0};
    row.blocked_s = TimeBest([&] { CholeskyFactor(g, &l); }, 3, 0.3);
    PrintRow(row);
    rows->push_back(row);
  }
}

void BenchEigen(bool full, std::vector<FactorRow>* rows) {
  hdmm_bench::Banner(
      "Symmetric eigendecomposition (Householder tridiagonalization + QL)");
  std::vector<int64_t> sizes = {256, 512};
  if (full) sizes.push_back(1024);
  Rng rng(2);
  for (int64_t n : sizes) {
    Matrix a = Matrix::RandomUniform(n + 5, n, &rng, -1.0, 1.0);
    Matrix g;
    GramInto(a, &g);
    for (int64_t i = 0; i < n; ++i) g(i, i) += 0.1;
    SymmetricEigen eig;
    FactorRow row{"eigen_sym", n, 0};
    row.blocked_s = TimeBest([&] { eig = EigenSym(g); }, 1, 0.3);
    PrintRow(row);
    rows->push_back(row);
  }
}

void BenchTracePinvGram(bool full, std::vector<FactorRow>* rows) {
  hdmm_bench::Banner("TracePinvGram end-to-end (blocked multi-RHS path)");
  std::vector<int64_t> sizes = {256, 512, 1024};
  if (full) sizes.push_back(2048);
  Rng rng(3);
  for (int64_t n : sizes) {
    Matrix a = Matrix::RandomUniform(n + 5, n, &rng, -1.0, 1.0);
    Matrix ga;
    GramInto(a, &ga);
    for (int64_t i = 0; i < n; ++i) ga(i, i) += 0.5;
    Matrix w = Matrix::RandomUniform(n + 5, n, &rng, 0.0, 1.0);
    Matrix gw;
    GramInto(w, &gw);
    double tr = 0.0;
    FactorRow row{"trace_pinv_gram", n, 0};
    row.blocked_s = TimeBest([&] { tr = TracePinvGram(ga, gw); }, 3, 0.3);
    PrintRow(row);
    rows->push_back(row);
  }
}

void WriteJson(const std::vector<FactorRow>& rows, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not open %s for writing\n", path);
    return;
  }
  hdmm_bench::WriteJsonHeader(f, "bench_factor");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const FactorRow& r = rows[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"n\": %lld, "
                 "\"blocked_s\": %.6f}%s\n",
                 r.kernel.c_str(), static_cast<long long>(r.n), r.blocked_s,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = hdmm_bench::FullScale(argc, argv);
  std::vector<FactorRow> rows;
  BenchCholesky(full, &rows);
  BenchEigen(full, &rows);
  BenchTracePinvGram(full, &rows);
  WriteJson(rows, "BENCH_factor.json");
  return 0;
}
