// Multi-core scaling report (Section 9: "standard operations on large
// matrices can be parallelized"). Runs the three parallel tiers of the
// library — the pooled GEMM substrate, the blocked Cholesky factorization,
// and the planner's deterministic restart fan-out — on private pools of
// 1/2/4/8 total threads within one process, and emits BENCH_parallel.json
// with wall times, parallel efficiency, and the determinism evidence: the
// GEMM product and Cholesky factor must match the 1-thread arm bit for bit,
// and the 8-restart census plan must select a strategy whose content hash
// is identical at every width. The parallel-smoke CI job parses the file
// and (on hosts with >= 4 cores) fails the build if the 4-thread GEMM arm
// is not at least 2x the 1-thread arm; the bitwise/hash checks are enforced
// regardless of core count, since oversubscribed pools still exercise the
// full task decomposition.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/gram_cache.h"
#include "core/hdmm.h"
#include "linalg/cholesky.h"
#include "linalg/gemm.h"
#include "workload/parser.h"

namespace {

using namespace hdmm;

using hdmm_bench::TimeBest;

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) *
                         static_cast<size_t>(a.rows() * a.cols())) == 0;
}

UnionWorkload CensusWorkload() {
  return ParseWorkloadOrDie(
      "domain sex=2 age=115 race=64\n"
      "product sex=identity age=prefix\n"
      "product age=prefix race=identity\n"
      "product sex=identity race=identity\n"
      "product age=width(10)\n");
}

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

struct Arm {
  int threads = 0;
  double gemm_s = 0.0;
  double chol_s = 0.0;
  double plan_s = 0.0;
  bool gemm_bits = false;
  bool chol_bits = false;
  uint64_t selection_hash = 0;
};

void WriteJson(const std::vector<Arm>& arms, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not open %s for writing\n", path);
    return;
  }
  hdmm_bench::WriteJsonHeader(f, "bench_parallel");
  const Arm& base = arms.front();
  bool hashes_consistent = true;
  for (const Arm& a : arms)
    hashes_consistent =
        hashes_consistent && a.selection_hash == base.selection_hash;
  std::fprintf(f, "  \"selection_hash_consistent\": %s,\n",
               hashes_consistent ? "true" : "false");
  std::fprintf(f, "  \"arms\": [\n");
  for (size_t i = 0; i < arms.size(); ++i) {
    const Arm& a = arms[i];
    std::fprintf(
        f,
        "    {\"threads\": %d, \"gemm_1024_s\": %.6f, "
        "\"gemm_speedup_vs_1\": %.3f, \"gemm_efficiency\": %.3f, "
        "\"gemm_bitwise_identical\": %s, \"cholesky_2048_s\": %.6f, "
        "\"cholesky_speedup_vs_1\": %.3f, \"cholesky_bitwise_identical\": "
        "%s, \"plan8_s\": %.6f, \"plan8_speedup_vs_1\": %.3f, "
        "\"selection_hash\": \"%016llx\"}%s\n",
        a.threads, a.gemm_s, base.gemm_s / a.gemm_s,
        base.gemm_s / a.gemm_s / a.threads, a.gemm_bits ? "true" : "false",
        a.chol_s, base.chol_s / a.chol_s, a.chol_bits ? "true" : "false",
        a.plan_s, base.plan_s / a.plan_s,
        static_cast<unsigned long long>(a.selection_hash),
        i + 1 < arms.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  hdmm_bench::Banner("Multi-core scaling: GEMM / Cholesky / restart fan-out",
                     "Section 9 parallelization; determinism per PR 5/7");

  const int64_t n = 1024;
  Rng rng(11);
  Matrix a = Matrix::RandomUniform(n, n, &rng, -1.0, 1.0);
  Matrix b = Matrix::RandomUniform(n, n, &rng, -1.0, 1.0);
  // SPD input for the factorization arm: Gram of a random 2048^2 operand,
  // diagonally shifted well clear of singularity.
  const int64_t cn = 2048;
  Matrix spd;
  {
    Matrix g = Matrix::RandomUniform(cn, cn, &rng, -1.0, 1.0);
    GramInto(g, &spd, GemmParallelism::kSerial);
    for (int64_t i = 0; i < cn; ++i) spd(i, i) += static_cast<double>(cn);
  }
  UnionWorkload w = CensusWorkload();

  std::printf("%-10s %12s %8s %12s %8s %12s %8s %6s\n", "threads",
              "gemm(s)", "eff", "chol(s)", "eff", "plan8(s)", "eff", "bits");
  std::vector<Arm> arms;
  Matrix gemm_ref, chol_ref;
  for (int t : {1, 2, 4, 8}) {
    ThreadPool pool(t - 1);
    SetComputePool(&pool);

    Arm arm;
    arm.threads = t;
    Matrix c;
    arm.gemm_s =
        TimeBest([&] { MatMulInto(a, b, &c, GemmParallelism::kPooled); });
    Matrix l;
    arm.chol_s = TimeBest([&] { CholeskyFactor(spd, &l); }, 2, 0.2);
    GramCache::Global().Clear();  // Same (cold) cache work in every arm.
    HdmmOptions options;
    options.restarts = 8;
    options.seed = 7;
    WallTimer plan_timer;
    HdmmResult res = OptimizeStrategy(w, options);
    arm.plan_s = plan_timer.Seconds();
    arm.selection_hash = SelectionHash(w, res);

    SetComputePool(nullptr);

    if (t == 1) {
      gemm_ref = c;
      chol_ref = l;
    }
    arm.gemm_bits = SameBits(c, gemm_ref);
    arm.chol_bits = SameBits(l, chol_ref);
    const Arm& base = arms.empty() ? arm : arms.front();
    std::printf("%-10d %12.4f %8.2f %12.4f %8.2f %12.4f %8.2f %6s\n", t,
                arm.gemm_s, base.gemm_s / arm.gemm_s / t, arm.chol_s,
                base.chol_s / arm.chol_s / t, arm.plan_s,
                base.plan_s / arm.plan_s / t,
                arm.gemm_bits && arm.chol_bits ? "same" : "DIFFER");
    arms.push_back(arm);
  }

  bool hashes_ok = true;
  for (const Arm& arm : arms)
    hashes_ok = hashes_ok && arm.selection_hash == arms.front().selection_hash;
  std::printf("\nselected-strategy hash consistent across widths: %s\n",
              hashes_ok ? "yes" : "NO (determinism bug)");

  WriteJson(arms, "BENCH_parallel.json");
  return 0;
}
