// Tiled data-vector storage: backend roundtrips, tiling edge cases (domain
// smaller than one tile, tile size not dividing N), hot-tile eviction under
// a one-tile budget, corruption quarantine, crash-at-seal recovery,
// memory-vs-mmap answer parity at the session layer (bit-identical answers
// are the contract that makes the mmap backend a pure storage decision),
// covered marginal answers against direct sums over their covering table,
// and XHat() references surviving hibernation.
#include "engine/tile_store.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/rng.h"
#include "core/diagnostics.h"
#include "core/strategy.h"
#include "core/strategy_io.h"
#include "engine/engine.h"
#include "engine/privacy.h"
#include "crash_harness.h"
#include "linalg/pinv.h"
#include "workload/building_blocks.h"
#include "workload/domain.h"
#include "workload/marginals.h"
#include "workload/parser.h"

namespace hdmm {
namespace {

// x_hat = M^+ y through the dense pseudo-inverse of the stacked, weighted
// marginals M(theta) — an independent reference for the closed-form
// reconstruction (rows in ActiveMasks order, as Apply emits them).
Vector DensePinvReconstruct(const MarginalsStrategy& strategy,
                            const Vector& y) {
  std::vector<Matrix> blocks;
  for (uint32_t mask : strategy.ActiveMasks()) {
    blocks.push_back(
        MarginalProduct(strategy.domain(), mask, strategy.theta()[mask])
            .Explicit());
  }
  return MatVec(PseudoInverse(VStack(blocks)), y);
}

std::string FreshDir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("hdmm_tile_store_" + tag + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

Vector Ramp(int64_t n) {
  Vector v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    v[static_cast<size_t>(i)] = 0.5 * static_cast<double>(i) - 3.0;
  }
  return v;
}

void FillStore(DataVectorStore* store, const Vector& data) {
  for (int64_t t = 0; t < store->num_tiles(); ++t) {
    ASSERT_TRUE(store
                    ->AppendTile(data.data() + t * store->tile_cells(),
                                 store->TileCells(t))
                    .ok());
  }
  ASSERT_TRUE(store->Seal().ok());
}

void ExpectStoreHolds(const DataVectorStore& store, const Vector& data) {
  ASSERT_EQ(store.size(), static_cast<int64_t>(data.size()));
  for (int64_t t = 0; t < store.num_tiles(); ++t) {
    StatusOr<TileRef> ref = store.Tile(t);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ASSERT_EQ(ref.value().cells(), store.TileCells(t));
    EXPECT_EQ(std::memcmp(ref.value().data(),
                          data.data() + t * store.tile_cells(),
                          static_cast<size_t>(ref.value().cells()) *
                              sizeof(double)),
              0);
  }
  for (int64_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(store.At(i), data[static_cast<size_t>(i)]);
  }
}

class TileStoreTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DeactivateAll(); }
};

TEST_F(TileStoreTest, MemoryRoundtripNonDividingTileSize) {
  // 3 cells per tile over 10 cells: last tile is short.
  const Vector data = Ramp(10);
  MemoryVectorStore store(10, /*tile_bytes=*/3 * 8);
  EXPECT_EQ(store.tile_cells(), 3);
  EXPECT_EQ(store.num_tiles(), 4);
  EXPECT_EQ(store.TileCells(3), 1);
  FillStore(&store, data);
  ExpectStoreHolds(store, data);
  ASSERT_NE(store.ContiguousData(), nullptr);
  ASSERT_NE(store.AsVector(), nullptr);
}

TEST_F(TileStoreTest, MemoryAdoptWrapsWithoutRebuilding) {
  Vector data = Ramp(7);
  const Vector expect = data;
  auto store = MemoryVectorStore::Adopt(std::move(data), /*tile_bytes=*/16);
  ASSERT_TRUE(store->sealed());
  ExpectStoreHolds(*store, expect);
}

TEST_F(TileStoreTest, MmapRoundtripNonDividingTileSize) {
  const std::string dir = FreshDir("roundtrip");
  const Vector data = Ramp(10);
  MmapTileStore store(10, /*tile_bytes=*/3 * 8, dir,
                      /*hot_tile_budget=*/1 << 20);
  EXPECT_EQ(store.num_tiles(), 4);
  FillStore(&store, data);
  ASSERT_TRUE(std::filesystem::exists(dir + "/" +
                                      MmapTileStore::kManifestName));
  ExpectStoreHolds(store, data);
  EXPECT_EQ(store.ContiguousData(), nullptr);
}

TEST_F(TileStoreTest, DomainSmallerThanOneTile) {
  const std::string dir = FreshDir("small");
  const Vector data = Ramp(5);
  MmapTileStore store(5, /*tile_bytes=*/1 << 20, dir,
                      /*hot_tile_budget=*/1 << 20);
  EXPECT_EQ(store.num_tiles(), 1);
  EXPECT_EQ(store.TileCells(0), 5);
  FillStore(&store, data);
  ExpectStoreHolds(store, data);
}

TEST_F(TileStoreTest, RemovesDirectoryOnDestruction) {
  const std::string dir = FreshDir("cleanup");
  {
    MmapTileStore store(4, 16, dir, 1 << 20);
    FillStore(&store, Ramp(4));
    ASSERT_TRUE(std::filesystem::exists(dir));
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST_F(TileStoreTest, OneTileBudgetEvictsButStaysCorrect) {
  const std::string dir = FreshDir("evict");
  const Vector data = Ramp(12);
  // 4 cells per tile, 3 tiles; budget of one byte forces every fault to
  // evict the previous tile — the degenerate "never refuse the read" case.
  MmapTileStore store(12, /*tile_bytes=*/4 * 8, dir, /*hot_tile_budget=*/1);
  FillStore(&store, data);
  for (int round = 0; round < 2; ++round) {
    for (int64_t t = 0; t < store.num_tiles(); ++t) {
      StatusOr<TileRef> ref = store.Tile(t);
      ASSERT_TRUE(ref.ok());
      EXPECT_EQ(ref.value().data()[0],
                data[static_cast<size_t>(t * store.tile_cells())]);
      EXPECT_EQ(store.HotTiles(), 1);
    }
  }
  // A pinned ref must stay readable across the eviction of its tile.
  StatusOr<TileRef> pinned = store.Tile(0);
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(store.Tile(1).ok());  // Evicts tile 0 from the hot set.
  EXPECT_EQ(store.HotTiles(), 1);
  EXPECT_EQ(pinned.value().data()[3], data[3]);
}

TEST_F(TileStoreTest, CorruptTileQuarantinedLikeStrategyCache) {
  const std::string dir = FreshDir("corrupt");
  const Vector data = Ramp(8);
  MmapTileStore store(8, /*tile_bytes=*/4 * 8, dir, 1 << 20);
  FillStore(&store, data);

  // Flip payload bytes of tile 1 behind the store's back.
  const std::string victim = dir + "/tile-00000001.bin";
  {
    std::FILE* f = std::fopen(victim.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 48, SEEK_SET), 0);
    const char junk[8] = {0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f};
    ASSERT_EQ(std::fwrite(junk, 1, sizeof(junk), f), sizeof(junk));
    std::fclose(f);
  }

  StatusOr<TileRef> ref = store.Tile(1);
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(ref.status().code(), StatusCode::kCorruption);
  EXPECT_FALSE(std::filesystem::exists(victim));
  EXPECT_TRUE(std::filesystem::exists(victim + ".corrupt"));
  // The healthy tiles still serve.
  EXPECT_TRUE(store.Tile(0).ok());
}

TEST_F(TileStoreTest, TruncatedTileQuarantined) {
  const std::string dir = FreshDir("truncated");
  MmapTileStore store(8, /*tile_bytes=*/4 * 8, dir, 1 << 20);
  FillStore(&store, Ramp(8));
  const std::string victim = dir + "/tile-00000000.bin";
  ASSERT_EQ(::truncate(victim.c_str(), 16), 0);
  StatusOr<TileRef> ref = store.Tile(0);
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(ref.status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(std::filesystem::exists(victim + ".corrupt"));
}

TEST_F(TileStoreTest, WriteFailpointSurfacesIoError) {
  const std::string dir = FreshDir("write_fp");
  MmapTileStore store(8, /*tile_bytes=*/4 * 8, dir, 1 << 20);
  ASSERT_TRUE(Failpoints::Activate("tile_store.write.io_error", "nth:2"));
  const Vector data = Ramp(8);
  ASSERT_TRUE(store.AppendTile(data.data(), 4).ok());
  const Status st = store.AppendTile(data.data() + 4, 4);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  Failpoints::DeactivateAll();
  // The failed append did not advance the build: retrying completes it.
  ASSERT_TRUE(store.AppendTile(data.data() + 4, 4).ok());
  ASSERT_TRUE(store.Seal().ok());
  ExpectStoreHolds(store, data);
}

TEST_F(TileStoreTest, CrashAtSealRebuildsCleanly) {
  const std::string dir = FreshDir("crash_seal");
  CrashResult crash = RunCrashChild(
      "tile_store.seal=crash", [&](const std::function<void()>& ack) {
        const Vector data = Ramp(8);
        MmapTileStore store(8, /*tile_bytes=*/4 * 8, dir, 1 << 20,
                            /*remove_dir_on_destroy=*/false);
        for (int64_t t = 0; t < store.num_tiles(); ++t) {
          if (store
                  .AppendTile(data.data() + t * store.tile_cells(),
                              store.TileCells(t))
                  .ok()) {
            ack();
          }
        }
        (void)store.Seal();  // SIGKILLed inside the failpoint.
      });
  ASSERT_TRUE(crash.forked);
  ASSERT_TRUE(crash.sigkilled);
  EXPECT_EQ(crash.acked, 2);
  // Tiles are on disk but the manifest never landed — the store was not
  // sealed, and a fresh build over the same directory must start clean and
  // succeed without tripping over the orphans.
  EXPECT_FALSE(std::filesystem::exists(dir + "/" +
                                       MmapTileStore::kManifestName));
  const Vector data = Ramp(8);
  MmapTileStore rebuilt(8, /*tile_bytes=*/4 * 8, dir, 1 << 20);
  FillStore(&rebuilt, data);
  ExpectStoreHolds(rebuilt, data);
}

// ------------------------------------------------- session-layer parity --

SessionStorageOptions MmapStorage(const std::string& dir, int64_t tile_bytes,
                                  int64_t budget = 64 << 20) {
  SessionStorageOptions storage;
  storage.backend = SessionStorage::kMmap;
  storage.tile_bytes = tile_bytes;
  storage.hot_tile_budget = budget;
  storage.dir = dir;
  return storage;
}

std::vector<BoxQuery> AllBoxQueries(const Domain& d) {
  // Every valid (lo, hi) box over the domain — exhaustive for small domains.
  std::vector<BoxQuery> queries;
  std::vector<BoxQuery> partial{BoxQuery{{}, {}}};
  for (int a = 0; a < d.NumAttributes(); ++a) {
    std::vector<BoxQuery> next;
    for (const BoxQuery& q : partial) {
      for (int64_t lo = 0; lo < d.AttributeSize(a); ++lo) {
        for (int64_t hi = lo; hi < d.AttributeSize(a); ++hi) {
          BoxQuery extended = q;
          extended.lo.push_back(lo);
          extended.hi.push_back(hi);
          next.push_back(std::move(extended));
        }
      }
    }
    partial = std::move(next);
  }
  return partial;
}

// Checks every covered answer against a direct cell-by-cell sum over the
// table the session answers it from (the smallest covering one, first on
// ties): within 1e-9 of the box's absolute mass (at least 1) — the
// benchmark's answer tolerance — and bit for bit on single-cell boxes.
void ExpectCoveredAnswersMatchTableSums(const MeasurementSession& session,
                                        const std::vector<BoxQuery>& queries,
                                        const Vector& answers) {
  ASSERT_EQ(answers.size(), queries.size());
  const Domain& d = session.domain();
  int covered = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    const BoxQuery& box = queries[q];
    if (!session.CoveredByMarginal(box)) continue;
    ++covered;
    uint32_t constrained = 0;
    for (int a = 0; a < d.NumAttributes(); ++a) {
      if (box.lo[static_cast<size_t>(a)] != 0 ||
          box.hi[static_cast<size_t>(a)] != d.AttributeSize(a) - 1) {
        constrained |= 1u << a;
      }
    }
    const MeasuredMarginal* best = nullptr;
    int64_t best_cells = 0;
    for (const MeasuredMarginal& table : session.marginal_tables()) {
      if ((constrained & ~table.mask) != 0) continue;
      int64_t cells = 1;
      for (int attr : table.attrs) {
        cells *= box.hi[static_cast<size_t>(attr)] -
                 box.lo[static_cast<size_t>(attr)] + 1;
      }
      if (best == nullptr || cells < best_cells) {
        best = &table;
        best_cells = cells;
      }
    }
    ASSERT_NE(best, nullptr);
    double want = 0.0;
    double mass = 0.0;
    for (int64_t t = 0; t < static_cast<int64_t>(best->values.size()); ++t) {
      bool inside = true;
      for (size_t i = 0; i < best->attrs.size(); ++i) {
        const size_t attr = static_cast<size_t>(best->attrs[i]);
        const int64_t coord =
            (t / best->strides[i]) % d.AttributeSize(best->attrs[i]);
        if (coord < box.lo[attr] || coord > box.hi[attr]) inside = false;
      }
      if (!inside) continue;
      want += best->values[static_cast<size_t>(t)];
      mass += std::fabs(best->values[static_cast<size_t>(t)]);
    }
    EXPECT_LE(std::fabs(answers[q] - want), 1e-9 * std::max(mass, 1.0))
        << "query " << q << ": " << answers[q] << " vs " << want;
    if (best_cells == 1) {
      EXPECT_EQ(std::memcmp(&answers[q], &want, sizeof(double)), 0)
          << "single-cell query " << q << ": " << answers[q] << " vs " << want;
    }
  }
  EXPECT_GT(covered, 0);
}

TEST_F(TileStoreTest, GenericSessionAnswersBitIdenticalAcrossBackends) {
  const Domain d({3, 4, 5});
  Rng rng(1234);
  Vector x_hat(static_cast<size_t>(d.TotalSize()));
  for (double& v : x_hat) v = rng.Uniform(-2.0, 2.0);

  MeasurementSession memory_session(d, x_hat, PrivacyCharge::Laplace(1.0),
                                    nullptr);
  // 7 cells per tile: does not divide 60, exercises seam carry.
  MeasurementSession mmap_session(
      d, x_hat, PrivacyCharge::Laplace(1.0), nullptr,
      MmapStorage(FreshDir("parity_generic"), /*tile_bytes=*/7 * 8));

  const std::vector<BoxQuery> queries = AllBoxQueries(d);
  const Vector from_memory = memory_session.AnswerBatch(queries);
  const Vector from_mmap = mmap_session.AnswerBatch(queries);
  ASSERT_EQ(from_memory.size(), from_mmap.size());
  EXPECT_EQ(std::memcmp(from_memory.data(), from_mmap.data(),
                        from_memory.size() * sizeof(double)),
            0);
  // XHat on the mmap backend densifies from tiles — also bit-identical.
  const Vector& xm = memory_session.XHat();
  const Vector& xt = mmap_session.XHat();
  ASSERT_EQ(xm.size(), xt.size());
  EXPECT_EQ(std::memcmp(xm.data(), xt.data(), xm.size() * sizeof(double)), 0);
}

TEST_F(TileStoreTest, MarginalsSessionLazyPathBitIdenticalAcrossBackends) {
  // Marginals-measured sessions materialize x_hat lazily through
  // MarginalsStreamReconstructor + the seam pass; both backends run the
  // exact same fill and accumulation order, so the densified x_hat must
  // agree to the last bit (and covered answers trivially match — they are
  // served from the same measured tables).
  const Domain d({3, 4});
  Vector theta(4, 0.0);
  theta[1] = 1.0;
  theta[2] = 0.5;
  theta[3] = 0.25;  // Full marginal: reconstruction is well-defined.
  auto strategy = std::make_shared<MarginalsStrategy>(d, theta, "mixed");
  Vector x{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0, 8.0};
  const Vector y = strategy->Apply(x);

  MeasurementSession memory_session(d, strategy, y,
                                    PrivacyCharge::Gaussian(1.0));
  MeasurementSession mmap_session(
      d, strategy, y, PrivacyCharge::Gaussian(1.0),
      MmapStorage(FreshDir("parity_marginals"), /*tile_bytes=*/5 * 8));

  // XHat drives EnsureMaterialized — the lazy streaming build — on both.
  const Vector& xm = memory_session.XHat();
  const Vector& xt = mmap_session.XHat();
  ASSERT_EQ(xm.size(), xt.size());
  EXPECT_EQ(std::memcmp(xm.data(), xt.data(), xm.size() * sizeof(double)), 0);
  // And the streamed x_hat agrees with M^+ y from the dense pseudo-inverse.
  const Vector dense = DensePinvReconstruct(*strategy, y);
  ASSERT_EQ(dense.size(), xm.size());
  for (size_t i = 0; i < dense.size(); ++i) {
    EXPECT_NEAR(xm[i], dense[i], 1e-9) << "cell " << i;
  }

  const std::vector<BoxQuery> queries = AllBoxQueries(d);
  const Vector from_memory = memory_session.AnswerBatch(queries);
  const Vector from_mmap = mmap_session.AnswerBatch(queries);
  EXPECT_EQ(std::memcmp(from_memory.data(), from_mmap.data(),
                        from_memory.size() * sizeof(double)),
            0);
  // Covered answers come from the tables' summed-area corners (boxes with
  // more cells than corners) or direct sums; both stay within the
  // benchmark's tolerance of the direct sum.
  ExpectCoveredAnswersMatchTableSums(memory_session, queries, from_memory);

  // A large cell (~1e7) beside small ones: every summed-area entry past it
  // carries the offset, so corners of a box that misses it cancel ~1e7
  // terms down to a few small cells. A corners-only path loses the small
  // cells' low bits here; direct sums on small boxes keep them exact.
  Rng rng(4242);
  Vector offset_x(x.size());
  for (double& v : offset_x) v = rng.Uniform(0.5, 3.0);
  offset_x[0] = 1.0e7 + rng.Uniform(0.0, 1.0);
  const Vector offset_y = strategy->Apply(offset_x);
  MeasurementSession offset_memory(d, strategy, offset_y,
                                   PrivacyCharge::Gaussian(1.0));
  MeasurementSession offset_mmap(
      d, strategy, offset_y, PrivacyCharge::Gaussian(1.0),
      MmapStorage(FreshDir("parity_marginals_offset"), /*tile_bytes=*/5 * 8));
  const Vector offset_memory_answers = offset_memory.AnswerBatch(queries);
  const Vector offset_mmap_answers = offset_mmap.AnswerBatch(queries);
  EXPECT_EQ(std::memcmp(offset_memory_answers.data(),
                        offset_mmap_answers.data(),
                        offset_memory_answers.size() * sizeof(double)),
            0);
  ExpectCoveredAnswersMatchTableSums(offset_memory, queries,
                                     offset_memory_answers);
}

TEST_F(TileStoreTest, TotalFactorPlansAnswerBitIdenticalAcrossBackends) {
  // Plans with wide factors, measured through Engine::MeasureOr: OPT_x
  // gives the Total-only attribute c the factor 1^T, and OPT_+ gives the
  // group that asks only Total on a the first factor lambda * 1^T (its
  // budget share folded in). Each plan supports its workload, and a memory
  // and an mmap engine drawing the same noise answer every box alike, bit
  // for bit.
  struct Case {
    const char* spec;
    const char* tag;
  };
  const std::vector<Case> cases = {
      {"domain a=32 b=8 c=2\n"
       "product a=prefix b=identity\n"
       "product a=identity b=prefix\n",
       "kron"},
      {"domain a=32 b=8 c=2\n"
       "product a=prefix\n"
       "product weight=0.5 b=prefix\n",
       "union"}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.tag);
    const UnionWorkload w = ParseWorkloadOrDie(c.spec);
    const Domain& d = w.domain();
    EngineOptions options;
    options.optimizer.restarts = 2;
    options.optimizer.seed = 99;
    EngineOptions mmap_options = options;
    mmap_options.session_storage =
        MmapStorage(FreshDir(std::string("parity_total_") + c.tag),
                    /*tile_bytes=*/7 * 8);
    Engine memory_engine(options);
    Engine mmap_engine(mmap_options);
    const Vector x = Ramp(d.TotalSize());
    Rng memory_rng(31), mmap_rng(31);
    auto memory_session = memory_engine.MeasureOr(
        w, "d", x, MeasureRequest::Laplace(1.0), &memory_rng);
    auto mmap_session = mmap_engine.MeasureOr(
        w, "d", x, MeasureRequest::Laplace(1.0), &mmap_rng);
    ASSERT_TRUE(memory_session.ok()) << memory_session.status().ToString();
    ASSERT_TRUE(mmap_session.ok()) << mmap_session.status().ToString();

    const Strategy& strategy = *memory_session.value()->strategy();
    EXPECT_EQ(SerializeStrategy(strategy),
              SerializeStrategy(*mmap_session.value()->strategy()));
    EXPECT_TRUE(SupportsWorkload(strategy, w));
    if (std::string(c.tag) == "kron") {
      const auto* kron = dynamic_cast<const KronStrategy*>(&strategy);
      ASSERT_NE(kron, nullptr) << strategy.Name();
      EXPECT_EQ(kron->factors()[2].MaxAbsDiff(TotalBlock(2)), 0.0);
    } else {
      const auto* union_kron =
          dynamic_cast<const UnionKronStrategy*>(&strategy);
      ASSERT_NE(union_kron, nullptr) << strategy.Name();
      int scaled_totals = 0;
      for (const std::vector<Matrix>& part : union_kron->parts()) {
        const Matrix& first = part[0];
        const double lambda = first(0, 0);
        Matrix scaled = TotalBlock(first.cols());
        scaled.ScaleInPlace(lambda);
        if (first.rows() == 1 && lambda > 0.0 && lambda < 1.0 &&
            first.MaxAbsDiff(scaled) == 0.0) {
          ++scaled_totals;
        }
      }
      EXPECT_EQ(scaled_totals, 1);
    }

    const std::vector<BoxQuery> queries = AllBoxQueries(d);
    StatusOr<Vector> from_memory =
        memory_session.value()->AnswerBatchOr(queries, nullptr);
    StatusOr<Vector> from_mmap =
        mmap_session.value()->AnswerBatchOr(queries, nullptr);
    ASSERT_TRUE(from_memory.ok() && from_mmap.ok());
    ASSERT_EQ(from_memory.value().size(), from_mmap.value().size());
    EXPECT_EQ(std::memcmp(from_memory.value().data(), from_mmap.value().data(),
                          from_memory.value().size() * sizeof(double)),
              0);
  }
}

TEST_F(TileStoreTest, XHatReferenceSurvivesHibernation) {
  // XHat() on an mmap session hands out a reference into a densified copy;
  // the governor may hibernate the session afterwards, from any thread, and
  // that must not free or shrink what the caller is still reading.
  const Domain d({3, 4, 5});
  const Vector x_hat = Ramp(d.TotalSize());
  MeasurementSession session(
      d, x_hat, PrivacyCharge::Laplace(1.0), nullptr,
      MmapStorage(FreshDir("xhat_hibernate"), /*tile_bytes=*/7 * 8));
  ASSERT_TRUE(session.Hibernatable());
  const Vector& dense = session.XHat();
  session.HibernateStores();
  ASSERT_EQ(dense.size(), x_hat.size());
  EXPECT_EQ(std::memcmp(dense.data(), x_hat.data(),
                        x_hat.size() * sizeof(double)),
            0);
  EXPECT_EQ(&session.XHat(), &dense);
}

TEST_F(TileStoreTest, StreamReconstructorMatchesClosedFormReconstruct) {
  const Domain d({3, 2, 4});
  Vector theta(8, 0.0);
  theta[0b011] = 1.0;
  theta[0b100] = 0.7;
  theta[0b111] = 0.25;
  MarginalsStrategy strategy(d, theta, "mixed");
  Rng rng(99);
  Vector x(static_cast<size_t>(d.TotalSize()));
  for (double& v : x) v = rng.Uniform(0.0, 10.0);
  Vector y = strategy.Apply(x);
  // Perturb so y is not exactly in the strategy's range (as noise makes it).
  for (double& v : y) v += rng.Uniform(-0.5, 0.5);

  const Vector dense = DensePinvReconstruct(strategy, y);
  const MarginalsStreamReconstructor stream(strategy, y);
  Vector tiled(static_cast<size_t>(d.TotalSize()), 0.0);
  // Odd-sized chunks so ranges start mid-row everywhere.
  for (int64_t begin = 0; begin < d.TotalSize(); begin += 5) {
    const int64_t end = std::min<int64_t>(begin + 5, d.TotalSize());
    stream.Fill(begin, end, tiled.data() + begin);
  }
  ASSERT_EQ(dense.size(), tiled.size());
  for (size_t i = 0; i < dense.size(); ++i) {
    EXPECT_NEAR(tiled[i], dense[i], 1e-9) << "cell " << i;
  }
}

TEST_F(TileStoreTest, ParseSessionStorageNames) {
  SessionStorage backend = SessionStorage::kMemory;
  EXPECT_TRUE(ParseSessionStorage("mmap", &backend));
  EXPECT_EQ(backend, SessionStorage::kMmap);
  EXPECT_TRUE(ParseSessionStorage("memory", &backend));
  EXPECT_EQ(backend, SessionStorage::kMemory);
  EXPECT_FALSE(ParseSessionStorage("disk", &backend));
  EXPECT_STREQ(SessionStorageName(SessionStorage::kMmap), "mmap");
  EXPECT_STREQ(SessionStorageName(SessionStorage::kMemory), "memory");
}

}  // namespace
}  // namespace hdmm
