#include "engine/tile_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/metrics.h"

namespace hdmm {

namespace {

// Registry-cached counters/gauges, the StrategyCache pattern. Gauges are
// process-wide aggregates across every live store, maintained through the
// global atomics below so concurrent stores don't clobber each other.
Counter* const g_writes = Metrics::GetCounter("tile_store.writes");
Counter* const g_seals = Metrics::GetCounter("tile_store.seals");
Counter* const g_hits = Metrics::GetCounter("tile_store.hits");
Counter* const g_faults = Metrics::GetCounter("tile_store.faults");
Counter* const g_evictions = Metrics::GetCounter("tile_store.evictions");
Counter* const g_corrupt =
    Metrics::GetCounter("tile_store.corrupt_quarantined");
Gauge* const g_mapped_bytes_gauge = Metrics::GetGauge("tile_store.mapped_bytes");
Gauge* const g_hot_tiles_gauge = Metrics::GetGauge("tile_store.hot_tiles");

std::atomic<int64_t> g_mapped_bytes{0};
std::atomic<int64_t> g_hot_tiles{0};

void AddMappedBytes(int64_t delta) {
  g_mapped_bytes_gauge->Set(static_cast<double>(
      g_mapped_bytes.fetch_add(delta, std::memory_order_relaxed) + delta));
}

void AddHotTiles(int64_t delta) {
  g_hot_tiles_gauge->Set(static_cast<double>(
      g_hot_tiles.fetch_add(delta, std::memory_order_relaxed) + delta));
}

HDMM_REGISTER_CRASH_SITE("tile_store.seal");

// Tile file layout: 40-byte header (8-aligned, so the payload doubles start
// aligned) followed by `cells` raw doubles.
constexpr uint32_t kTileMagic = 0x4c495448u;  // "HTIL"
constexpr uint32_t kTileVersion = 1;

struct TileFileHeader {
  uint32_t magic = kTileMagic;
  uint32_t version = kTileVersion;
  int64_t tile_index = 0;
  int64_t cells = 0;
  uint64_t checksum = 0;
};
static_assert(sizeof(TileFileHeader) == 32, "header layout drifted");
constexpr int64_t kPayloadOffset = 40;  // Header plus 8 reserved bytes.

// FNV-1a over the payload bytes: cheap, order-sensitive, catches torn and
// truncated writes (the same integrity check family StrategyCache uses).
uint64_t Fnv1a(const void* data, size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

}  // namespace

const char* SessionStorageName(SessionStorage backend) {
  switch (backend) {
    case SessionStorage::kMemory:
      return "memory";
    case SessionStorage::kMmap:
      return "mmap";
  }
  return "unknown";
}

bool ParseSessionStorage(const std::string& text, SessionStorage* out) {
  if (text == "memory") {
    *out = SessionStorage::kMemory;
    return true;
  }
  if (text == "mmap") {
    *out = SessionStorage::kMmap;
    return true;
  }
  return false;
}

// -------------------------------------------------------- DataVectorStore

DataVectorStore::DataVectorStore(int64_t size, int64_t tile_bytes)
    : size_(size) {
  HDMM_CHECK(size >= 0);
  tile_cells_ = std::max<int64_t>(1, tile_bytes / 8);
}

double DataVectorStore::At(int64_t index) const {
  HDMM_CHECK(index >= 0 && index < size_);
  if (const double* contig = ContiguousData()) return contig[index];
  const int64_t tile = index / tile_cells_;
  StatusOr<TileRef> ref = Tile(tile);
  if (!ref.ok()) {
    std::fprintf(stderr, "tile store: unreadable tile %lld: %s\n",
                 static_cast<long long>(tile),
                 ref.status().ToString().c_str());
    std::abort();
  }
  return ref.value().data()[index - tile * tile_cells_];
}

std::unique_ptr<DataVectorStore> MakeDataVectorStore(
    int64_t size, const SessionStorageOptions& options,
    const std::string& name) {
  if (options.backend == SessionStorage::kMemory) {
    return std::make_unique<MemoryVectorStore>(size, options.tile_bytes);
  }
  HDMM_CHECK_MSG(!options.dir.empty(),
                 "mmap session storage needs a directory");
  return std::make_unique<MmapTileStore>(
      size, options.tile_bytes, options.dir + "/" + name,
      options.hot_tile_budget);
}

// ------------------------------------------------------ MemoryVectorStore

MemoryVectorStore::MemoryVectorStore(int64_t size, int64_t tile_bytes)
    : DataVectorStore(size, tile_bytes) {
  data_.reserve(static_cast<size_t>(size));
}

std::unique_ptr<MemoryVectorStore> MemoryVectorStore::Adopt(
    Vector data, int64_t tile_bytes) {
  auto store = std::make_unique<MemoryVectorStore>(
      static_cast<int64_t>(data.size()), tile_bytes);
  store->data_ = std::move(data);
  store->appended_cells_ = store->size_;
  store->sealed_ = true;
  return store;
}

Status MemoryVectorStore::AppendTile(const double* cells, int64_t count) {
  HDMM_CHECK(!sealed_);
  HDMM_CHECK(count == TileCells(appended_cells_ / tile_cells_));
  data_.insert(data_.end(), cells, cells + count);
  appended_cells_ += count;
  return Status::Ok();
}

Status MemoryVectorStore::Seal() {
  HDMM_CHECK(appended_cells_ == size_);
  sealed_ = true;
  return Status::Ok();
}

StatusOr<TileRef> MemoryVectorStore::Tile(int64_t tile) const {
  HDMM_CHECK(sealed_);
  HDMM_CHECK(tile >= 0 && tile < num_tiles());
  // Aliasing ref into the vector: nothing to release, the store outlives
  // every ref a session hands out.
  std::shared_ptr<const double> alias(data_.data() + tile * tile_cells_,
                                      [](const double*) {});
  return TileRef(std::move(alias), TileCells(tile));
}

// ---------------------------------------------------------- MmapTileStore

MmapTileStore::MmapTileStore(int64_t size, int64_t tile_bytes,
                             std::string dir, int64_t hot_tile_budget,
                             bool remove_dir_on_destroy)
    : DataVectorStore(size, tile_bytes),
      dir_(std::move(dir)),
      hot_tile_budget_(std::max<int64_t>(0, hot_tile_budget)),
      remove_dir_on_destroy_(remove_dir_on_destroy) {
  // A fresh build never trusts leftovers: a predecessor that crashed mid-
  // build (or mid-seal) may have left torn tiles behind.
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
  std::filesystem::create_directories(dir_, ec);
  HDMM_CHECK_MSG(!ec, "tile store: cannot create directory");
}

MmapTileStore::~MmapTileStore() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [tile, hot] : hot_) {
      (void)tile;
      hot.data.reset();
    }
    AddHotTiles(-static_cast<int64_t>(hot_.size()));
    hot_.clear();
    lru_.clear();
    hot_bytes_ = 0;
  }
  if (remove_dir_on_destroy_) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
}

std::string MmapTileStore::TilePath(int64_t tile) const {
  char name[32];
  std::snprintf(name, sizeof(name), "tile-%08lld.bin",
                static_cast<long long>(tile));
  return dir_ + "/" + name;
}

Status MmapTileStore::AppendTile(const double* cells, int64_t count) {
  HDMM_CHECK(!sealed_);
  const int64_t tile = appended_cells_ / tile_cells_;
  HDMM_CHECK(count == TileCells(tile));
  if (HDMM_FAILPOINT("tile_store.write.io_error")) {
    return Status::IoError("injected: tile_store.write.io_error");
  }

  const std::string path = TilePath(tile);
  const std::string tmp = path + ".tmp";
  const int64_t payload_bytes = count * static_cast<int64_t>(sizeof(double));
  const int64_t file_bytes = kPayloadOffset + payload_bytes;

  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (fd < 0) return Status::IoError(ErrnoMessage("open", tmp));
  if (::ftruncate(fd, file_bytes) != 0) {
    const Status st = Status::IoError(ErrnoMessage("ftruncate", tmp));
    ::close(fd);
    return st;
  }
  // Write through a transient mapping and schedule writeback immediately
  // (msync MS_ASYNC): the build pass keeps at most one tile's address space
  // mapped for writing at any moment, so out-of-core construction stays
  // inside the same address-space budget as serving.
  void* addr = ::mmap(nullptr, static_cast<size_t>(file_bytes),
                      PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) return Status::IoError(ErrnoMessage("mmap", tmp));

  TileFileHeader header;
  header.tile_index = tile;
  header.cells = count;
  header.checksum = Fnv1a(cells, static_cast<size_t>(payload_bytes));
  std::memset(addr, 0, kPayloadOffset);
  std::memcpy(addr, &header, sizeof(header));
  std::memcpy(static_cast<char*>(addr) + kPayloadOffset, cells,
              static_cast<size_t>(payload_bytes));
  ::msync(addr, static_cast<size_t>(file_bytes), MS_ASYNC);
  ::munmap(addr, static_cast<size_t>(file_bytes));

  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::IoError("rename '" + tmp + "': " + ec.message());
  appended_cells_ += count;
  g_writes->Add(1);
  return Status::Ok();
}

Status MmapTileStore::Seal() {
  HDMM_CHECK(appended_cells_ == size_);
  // The crash site: a process killed here leaves every tile on disk but no
  // manifest — the next build over this directory wipes and rebuilds.
  if (HDMM_FAILPOINT("tile_store.seal")) {
    return Status::IoError("injected: tile_store.seal");
  }
  const std::string path = dir_ + "/" + kManifestName;
  const std::string tmp = path + ".tmp";
  {
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) return Status::IoError(ErrnoMessage("open", tmp));
    std::fprintf(f, "htil v%u\nsize %lld\ntile_cells %lld\nnum_tiles %lld\n",
                 kTileVersion, static_cast<long long>(size_),
                 static_cast<long long>(tile_cells_),
                 static_cast<long long>(num_tiles()));
    const bool write_ok = std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
    std::fclose(f);
    if (!write_ok) return Status::IoError(ErrnoMessage("fsync", tmp));
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::IoError("rename '" + tmp + "': " + ec.message());
  sealed_ = true;
  g_seals->Add(1);
  return Status::Ok();
}

StatusOr<std::shared_ptr<const double>> MmapTileStore::MapTile(
    int64_t tile, int64_t* bytes) const {
  const std::string path = TilePath(tile);
  if (HDMM_FAILPOINT("tile_store.read.io_error")) {
    return Status::IoError("injected: tile_store.read.io_error");
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError(ErrnoMessage("open", path));

  const int64_t want_cells = TileCells(tile);
  const int64_t want_bytes =
      kPayloadOffset + want_cells * static_cast<int64_t>(sizeof(double));
  struct stat st;
  bool valid = ::fstat(fd, &st) == 0 && st.st_size == want_bytes;
  void* addr = MAP_FAILED;
  if (valid) {
    addr = ::mmap(nullptr, static_cast<size_t>(want_bytes), PROT_READ,
                  MAP_SHARED, fd, 0);
  }
  ::close(fd);
  if (valid && addr == MAP_FAILED) {
    return Status::IoError(ErrnoMessage("mmap", path));
  }
  if (valid) {
    TileFileHeader header;
    std::memcpy(&header, addr, sizeof(header));
    const double* payload = reinterpret_cast<const double*>(
        static_cast<const char*>(addr) + kPayloadOffset);
    valid = header.magic == kTileMagic && header.version == kTileVersion &&
            header.tile_index == tile && header.cells == want_cells &&
            header.checksum ==
                Fnv1a(payload, static_cast<size_t>(want_cells) *
                                   sizeof(double));
    if (valid) {
      AddMappedBytes(want_bytes);
      std::shared_ptr<const double> data(
          payload, [addr, want_bytes](const double*) {
            ::munmap(addr, static_cast<size_t>(want_bytes));
            AddMappedBytes(-want_bytes);
          });
      *bytes = want_bytes;
      return data;
    }
    ::munmap(addr, static_cast<size_t>(want_bytes));
  }
  // Unreadable tile: quarantine like StrategyCache so a retry (or an
  // operator) sees the evidence instead of tripping over it forever.
  std::error_code ec;
  std::filesystem::rename(path, path + ".corrupt", ec);
  g_corrupt->Add(1);
  return Status::Corruption("tile store: invalid tile file '" + path +
                            "' (quarantined as .corrupt)");
}

void MmapTileStore::EvictToBudget(int64_t incoming_bytes) const {
  // Keep the hot set within budget counting the incoming tile; a budget
  // smaller than one tile degenerates to "evict everything else", never
  // "refuse the read". Evicted mappings are released by the last TileRef.
  while (!lru_.empty() && hot_bytes_ + incoming_bytes > hot_tile_budget_) {
    const int64_t victim = lru_.back();
    lru_.pop_back();
    auto it = hot_.find(victim);
    HDMM_CHECK(it != hot_.end());
    hot_bytes_ -= it->second.bytes;
    hot_.erase(it);
    AddHotTiles(-1);
    g_evictions->Add(1);
  }
}

StatusOr<TileRef> MmapTileStore::Tile(int64_t tile) const {
  HDMM_CHECK(sealed_);
  HDMM_CHECK(tile >= 0 && tile < num_tiles());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hot_.find(tile);
  if (it != hot_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    g_hits->Add(1);
    return TileRef(it->second.data, TileCells(tile));
  }

  int64_t bytes = 0;
  StatusOr<std::shared_ptr<const double>> mapped = MapTile(tile, &bytes);
  if (!mapped.ok()) return mapped.status();
  g_faults->Add(1);
  EvictToBudget(bytes);
  lru_.push_front(tile);
  HotTile hot;
  hot.data = mapped.value();
  hot.bytes = bytes;
  hot.lru_it = lru_.begin();
  hot_bytes_ += bytes;
  hot_.emplace(tile, std::move(hot));
  AddHotTiles(1);
  return TileRef(std::move(mapped).value(), TileCells(tile));
}

int64_t MmapTileStore::HotTiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(hot_.size());
}

void MmapTileStore::SetHotTileBudget(int64_t budget) {
  std::lock_guard<std::mutex> lock(mu_);
  hot_tile_budget_ = std::max<int64_t>(0, budget);
  EvictToBudget(0);
}

}  // namespace hdmm
