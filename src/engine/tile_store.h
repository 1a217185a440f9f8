// Tiled data-vector storage for measurement sessions: the out-of-core
// substrate that lets a session serve box queries over a domain whose
// reconstructed data vector (and its summed-area table) would not fit in
// RAM.
//
// A DataVectorStore holds one flattened length-N vector as fixed-size
// row-major tiles. Two backends:
//
//   MemoryVectorStore  the vector lives in one contiguous heap allocation
//                      (ContiguousData() non-null) — the zero-overhead path
//                      for domains that fit, and the default.
//   MmapTileStore      each tile is its own file under a session directory,
//                      written once during the build pass (through a
//                      transient PROT_WRITE mapping, msync(MS_ASYNC)ed and
//                      unmapped immediately so the build never accumulates
//                      address space), then mapped read-only on demand. A
//                      hot-tile LRU keeps at most `hot_tile_budget` bytes
//                      mapped; eviction unmaps once the last outstanding
//                      TileRef releases, so readers are never invalidated.
//
// Build protocol: AppendTile tiles in order (the last tile may be short),
// then Seal. Seal writes the manifest durably (tmp + fsync + rename, the
// StrategyCache pattern) and is a registered crash site
// (`tile_store.seal`); a store whose seal never completed is rebuilt from
// scratch — the constructor wipes the directory, so a crashed build can
// never leak torn tiles into a later session.
//
// Corruption handling follows StrategyCache: a tile file that fails
// validation on map (size, magic, index, checksum) is renamed to
// `<file>.corrupt` and the read returns kCorruption. Unlike the strategy
// cache there is no way to regenerate a lost tile inside the session — the
// session must be re-measured — so the answer path surfaces the failure
// instead of degrading silently.
//
// Metrics (docs/observability.md): tile_store.{writes,seals,hits,faults,
// evictions,corrupt_quarantined} counters and tile_store.{mapped_bytes,
// hot_tiles} gauges (process-wide across stores). Failpoints:
// tile_store.write.io_error, tile_store.read.io_error, tile_store.seal.
#ifndef HDMM_ENGINE_TILE_STORE_H_
#define HDMM_ENGINE_TILE_STORE_H_

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "linalg/vector_ops.h"

namespace hdmm {

/// Which DataVectorStore backend a session builds on.
enum class SessionStorage { kMemory, kMmap };

const char* SessionStorageName(SessionStorage backend);
bool ParseSessionStorage(const std::string& text, SessionStorage* out);

/// Session storage knobs, surfaced through EngineOptions and the
/// `hdmm_cli serve` flags. `dir` is the session's private directory for the
/// mmap backend (each store places its tiles in a subdirectory); empty lets
/// the session derive a unique directory under the system temp path.
struct SessionStorageOptions {
  SessionStorage backend = SessionStorage::kMemory;
  /// Per-tile payload bytes (rounded down to whole cells, minimum one).
  int64_t tile_bytes = 1 << 20;
  /// Mapped-bytes budget of the hot-tile LRU (mmap backend). A budget
  /// smaller than one tile still admits the tile being read — it just
  /// evicts everything else first.
  int64_t hot_tile_budget = 64ll << 20;
  std::string dir;
};

/// A pinned, read-only view of one tile. Holds the backing storage alive:
/// the mmap backend may evict the tile from its hot set while refs are
/// outstanding, but the mapping is only released when the last ref drops.
class TileRef {
 public:
  TileRef() = default;
  const double* data() const { return data_.get(); }
  int64_t cells() const { return cells_; }
  explicit operator bool() const { return data_ != nullptr; }

 private:
  friend class MemoryVectorStore;
  friend class MmapTileStore;
  TileRef(std::shared_ptr<const double> data, int64_t cells)
      : data_(std::move(data)), cells_(cells) {}

  std::shared_ptr<const double> data_;
  int64_t cells_ = 0;
};

/// One flattened length-N vector stored as fixed-size tiles. Build
/// (AppendTile xN, Seal) is single-threaded; reads on a sealed store are
/// thread-safe.
class DataVectorStore {
 public:
  virtual ~DataVectorStore() = default;

  int64_t size() const { return size_; }
  int64_t tile_cells() const { return tile_cells_; }
  int64_t num_tiles() const {
    return size_ == 0 ? 0 : (size_ + tile_cells_ - 1) / tile_cells_;
  }
  /// Cells in tile `tile` (the last tile may be short).
  int64_t TileCells(int64_t tile) const {
    const int64_t begin = tile * tile_cells_;
    return std::min(tile_cells_, size_ - begin);
  }
  bool sealed() const { return sealed_; }

  /// Appends the next tile in order; `count` must be TileCells(next).
  virtual Status AppendTile(const double* cells, int64_t count) = 0;
  /// Finishes the build; reads are only valid afterwards.
  virtual Status Seal() = 0;

  /// Pins one tile of a sealed store.
  virtual StatusOr<TileRef> Tile(int64_t tile) const = 0;

  /// Non-null when the whole vector is one contiguous allocation (memory
  /// backend) — the fast path that skips per-read pinning entirely.
  virtual const double* ContiguousData() const { return nullptr; }

  /// The vector, when this backend holds one (memory backend); else null.
  virtual const Vector* AsVector() const { return nullptr; }

  /// One cell of a sealed store; dies (with the store's status message) on
  /// an unreadable tile — inside a session there is no way to regenerate
  /// lost data, so the failure must not be silently absorbed.
  double At(int64_t index) const;

 protected:
  DataVectorStore(int64_t size, int64_t tile_bytes);

  int64_t size_ = 0;
  int64_t tile_cells_ = 1;
  int64_t appended_cells_ = 0;
  bool sealed_ = false;
};

/// Creates the backend named by `options`; `name` is the subdirectory under
/// options.dir used by the mmap backend ("xhat", "prefix").
std::unique_ptr<DataVectorStore> MakeDataVectorStore(
    int64_t size, const SessionStorageOptions& options,
    const std::string& name);

/// In-memory backend: one contiguous Vector.
class MemoryVectorStore : public DataVectorStore {
 public:
  MemoryVectorStore(int64_t size, int64_t tile_bytes);

  /// Wraps an already-materialized vector as a sealed store without
  /// copying — the eager-session path, where the caller hands the session
  /// a reconstructed x_hat it would otherwise free.
  static std::unique_ptr<MemoryVectorStore> Adopt(Vector data,
                                                  int64_t tile_bytes);

  Status AppendTile(const double* cells, int64_t count) override;
  Status Seal() override;
  StatusOr<TileRef> Tile(int64_t tile) const override;
  const double* ContiguousData() const override {
    return sealed_ ? data_.data() : nullptr;
  }
  const Vector* AsVector() const override {
    return sealed_ ? &data_ : nullptr;
  }

 private:
  Vector data_;
};

/// Mmap-backed tiled backend: per-tile files under `dir`, hot-tile LRU.
class MmapTileStore : public DataVectorStore {
 public:
  /// Wipes and (re)creates `dir` — a fresh build can never trip over tiles
  /// from a crashed predecessor. `remove_dir_on_destroy` deletes the
  /// directory with the store (sessions own their storage; pass false to
  /// inspect files after destruction).
  MmapTileStore(int64_t size, int64_t tile_bytes, std::string dir,
                int64_t hot_tile_budget, bool remove_dir_on_destroy = true);
  ~MmapTileStore() override;

  Status AppendTile(const double* cells, int64_t count) override;
  Status Seal() override;
  StatusOr<TileRef> Tile(int64_t tile) const override;

  const std::string& dir() const { return dir_; }
  /// Tiles currently in the hot set.
  int64_t HotTiles() const;

  /// Retargets the hot-tile LRU budget and evicts down to it immediately.
  /// The governor's hibernate/resume lever: a budget of 0 drops every hot
  /// mapping (tiles stay sealed on disk; reads still work, one transient
  /// tile at a time), and restoring the old budget lets the LRU refill on
  /// demand. Thread-safe; outstanding TileRefs stay valid — their mappings
  /// are released when the last ref drops.
  void SetHotTileBudget(int64_t budget);

  static constexpr const char* kManifestName = "MANIFEST";

 private:
  struct HotTile {
    std::shared_ptr<const double> data;
    int64_t bytes = 0;
    std::list<int64_t>::iterator lru_it;
  };

  std::string TilePath(int64_t tile) const;
  /// Maps + validates one tile file; quarantines on corruption. Caller
  /// holds mu_.
  StatusOr<std::shared_ptr<const double>> MapTile(int64_t tile,
                                                  int64_t* bytes) const;
  void EvictToBudget(int64_t incoming_bytes) const;

  std::string dir_;
  int64_t hot_tile_budget_ = 0;
  bool remove_dir_on_destroy_ = true;

  mutable std::mutex mu_;
  mutable std::unordered_map<int64_t, HotTile> hot_;
  mutable std::list<int64_t> lru_;  // Front = most recently used.
  mutable int64_t hot_bytes_ = 0;
};

}  // namespace hdmm

#endif  // HDMM_ENGINE_TILE_STORE_H_
