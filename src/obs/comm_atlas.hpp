// Per-rank-pair communication atlas: who talks to whom, in bytes.
//
// Every aggregate the repo reports today (TrafficMeter pattern totals,
// comm.* counters) collapses the (src, dst) structure of the traffic —
// yet the paper's §6 argument is exactly about that structure: 1D's
// all-to-all spans all p ranks while 2D confines the heavy fold/expand
// exchanges to √p-sized row/column subcommunicators. The atlas records
// the (src, dst) byte cells of each (pattern, site, level) bucket, fed by
// the same call sites that feed the TrafficMeter, and derives the skew
// analytics that make the √p claim measurable: row/column volume skew,
// max-pair share, incast/hotspot ranks, and the subcommunicator-locality
// split (fraction of off-diagonal bytes confined to a proper grid row or
// column group).
//
// Recording costs O(what it records): a bucket holds only the cells it
// was handed (not a dense p×p block — a 2D exchange touches O(p·√p) of
// the p² pairs), slice() finds its bucket without building a string, and
// level_cut(ℓ) visits only level ℓ's buckets, which are indexed by level
// as they are created. Only the dumps — matrix(), summary() and
// write_json's "matrix" — expand to the dense p×p grand total.
//
// Like the Tracer and the flight recorder, the atlas is passive: the
// simulator never reads it back, recording happens strictly after the
// clock updates and fault draws, and a run is byte-identical in its
// report JSON whether or not an atlas is attached. Recording mirrors the
// TrafficMeter by construction — both are written by the one metered
// collective epilogue (simmpi::meter_collective), so transfers the meter
// skips (the unpriced recover-restore and sdc-rollback restores) are
// skipped here too, and per-pattern pair sums reconcile with the meter's
// totals even through shrink recovery (the driver carries the atlas
// across the rebuilt cluster the same way it carries the meter).
//
// Bytes land in two ledgers per bucket: add() for network bytes the
// meter counts (off-diagonal pairs, plus the degenerate single-rank
// allreduce's diagonal), and add_local() for traffic that stays in
// memory under MPI too (a rank's self-addressed alltoallv block). The
// wire-level reconciliation 'atlas "1d-exchange" sum == wire.bytes_after'
// needs the local ledger because the 1D codec counts encoded self blocks.
//
// This header is obs-pure (no simmpi dependency): callers pass the
// pattern as an integer id plus a static name string, so the obs library
// keeps linking below simmpi.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

namespace dbfs::obs {

/// Grand-total analytics over every bucket, computed on demand.
struct AtlasSummary {
  int ranks = 0;
  int grid_rows = 0;
  int grid_cols = 0;
  std::uint64_t total_bytes = 0;    ///< every matrix cell, diagonal included
  std::uint64_t self_bytes = 0;     ///< diagonal cells (intra-rank traffic)
  std::uint64_t network_bytes = 0;  ///< off-diagonal cells
  std::uint64_t max_pair_bytes = 0;
  int max_pair_src = -1;
  int max_pair_dst = -1;
  double max_pair_share = 0.0;  ///< max pair / network bytes
  double row_skew = 1.0;        ///< max sender volume / mean sender volume
  double col_skew = 1.0;        ///< max receiver volume / mean receiver volume
  int hotspot_rank = -1;        ///< rank sending the most off-diagonal bytes
  int incast_rank = -1;         ///< rank receiving the most off-diagonal bytes
  /// Off-diagonal bytes whose (src, dst) share a grid row or column group
  /// that is a *proper* subset of the world — 2D expand/fold land here,
  /// 1D all-to-all (grid 1×p: the only row group IS the world) never does.
  std::uint64_t subcomm_bytes = 0;
  double locality_share = 0.0;  ///< subcomm / network bytes
  double self_share = 0.0;      ///< self / total bytes
};

/// Per-level cut for flight-recorder events.
struct AtlasLevelCut {
  std::uint64_t total_bytes = 0;
  std::uint64_t network_bytes = 0;
  std::uint64_t subcomm_bytes = 0;
  int hotspot_rank = -1;
};

/// The touched (src, dst) → bytes cells of one atlas bucket: an
/// open-addressing table with linear probing over 64-bit pair keys,
/// kept at most half full, so memory follows the pairs recorded rather
/// than the rank count.
class PairCells {
 public:
  void add(int src, int dst, std::uint64_t bytes) {
    add_key(pack(src, dst), bytes);
  }

  /// Calls f(src, dst, bytes) once per touched cell, in no fixed order.
  template <class F>
  void for_each(F&& f) const {
    for (const Cell& c : slots_) {
      if (c.key != kEmpty) {
        f(static_cast<int>(c.key >> 32),
          static_cast<int>(c.key & 0xffffffffu), c.bytes);
      }
    }
  }

 private:
  /// (-1, -1): no rank pair packs to it.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  struct Cell {
    std::uint64_t key = kEmpty;
    std::uint64_t bytes = 0;
  };

  static std::uint64_t pack(int src, int dst) noexcept {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
               << 32 |
           static_cast<std::uint32_t>(dst);
  }
  /// Fibonacci hashing: the product's top bits index the table.
  std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  void add_key(std::uint64_t key, std::uint64_t bytes) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    std::size_t i = home(key);
    while (slots_[i].key != key) {
      if (slots_[i].key == kEmpty) {
        slots_[i].key = key;
        ++used_;
        break;
      }
      i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i].bytes += bytes;
  }
  void grow();

  std::vector<Cell> slots_;  ///< power-of-two size; key kEmpty = free
  std::size_t used_ = 0;
  int shift_ = 64;  ///< 64 - log2(slots_.size()), set by grow()
};

class CommAtlas {
 public:
  CommAtlas() = default;
  /// Not copyable: the level index points into this atlas's buckets.
  CommAtlas(const CommAtlas&) = delete;
  CommAtlas& operator=(const CommAtlas&) = delete;

  /// One (pattern, site, level) bucket: its touched cells plus two byte
  /// ledgers.
  struct Slice {
    int pattern = 0;
    const char* pattern_name = "";
    const char* site = "";
    int level = -1;
    PairCells cells;
    std::uint64_t total_bytes = 0;  ///< sum of all cells
    std::uint64_t local_bytes = 0;  ///< add_local() bytes (unmetered)

    /// Network bytes the TrafficMeter counted for this bucket.
    std::uint64_t metered_bytes() const noexcept {
      return total_bytes - local_bytes;
    }

    void add(int src, int dst, std::uint64_t bytes) {
      cells.add(src, dst, bytes);
      total_bytes += bytes;
    }

    /// Intra-rank traffic the meter does not count (self-addressed
    /// alltoallv blocks): lands on the diagonal and in the local ledger.
    void add_local(int rank, std::uint64_t bytes) {
      add(rank, rank, bytes);
      local_bytes += bytes;
    }
  };

  /// Matrix dimension; must cover every rank id recorded. Grows only —
  /// shrink recovery keeps the original size so pre-shrink pairs stay
  /// addressable. Cells are keyed by pair, so growth moves nothing.
  void ensure_ranks(int ranks) noexcept {
    if (ranks > ranks_) ranks_ = ranks;
  }
  int ranks() const noexcept { return ranks_; }

  /// Logical grid for the locality split. 1D drivers install (1, p),
  /// the 2D driver its pr×pc grid (re-installed after a shrink re-fold).
  /// Reads classify every pair under the grid installed when they run,
  /// so pre-shrink pairs read after the re-fold fall under the new grid.
  void set_grid(int rows, int cols) noexcept {
    grid_rows_ = rows;
    grid_cols_ = cols;
  }
  int grid_rows() const noexcept { return grid_rows_; }
  int grid_cols() const noexcept { return grid_cols_; }

  /// Fetch-or-create the bucket for (pattern, site, level). The returned
  /// reference is stable until clear(); `pattern_name`/`site` must be
  /// static strings (same contract as Tracer span names).
  Slice& slice(int pattern, const char* pattern_name, const char* site,
               int level);

  bool empty() const noexcept { return slices_.empty(); }

  /// Drop every bucket but keep ranks/grid (Cluster::reset_accounting
  /// calls this so each run's atlas describes that run alone).
  void clear() noexcept {
    slices_.clear();
    by_level_.clear();
  }

  /// Network (metered) bytes recorded for one pattern id, summed over
  /// buckets — the value that must equal the TrafficMeter's per-pattern
  /// bytes total.
  std::uint64_t pattern_bytes(int pattern) const noexcept;
  /// All bytes (including the local ledger) for one pattern id.
  std::uint64_t pattern_total_bytes(int pattern) const noexcept;
  /// All bytes (including the local ledger) recorded under one site.
  std::uint64_t site_total_bytes(const std::string& site) const noexcept;

  /// Dense grand-total matrix (ranks × ranks, row-major), all buckets.
  std::vector<std::uint64_t> matrix() const;

  AtlasSummary summary() const;
  /// One level's buckets alone; O(their cells + ranks).
  AtlasLevelCut level_cut(int level) const;

  /// True when (src, dst) share a grid row or column group that is a
  /// proper subset of the world, under the installed grid.
  bool pair_is_subcomm(int src, int dst) const noexcept {
    if (grid_rows_ <= 0 || grid_cols_ <= 0) return false;
    const bool same_row = src / grid_cols_ == dst / grid_cols_;
    const bool same_col = src % grid_cols_ == dst % grid_cols_;
    return (same_row && grid_cols_ < ranks_) ||
           (same_col && grid_rows_ < ranks_);
  }

  /// Serialize as one JSON object under a top-level "atlas" key:
  ///   {"atlas":{"ranks":...,"grid":{"rows":..,"cols":..},
  ///             "summary":{...AtlasSummary fields...},
  ///             "patterns":[{"pattern":..,"bytes":..,"local_bytes":..}],
  ///             "sites":[{"site":..,"bytes":..}],
  ///             "levels":[{"level":..,"bytes":..,"network_bytes":..,
  ///                        "subcomm_bytes":..,"hotspot_rank":..}],
  ///             "matrix":[[...],...]}}
  /// trace_lint recognizes the top-level "atlas" key and validates shape
  /// and pair-sum consistency.
  void write_json(std::ostream& out) const;

 private:
  int ranks_ = 0;
  int grid_rows_ = 0;
  int grid_cols_ = 0;
  /// Keyed by (pattern, site, level). A string_view compares by content,
  /// so equal site names at distinct addresses share one bucket.
  std::map<std::tuple<int, std::string_view, int>, Slice> slices_;
  std::map<int, std::vector<const Slice*>> by_level_;  ///< level's buckets
};

}  // namespace dbfs::obs
