#include "obs/comm_atlas.hpp"

#include <bit>
#include <ostream>
#include <set>

#include "util/json.hpp"

namespace dbfs::obs {

void PairCells::grow() {
  std::vector<Cell> old(slots_.empty() ? 16 : 2 * slots_.size());
  old.swap(slots_);
  shift_ = 64 - std::countr_zero(slots_.size());
  used_ = 0;
  for (const Cell& c : old) {
    if (c.key != kEmpty) add_key(c.key, c.bytes);
  }
}

CommAtlas::Slice& CommAtlas::slice(int pattern, const char* pattern_name,
                                   const char* site, int level) {
  auto [it, inserted] = slices_.try_emplace(
      std::make_tuple(pattern, std::string_view(site), level));
  Slice& sl = it->second;
  if (inserted) {
    sl.pattern = pattern;
    sl.pattern_name = pattern_name;
    sl.site = site;
    sl.level = level;
    by_level_[level].push_back(&sl);
  }
  return sl;
}

std::uint64_t CommAtlas::pattern_bytes(int pattern) const noexcept {
  std::uint64_t sum = 0;
  for (const auto& [key, sl] : slices_) {
    if (sl.pattern == pattern) sum += sl.metered_bytes();
  }
  return sum;
}

std::uint64_t CommAtlas::pattern_total_bytes(int pattern) const noexcept {
  std::uint64_t sum = 0;
  for (const auto& [key, sl] : slices_) {
    if (sl.pattern == pattern) sum += sl.total_bytes;
  }
  return sum;
}

std::uint64_t CommAtlas::site_total_bytes(
    const std::string& site) const noexcept {
  std::uint64_t sum = 0;
  for (const auto& [key, sl] : slices_) {
    if (site == sl.site) sum += sl.total_bytes;
  }
  return sum;
}

std::vector<std::uint64_t> CommAtlas::matrix() const {
  const auto n = static_cast<std::size_t>(ranks_);
  std::vector<std::uint64_t> grand(n * n, 0);
  for (const auto& [key, sl] : slices_) {
    sl.cells.for_each([&](int src, int dst, std::uint64_t bytes) {
      grand[static_cast<std::size_t>(src) * n +
            static_cast<std::size_t>(dst)] += bytes;
    });
  }
  return grand;
}

AtlasSummary CommAtlas::summary() const {
  AtlasSummary s;
  s.ranks = ranks_;
  s.grid_rows = grid_rows_;
  s.grid_cols = grid_cols_;
  if (ranks_ <= 0) return s;
  const std::vector<std::uint64_t> grand = matrix();
  std::vector<std::uint64_t> sent(static_cast<std::size_t>(ranks_), 0);
  std::vector<std::uint64_t> received(static_cast<std::size_t>(ranks_), 0);
  for (int src = 0; src < ranks_; ++src) {
    for (int dst = 0; dst < ranks_; ++dst) {
      const std::uint64_t bytes =
          grand[static_cast<std::size_t>(src) *
                    static_cast<std::size_t>(ranks_) +
                static_cast<std::size_t>(dst)];
      s.total_bytes += bytes;
      if (src == dst) {
        s.self_bytes += bytes;
        continue;
      }
      s.network_bytes += bytes;
      sent[static_cast<std::size_t>(src)] += bytes;
      received[static_cast<std::size_t>(dst)] += bytes;
      if (bytes > s.max_pair_bytes) {
        s.max_pair_bytes = bytes;
        s.max_pair_src = src;
        s.max_pair_dst = dst;
      }
      if (pair_is_subcomm(src, dst)) s.subcomm_bytes += bytes;
    }
  }
  if (s.network_bytes > 0) {
    s.max_pair_share = static_cast<double>(s.max_pair_bytes) /
                       static_cast<double>(s.network_bytes);
    s.locality_share = static_cast<double>(s.subcomm_bytes) /
                       static_cast<double>(s.network_bytes);
    const double mean =
        static_cast<double>(s.network_bytes) / static_cast<double>(ranks_);
    std::uint64_t max_sent = 0, max_received = 0;
    for (int r = 0; r < ranks_; ++r) {
      if (sent[static_cast<std::size_t>(r)] > max_sent) {
        max_sent = sent[static_cast<std::size_t>(r)];
        s.hotspot_rank = r;
      }
      if (received[static_cast<std::size_t>(r)] > max_received) {
        max_received = received[static_cast<std::size_t>(r)];
        s.incast_rank = r;
      }
    }
    s.row_skew = static_cast<double>(max_sent) / mean;
    s.col_skew = static_cast<double>(max_received) / mean;
  }
  if (s.total_bytes > 0) {
    s.self_share = static_cast<double>(s.self_bytes) /
                   static_cast<double>(s.total_bytes);
  }
  return s;
}

AtlasLevelCut CommAtlas::level_cut(int level) const {
  AtlasLevelCut cut;
  const auto it = by_level_.find(level);
  if (ranks_ <= 0 || it == by_level_.end()) return cut;
  std::vector<std::uint64_t> sent(static_cast<std::size_t>(ranks_), 0);
  for (const Slice* sl : it->second) {
    cut.total_bytes += sl->total_bytes;
    sl->cells.for_each([&](int src, int dst, std::uint64_t bytes) {
      if (src == dst || bytes == 0) return;
      cut.network_bytes += bytes;
      sent[static_cast<std::size_t>(src)] += bytes;
      if (pair_is_subcomm(src, dst)) cut.subcomm_bytes += bytes;
    });
  }
  std::uint64_t max_sent = 0;
  for (int r = 0; r < ranks_; ++r) {
    if (sent[static_cast<std::size_t>(r)] > max_sent) {
      max_sent = sent[static_cast<std::size_t>(r)];
      cut.hotspot_rank = r;
    }
  }
  return cut;
}

void CommAtlas::write_json(std::ostream& out) const {
  const AtlasSummary s = summary();
  util::JsonWriter json(out);
  json.object()
      .object("atlas")
      .field("ranks", ranks_)
      .object("grid")
      .field("rows", grid_rows_)
      .field("cols", grid_cols_)
      .end()
      .object("summary")
      .field("total_bytes", s.total_bytes)
      .field("self_bytes", s.self_bytes)
      .field("network_bytes", s.network_bytes)
      .field("max_pair_bytes", s.max_pair_bytes)
      .field("max_pair_src", s.max_pair_src)
      .field("max_pair_dst", s.max_pair_dst)
      .field("max_pair_share", s.max_pair_share)
      .field("row_skew", s.row_skew)
      .field("col_skew", s.col_skew)
      .field("hotspot_rank", s.hotspot_rank)
      .field("incast_rank", s.incast_rank)
      .field("subcomm_bytes", s.subcomm_bytes)
      .field("locality_share", s.locality_share)
      .field("self_share", s.self_share)
      .end();

  // Per-pattern totals, ordered by pattern id (the embedded totals
  // trace_lint reconciles against the matrix sum), then per-site and
  // per-level totals in name and level order.
  std::map<int, const char*> patterns;  ///< id -> its first bucket's name
  std::set<std::string> sites;
  std::set<int> levels;
  for (const auto& [key, sl] : slices_) {
    patterns.emplace(sl.pattern, sl.pattern_name);
    sites.emplace(sl.site);
    levels.insert(sl.level);
  }
  json.array("patterns");
  for (const auto& [p, name] : patterns) {
    json.object()
        .field("pattern", name)
        .field("bytes", pattern_bytes(p))
        .field("local_bytes", pattern_total_bytes(p) - pattern_bytes(p))
        .end();
  }
  json.end().array("sites");
  for (const std::string& site : sites) {
    json.object()
        .field("site", site)
        .field("bytes", site_total_bytes(site))
        .end();
  }
  json.end().array("levels");
  for (int level : levels) {
    const AtlasLevelCut cut = level_cut(level);
    json.object()
        .field("level", level)
        .field("bytes", cut.total_bytes)
        .field("network_bytes", cut.network_bytes)
        .field("subcomm_bytes", cut.subcomm_bytes)
        .field("hotspot_rank", cut.hotspot_rank)
        .end();
  }
  json.end();

  json.array("matrix");
  const std::vector<std::uint64_t> grand = matrix();
  for (int src = 0; src < ranks_; ++src) {
    json.array();
    for (int dst = 0; dst < ranks_; ++dst) {
      json.value(grand[static_cast<std::size_t>(src) *
                           static_cast<std::size_t>(ranks_) +
                       static_cast<std::size_t>(dst)]);
    }
    json.end();
  }
  json.end().end().end();
  out << '\n';
}

}  // namespace dbfs::obs
