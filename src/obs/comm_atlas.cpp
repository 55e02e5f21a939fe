#include "obs/comm_atlas.hpp"

#include <algorithm>
#include <bit>
#include <ostream>

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

namespace {

void write_escaped_atlas(std::ostream& out, const char* text) {
  out << '"';
  for (const char* p = text; *p != '\0'; ++p) {
    const char c = *p;
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else {
      out << c;
    }
  }
  out << '"';
}

}  // namespace

void CommAtlas::write_json(std::ostream& out) const {
  const AtlasSummary s = summary();
  out << "{\"atlas\":{";
  out << "\"ranks\":" << ranks_ << ",\"grid\":{\"rows\":" << grid_rows_
      << ",\"cols\":" << grid_cols_ << "},";
  out << "\"summary\":{";
  out << "\"total_bytes\":" << s.total_bytes;
  out << ",\"self_bytes\":" << s.self_bytes;
  out << ",\"network_bytes\":" << s.network_bytes;
  out << ",\"max_pair_bytes\":" << s.max_pair_bytes;
  out << ",\"max_pair_src\":" << s.max_pair_src;
  out << ",\"max_pair_dst\":" << s.max_pair_dst;
  out << ",\"max_pair_share\":" << s.max_pair_share;
  out << ",\"row_skew\":" << s.row_skew;
  out << ",\"col_skew\":" << s.col_skew;
  out << ",\"hotspot_rank\":" << s.hotspot_rank;
  out << ",\"incast_rank\":" << s.incast_rank;
  out << ",\"subcomm_bytes\":" << s.subcomm_bytes;
  out << ",\"locality_share\":" << s.locality_share;
  out << ",\"self_share\":" << s.self_share;
  out << "},";

  // Per-pattern totals, ordered by pattern id (the embedded totals
  // trace_lint reconciles against the matrix sum).
  out << "\"patterns\":[";
  std::vector<int> patterns;
  for (const auto& [key, sl] : slices_) {
    if (std::find(patterns.begin(), patterns.end(), sl.pattern) ==
        patterns.end()) {
      patterns.push_back(sl.pattern);
    }
  }
  std::sort(patterns.begin(), patterns.end());
  bool first = true;
  for (int p : patterns) {
    const char* name = "";
    for (const auto& [key, sl] : slices_) {
      if (sl.pattern == p) {
        name = sl.pattern_name;
        break;
      }
    }
    if (!first) out << ',';
    first = false;
    out << "{\"pattern\":";
    write_escaped_atlas(out, name);
    out << ",\"bytes\":" << pattern_bytes(p)
        << ",\"local_bytes\":" << (pattern_total_bytes(p) - pattern_bytes(p))
        << "}";
  }
  out << "],";

  out << "\"sites\":[";
  std::vector<std::string> sites;
  for (const auto& [key, sl] : slices_) {
    if (std::find(sites.begin(), sites.end(), sl.site) == sites.end()) {
      sites.emplace_back(sl.site);
    }
  }
  std::sort(sites.begin(), sites.end());
  first = true;
  for (const std::string& site : sites) {
    if (!first) out << ',';
    first = false;
    out << "{\"site\":";
    write_escaped_atlas(out, site.c_str());
    out << ",\"bytes\":" << site_total_bytes(site) << "}";
  }
  out << "],";

  out << "\"levels\":[";
  std::vector<int> levels;
  for (const auto& [key, sl] : slices_) {
    if (std::find(levels.begin(), levels.end(), sl.level) == levels.end()) {
      levels.push_back(sl.level);
    }
  }
  std::sort(levels.begin(), levels.end());
  first = true;
  for (int level : levels) {
    const AtlasLevelCut cut = level_cut(level);
    if (!first) out << ',';
    first = false;
    out << "{\"level\":" << level << ",\"bytes\":" << cut.total_bytes
        << ",\"network_bytes\":" << cut.network_bytes
        << ",\"subcomm_bytes\":" << cut.subcomm_bytes
        << ",\"hotspot_rank\":" << cut.hotspot_rank << "}";
  }
  out << "],";

  out << "\"matrix\":[";
  const std::vector<std::uint64_t> grand = matrix();
  for (int src = 0; src < ranks_; ++src) {
    if (src > 0) out << ',';
    out << '[';
    for (int dst = 0; dst < ranks_; ++dst) {
      if (dst > 0) out << ',';
      out << grand[static_cast<std::size_t>(src) *
                       static_cast<std::size_t>(ranks_) +
                   static_cast<std::size_t>(dst)];
    }
    out << ']';
  }
  out << "]}}";
  out << '\n';
}

}  // namespace dbfs::obs
