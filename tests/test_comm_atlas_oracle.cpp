// CommAtlas against a dense oracle. The atlas keeps only the (src, dst)
// cells each bucket touched and indexes its buckets by level; the oracle
// below is the earlier implementation it replaced, which stores one dense
// ranks×ranks matrix per (pattern, site, level) bucket and scans every
// bucket on each read. Seeded random slice/add/add_local sequences drive
// both — repeated pairs, zero-byte adds, a site name at two addresses,
// an ensure_ranks growth midway, a clear() and a set_grid change before
// the reads — and every read must agree exactly: matrix(), summary(),
// level_cut() for every level (absent ones included), the per-pattern
// and per-site totals and the write_json text.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "obs/comm_atlas.hpp"
#include "util/prng.hpp"

namespace dbfs {
namespace {

// ---------------------------------------------------------------------
// The oracle: the dense implementation, kept verbatim in behaviour.

class DenseAtlas {
 public:
  struct Slice {
    int pattern = 0;
    const char* pattern_name = "";
    const char* site = "";
    int level = -1;
    int ranks = 0;
    std::vector<std::uint64_t> cells;
    std::uint64_t total_bytes = 0;
    std::uint64_t local_bytes = 0;

    std::uint64_t metered_bytes() const { return total_bytes - local_bytes; }
    void add(int src, int dst, std::uint64_t bytes) {
      cells[static_cast<std::size_t>(src) * static_cast<std::size_t>(ranks) +
            static_cast<std::size_t>(dst)] += bytes;
      total_bytes += bytes;
    }
    void add_local(int rank, std::uint64_t bytes) {
      add(rank, rank, bytes);
      local_bytes += bytes;
    }
  };

  void ensure_ranks(int ranks) {
    if (ranks <= ranks_) return;
    const int old = ranks_;
    ranks_ = ranks;
    for (auto& [key, sl] : slices_) {
      std::vector<std::uint64_t> grown(
          static_cast<std::size_t>(ranks) * static_cast<std::size_t>(ranks),
          0);
      for (int s = 0; s < old; ++s) {
        for (int d = 0; d < old; ++d) {
          grown[static_cast<std::size_t>(s * ranks + d)] =
              sl.cells[static_cast<std::size_t>(s * old + d)];
        }
      }
      sl.cells = std::move(grown);
      sl.ranks = ranks;
    }
  }
  void set_grid(int rows, int cols) {
    grid_rows_ = rows;
    grid_cols_ = cols;
  }
  void clear() { slices_.clear(); }

  Slice& slice(int pattern, const char* pattern_name, const char* site,
               int level) {
    auto [it, inserted] = slices_.try_emplace(
        std::make_tuple(pattern, std::string(site), level));
    Slice& sl = it->second;
    if (inserted) {
      sl.pattern = pattern;
      sl.pattern_name = pattern_name;
      sl.site = site;
      sl.level = level;
      sl.ranks = ranks_;
      sl.cells.assign(static_cast<std::size_t>(ranks_ * ranks_), 0);
    }
    return sl;
  }

  std::uint64_t pattern_bytes(int pattern) const {
    std::uint64_t sum = 0;
    for (const auto& [key, sl] : slices_) {
      if (sl.pattern == pattern) sum += sl.metered_bytes();
    }
    return sum;
  }
  std::uint64_t pattern_total_bytes(int pattern) const {
    std::uint64_t sum = 0;
    for (const auto& [key, sl] : slices_) {
      if (sl.pattern == pattern) sum += sl.total_bytes;
    }
    return sum;
  }
  std::uint64_t site_total_bytes(const std::string& site) const {
    std::uint64_t sum = 0;
    for (const auto& [key, sl] : slices_) {
      if (site == sl.site) sum += sl.total_bytes;
    }
    return sum;
  }

  std::vector<std::uint64_t> matrix() const {
    std::vector<std::uint64_t> grand(static_cast<std::size_t>(ranks_ * ranks_),
                                     0);
    for (const auto& [key, sl] : slices_) {
      for (std::size_t i = 0; i < sl.cells.size(); ++i) {
        grand[i] += sl.cells[i];
      }
    }
    return grand;
  }

  bool pair_is_subcomm(int src, int dst) const {
    if (grid_rows_ <= 0 || grid_cols_ <= 0) return false;
    const bool same_row = src / grid_cols_ == dst / grid_cols_;
    const bool same_col = src % grid_cols_ == dst % grid_cols_;
    return (same_row && grid_cols_ < ranks_) ||
           (same_col && grid_rows_ < ranks_);
  }

  obs::AtlasSummary summary() const {
    obs::AtlasSummary s;
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
            grand[static_cast<std::size_t>(src * ranks_ + dst)];
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

  obs::AtlasLevelCut level_cut(int level) const {
    obs::AtlasLevelCut cut;
    if (ranks_ <= 0) return cut;
    std::vector<std::uint64_t> sent(static_cast<std::size_t>(ranks_), 0);
    for (const auto& [key, sl] : slices_) {
      if (sl.level != level) continue;
      cut.total_bytes += sl.total_bytes;
      for (int src = 0; src < ranks_; ++src) {
        for (int dst = 0; dst < ranks_; ++dst) {
          if (src == dst) continue;
          const std::uint64_t bytes =
              sl.cells[static_cast<std::size_t>(src * ranks_ + dst)];
          if (bytes == 0) continue;
          cut.network_bytes += bytes;
          sent[static_cast<std::size_t>(src)] += bytes;
          if (pair_is_subcomm(src, dst)) cut.subcomm_bytes += bytes;
        }
      }
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

  void write_json(std::ostream& out) const {
    const auto escaped = [&](const char* text) {
      out << '"';
      for (const char* p = text; *p != '\0'; ++p) {
        if (*p == '"' || *p == '\\') out << '\\';
        out << *p;
      }
      out << '"';
    };
    const obs::AtlasSummary s = summary();
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
      escaped(name);
      out << ",\"bytes\":" << pattern_bytes(p) << ",\"local_bytes\":"
          << (pattern_total_bytes(p) - pattern_bytes(p)) << "}";
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
      escaped(site.c_str());
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
      const obs::AtlasLevelCut cut = level_cut(level);
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
        out << grand[static_cast<std::size_t>(src * ranks_ + dst)];
      }
      out << ']';
    }
    out << "]}}";
    out << '\n';
  }

 private:
  int ranks_ = 0;
  int grid_rows_ = 0;
  int grid_cols_ = 0;
  std::map<std::tuple<int, std::string, int>, Slice> slices_;
};

// ---------------------------------------------------------------------
// Seeded random record sequences, fed to both atlases.

struct PatternName {
  int id;
  const char* name;
};
constexpr PatternName kPatterns[] = {
    {0, "Alltoallv"}, {1, "Allgatherv"}, {2, "Allreduce"}, {5, "Transpose"}};

// "fold" twice, at two addresses: equal names must share a bucket.
const char kFoldAgain[] = "fold";
const char* const kSites[] = {"fold", "expand", "1d-exchange", "checksum",
                              kFoldAgain};
// Level 2 is never recorded, so level_cut(2) reads an absent level.
constexpr int kLevels[] = {-1, 0, 1, 3, 4};

void expect_same_summary(const obs::AtlasSummary& a,
                         const obs::AtlasSummary& b, const std::string& at) {
  EXPECT_EQ(a.ranks, b.ranks) << at;
  EXPECT_EQ(a.grid_rows, b.grid_rows) << at;
  EXPECT_EQ(a.grid_cols, b.grid_cols) << at;
  EXPECT_EQ(a.total_bytes, b.total_bytes) << at;
  EXPECT_EQ(a.self_bytes, b.self_bytes) << at;
  EXPECT_EQ(a.network_bytes, b.network_bytes) << at;
  EXPECT_EQ(a.max_pair_bytes, b.max_pair_bytes) << at;
  EXPECT_EQ(a.max_pair_src, b.max_pair_src) << at;
  EXPECT_EQ(a.max_pair_dst, b.max_pair_dst) << at;
  EXPECT_EQ(a.max_pair_share, b.max_pair_share) << at;
  EXPECT_EQ(a.row_skew, b.row_skew) << at;
  EXPECT_EQ(a.col_skew, b.col_skew) << at;
  EXPECT_EQ(a.hotspot_rank, b.hotspot_rank) << at;
  EXPECT_EQ(a.incast_rank, b.incast_rank) << at;
  EXPECT_EQ(a.subcomm_bytes, b.subcomm_bytes) << at;
  EXPECT_EQ(a.locality_share, b.locality_share) << at;
  EXPECT_EQ(a.self_share, b.self_share) << at;
}

void expect_same_reads(const obs::CommAtlas& atlas, const DenseAtlas& oracle,
                       const std::string& at) {
  EXPECT_EQ(atlas.matrix(), oracle.matrix()) << at;
  expect_same_summary(atlas.summary(), oracle.summary(), at);
  for (int level = -2; level <= 6; ++level) {
    const obs::AtlasLevelCut a = atlas.level_cut(level);
    const obs::AtlasLevelCut b = oracle.level_cut(level);
    const std::string where = at + ", level " + std::to_string(level);
    EXPECT_EQ(a.total_bytes, b.total_bytes) << where;
    EXPECT_EQ(a.network_bytes, b.network_bytes) << where;
    EXPECT_EQ(a.subcomm_bytes, b.subcomm_bytes) << where;
    EXPECT_EQ(a.hotspot_rank, b.hotspot_rank) << where;
  }
  for (int p = 0; p < 8; ++p) {
    EXPECT_EQ(atlas.pattern_bytes(p), oracle.pattern_bytes(p)) << at;
    EXPECT_EQ(atlas.pattern_total_bytes(p), oracle.pattern_total_bytes(p))
        << at;
  }
  for (const char* site : {"fold", "expand", "1d-exchange", "checksum",
                           "never-recorded"}) {
    EXPECT_EQ(atlas.site_total_bytes(site), oracle.site_total_bytes(site))
        << at << ", site " << site;
  }
  std::ostringstream a_json, b_json;
  atlas.write_json(a_json);
  oracle.write_json(b_json);
  EXPECT_EQ(a_json.str(), b_json.str()) << at;
}

/// `steps` random records over `ranks` ranks into both atlases. Rank
/// ids come from a small range, so pairs repeat within a bucket.
void record_random(util::Xoshiro256& rng, int ranks, int steps,
                   obs::CommAtlas& atlas, DenseAtlas& oracle) {
  for (int step = 0; step < steps; ++step) {
    const PatternName& p = kPatterns[rng.next_below(std::size(kPatterns))];
    const char* site = kSites[rng.next_below(std::size(kSites))];
    const int level = kLevels[rng.next_below(std::size(kLevels))];
    obs::CommAtlas::Slice& a = atlas.slice(p.id, p.name, site, level);
    DenseAtlas::Slice& b = oracle.slice(p.id, p.name, site, level);
    const int src = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(ranks)));
    const int dst = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(ranks)));
    // Zero-byte records happen (an empty piece); they add no bytes.
    const std::uint64_t bytes =
        rng.next_below(8) == 0 ? 0 : 1 + rng.next_below(4096);
    if (rng.next_below(5) == 0) {
      a.add_local(src, bytes);
      b.add_local(src, bytes);
    } else {
      a.add(src, dst, bytes);
      b.add(src, dst, bytes);
    }
  }
}

TEST(CommAtlasOracle, SparseBucketsMatchDenseOracle) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::string at = "seed " + std::to_string(seed);
    util::Xoshiro256 rng(seed);
    obs::CommAtlas atlas;
    DenseAtlas oracle;
    atlas.ensure_ranks(6);
    oracle.ensure_ranks(6);
    atlas.set_grid(2, 3);
    oracle.set_grid(2, 3);
    record_random(rng, 6, 400, atlas, oracle);
    expect_same_reads(atlas, oracle, at + ", 6 ranks on 2x3");

    // Growth midway: existing cells keep their pairs, new ranks record.
    atlas.ensure_ranks(9);
    oracle.ensure_ranks(9);
    atlas.ensure_ranks(4);  // never shrinks
    oracle.ensure_ranks(4);
    record_random(rng, 9, 400, atlas, oracle);
    expect_same_reads(atlas, oracle, at + ", grown to 9 on 2x3");

    // A re-fold before the reads: every pair, old ones included, is
    // classified under the grid installed when the read runs.
    atlas.set_grid(3, 3);
    oracle.set_grid(3, 3);
    expect_same_reads(atlas, oracle, at + ", 9 ranks on 3x3");
    atlas.set_grid(2, 4);
    oracle.set_grid(2, 4);
    expect_same_reads(atlas, oracle, at + ", 9 ranks on 2x4");

    // A cleared atlas starts over, level index included.
    atlas.clear();
    oracle.clear();
    EXPECT_TRUE(atlas.empty()) << at;
    expect_same_reads(atlas, oracle, at + ", cleared");
    record_random(rng, 9, 200, atlas, oracle);
    expect_same_reads(atlas, oracle, at + ", refilled after clear");
  }
}

// One bucket holding many distinct pairs grows its cell table several
// times; every pair and byte must survive the rehashes.
TEST(CommAtlasOracle, DenseBucketSurvivesTableGrowth) {
  obs::CommAtlas atlas;
  DenseAtlas oracle;
  atlas.ensure_ranks(40);
  oracle.ensure_ranks(40);
  atlas.set_grid(5, 8);
  oracle.set_grid(5, 8);
  for (int round = 0; round < 2; ++round) {
    for (int src = 0; src < 40; ++src) {
      for (int dst = 0; dst < 40; ++dst) {
        const auto bytes = static_cast<std::uint64_t>(src * 40 + dst + 1);
        atlas.slice(0, "Alltoallv", "fold", 3).add(src, dst, bytes);
        oracle.slice(0, "Alltoallv", "fold", 3).add(src, dst, bytes);
      }
    }
  }
  expect_same_reads(atlas, oracle, "every pair of 40 ranks, twice");
}

}  // namespace
}  // namespace dbfs
