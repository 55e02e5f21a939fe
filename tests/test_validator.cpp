#include "graph/validator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "bfs/serial.hpp"
#include "graph/edge_list.hpp"
#include "test_helpers.hpp"
#include "util/prng.hpp"

namespace dbfs::graph {
namespace {

// Path 0-1-2-3 plus a chord 0-2.
CsrGraph small_graph() {
  EdgeList e{5};
  e.add(0, 1);
  e.add(1, 2);
  e.add(2, 3);
  e.add(0, 2);
  e.symmetrize();
  return CsrGraph::from_edges(e);
}

TEST(ReferenceLevels, ShortestDistances) {
  const CsrGraph g = small_graph();
  const auto levels = reference_levels(g, 0);
  EXPECT_EQ(levels[0], 0);
  EXPECT_EQ(levels[1], 1);
  EXPECT_EQ(levels[2], 1);  // via the chord
  EXPECT_EQ(levels[3], 2);
  EXPECT_EQ(levels[4], kUnreached);
}

TEST(Validator, AcceptsCorrectTree) {
  const CsrGraph g = small_graph();
  const std::vector<vid_t> parent{0, 0, 0, 2, kNoVertex};
  const auto r = validate_bfs_tree(g, 0, parent, reference_levels(g, 0));
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.visited_count, 4);
  EXPECT_EQ(r.levels[3], 2);
}

TEST(Validator, RejectsWrongSourceParent) {
  const CsrGraph g = small_graph();
  const std::vector<vid_t> parent{1, 0, 0, 2, kNoVertex};
  EXPECT_FALSE(validate_bfs_tree(g, 0, parent).ok);
}

TEST(Validator, RejectsParentCycle) {
  const CsrGraph g = small_graph();
  // 1 and 2 point at each other; both claim reachability.
  const std::vector<vid_t> parent{0, 2, 1, 2, kNoVertex};
  const auto r = validate_bfs_tree(g, 0, parent);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("cycle"), std::string::npos);
}

TEST(Validator, RejectsNonEdgeTreeEdge) {
  const CsrGraph g = small_graph();
  // 3's parent claimed to be 0, but {0,3} is not an edge.
  const std::vector<vid_t> parent{0, 0, 0, 0, kNoVertex};
  const auto r = validate_bfs_tree(g, 0, parent);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("check 3"), std::string::npos);
}

TEST(Validator, RejectsUnvisitedReachable) {
  const CsrGraph g = small_graph();
  // 3 is reachable but left unvisited: edge {2,3} spans visited/unvisited.
  const std::vector<vid_t> parent{0, 0, 0, kNoVertex, kNoVertex};
  const auto r = validate_bfs_tree(g, 0, parent);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("check 4"), std::string::npos);
}

TEST(Validator, RejectsNonShortestTree) {
  const CsrGraph g = small_graph();
  // 2 hung off 1 (level 2) instead of 0 (level 1): a valid tree, but not
  // a breadth-first one. Caught by check 4 or check 5.
  const std::vector<vid_t> parent{0, 0, 1, 2, kNoVertex};
  const auto r = validate_bfs_tree(g, 0, parent, reference_levels(g, 0));
  EXPECT_FALSE(r.ok);
}

TEST(Validator, RejectsSizeMismatch) {
  const CsrGraph g = small_graph();
  EXPECT_FALSE(validate_bfs_tree(g, 0, {0, 0}).ok);
}

TEST(Validator, RejectsOutOfRangeParent) {
  const CsrGraph g = small_graph();
  const std::vector<vid_t> parent{0, 99, kNoVertex, kNoVertex, kNoVertex};
  EXPECT_FALSE(validate_bfs_tree(g, 0, parent).ok);
}

TEST(Validator, CountsTraversedEdges) {
  const CsrGraph g = small_graph();
  const std::vector<vid_t> parent{0, 0, 0, 2, kNoVertex};
  const auto r = validate_bfs_tree(g, 0, parent);
  ASSERT_TRUE(r.ok);
  // All 8 directed adjacencies are within the visited set.
  EXPECT_EQ(r.traversed_edges, 8);
}

TEST(Validator, SingletonSourceOk) {
  EdgeList e{3};
  e.add(1, 2);
  e.symmetrize();
  const CsrGraph g = CsrGraph::from_edges(e);
  // BFS from isolated vertex 0 visits only itself.
  const std::vector<vid_t> parent{0, kNoVertex, kNoVertex};
  const auto r = validate_bfs_tree(g, 0, parent);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.visited_count, 1);
}


// ---- The serial scan the slot phases replaced: the oracle ----
//
// validate_bfs_tree runs checks 2-4 in slot phases on the host threads
// and must return exactly what this single-threaded scan returns, every
// field, at any thread count.

ValidationResult oracle_fail(std::string message, std::string check,
                             vid_t sample = -1) {
  ValidationResult r;
  r.ok = false;
  r.error = std::move(message);
  r.failed_check = std::move(check);
  r.sample_vertex = sample;
  return r;
}

ValidationResult serial_validate(const CsrGraph& g, vid_t source,
                                 const std::vector<vid_t>& parent,
                                 const std::vector<level_t>& ref_levels) {
  const vid_t n = g.num_vertices();
  if (static_cast<vid_t>(parent.size()) != n) {
    return oracle_fail("parent array size mismatch", "array-size");
  }
  if (source < 0 || source >= n) {
    return oracle_fail("source out of range", "source-range", source);
  }
  if (parent[source] != source) {
    return oracle_fail("parent[source] != source (check 1)", "source-parent",
                       source);
  }

  ValidationResult out;
  out.levels.assign(static_cast<std::size_t>(n), kUnreached);

  std::vector<vid_t> chain;
  for (vid_t v = 0; v < n; ++v) {
    if (parent[v] == kNoVertex || out.levels[v] != kUnreached) continue;
    chain.clear();
    vid_t cur = v;
    while (out.levels[cur] == kUnreached && cur != source) {
      chain.push_back(cur);
      const vid_t p = parent[cur];
      if (p < 0 || p >= n) {
        std::ostringstream msg;
        msg << "vertex " << cur << " has out-of-range parent (check 2)";
        return oracle_fail(msg.str(), "parent-range", cur);
      }
      if (static_cast<vid_t>(chain.size()) > n) {
        return oracle_fail("parent pointers contain a cycle (check 2)",
                           "parent-cycle", v);
      }
      cur = p;
    }
    level_t base = (cur == source) ? 0 : out.levels[cur];
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      out.levels[*it] = ++base;
    }
  }
  out.levels[source] = 0;

  for (vid_t v = 0; v < n; ++v) {
    if (parent[v] == kNoVertex) continue;
    ++out.visited_count;
    if (v != source) {
      const auto nbrs = g.neighbors(v);
      if (!std::binary_search(nbrs.begin(), nbrs.end(), parent[v])) {
        std::ostringstream msg;
        msg << "tree edge (" << v << ", " << parent[v]
            << ") not in graph (check 3)";
        return oracle_fail(msg.str(), "tree-edge-missing", v);
      }
    }
  }

  for (vid_t u = 0; u < n; ++u) {
    const bool u_visited = parent[u] != kNoVertex;
    for (vid_t v : g.neighbors(u)) {
      const bool v_visited = parent[v] != kNoVertex;
      if (u_visited != v_visited) {
        std::ostringstream msg;
        msg << "edge {" << u << "," << v
            << "} has exactly one visited endpoint (check 4)";
        return oracle_fail(msg.str(), "edge-visited-mismatch",
                           u_visited ? v : u);
      }
      if (u_visited) {
        ++out.traversed_edges;
        if (std::abs(out.levels[u] - out.levels[v]) > 1) {
          std::ostringstream msg;
          msg << "edge {" << u << "," << v << "} spans levels "
              << out.levels[u] << " and " << out.levels[v] << " (check 4)";
          return oracle_fail(msg.str(), "edge-level-span", v);
        }
      }
    }
  }

  if (!ref_levels.empty()) {
    if (ref_levels.size() != out.levels.size()) {
      return oracle_fail("reference level array size mismatch (check 5)",
                         "reference-size");
    }
    for (vid_t v = 0; v < n; ++v) {
      if (out.levels[v] != ref_levels[v]) {
        std::ostringstream msg;
        msg << "vertex " << v << " at level " << out.levels[v]
            << ", reference says " << ref_levels[v] << " (check 5)";
        return oracle_fail(msg.str(), "level-not-shortest", v);
      }
    }
  }
  return out;
}

/// Validates `parent` with the oracle, then with validate_bfs_tree at
/// 1..kMaxHostThreads host threads, expecting all seven fields equal.
/// Returns the oracle's verdict.
ValidationResult expect_oracle_verdict(const CsrGraph& g, vid_t source,
                                       const std::vector<vid_t>& parent,
                                       const std::vector<level_t>& ref,
                                       const std::string& what) {
  const ValidationResult want = serial_validate(g, source, parent, ref);
  for (int t = 1; t <= test::kMaxHostThreads; ++t) {
    const test::HostThreads threads(t);
    const ValidationResult got = validate_bfs_tree(g, source, parent, ref);
    const std::string at = what + " at " + std::to_string(t) + " threads";
    EXPECT_EQ(got.ok, want.ok) << at;
    EXPECT_EQ(got.error, want.error) << at;
    EXPECT_EQ(got.failed_check, want.failed_check) << at;
    EXPECT_EQ(got.sample_vertex, want.sample_vertex) << at;
    EXPECT_EQ(got.levels, want.levels) << at;
    EXPECT_EQ(got.visited_count, want.visited_count) << at;
    EXPECT_EQ(got.traversed_edges, want.traversed_edges) << at;
  }
  return want;
}

/// One way to break a BFS tree, and the check it trips when it is the
/// tree's only fault.
enum class Corruption {
  kParentMinusTwo,   // parent-range
  kParentN,          // parent-range
  kSelfParent,       // parent-cycle
  kTwoCycle,         // parent-cycle
  kMissingTreeEdge,  // tree-edge-missing: a parent that is no neighbour
  kUnvisitLeaf,      // edge-visited-mismatch: a leaf dropped from the tree
  kLevelSpan,        // edge-level-span: a leaf rehung deeper
};
constexpr Corruption kCorruptions[] = {
    Corruption::kParentMinusTwo,  Corruption::kParentN,
    Corruption::kSelfParent,      Corruption::kTwoCycle,
    Corruption::kMissingTreeEdge, Corruption::kUnvisitLeaf,
    Corruption::kLevelSpan};

const char* tripped_check(Corruption c) {
  switch (c) {
    case Corruption::kParentMinusTwo:
    case Corruption::kParentN:
      return "parent-range";
    case Corruption::kSelfParent:
    case Corruption::kTwoCycle:
      return "parent-cycle";
    case Corruption::kMissingTreeEdge:
      return "tree-edge-missing";
    case Corruption::kUnvisitLeaf:
      return "edge-visited-mismatch";
    case Corruption::kLevelSpan:
      return "edge-level-span";
  }
  return "";
}

bool adjacent(const CsrGraph& g, vid_t u, vid_t v) {
  const auto nbrs = g.neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

/// Applies `c` at a random vertex of the tree (`level` is the intact
/// tree's). Returns false when no vertex of the graph qualifies.
bool corrupt(const CsrGraph& g, vid_t source, const std::vector<level_t>& level,
             Corruption c, util::Xoshiro256& rng, std::vector<vid_t>& parent) {
  const vid_t n = g.num_vertices();
  std::vector<bool> has_child(static_cast<std::size_t>(n), false);
  for (vid_t v = 0; v < n; ++v) {
    if (v != source && parent[v] >= 0 && parent[v] < n) {
      has_child[parent[v]] = true;
    }
  }
  for (vid_t attempt = 0; attempt < 64 * n; ++attempt) {
    const auto v = static_cast<vid_t>(rng.next_below(n));
    if (v == source || parent[v] == kNoVertex) continue;
    switch (c) {
      case Corruption::kParentMinusTwo:
        parent[v] = -2;
        return true;
      case Corruption::kParentN:
        parent[v] = n;
        return true;
      case Corruption::kSelfParent:
        parent[v] = v;
        return true;
      case Corruption::kTwoCycle: {
        const auto w = static_cast<vid_t>(rng.next_below(n));
        if (w == source || w == v || parent[w] == kNoVertex) continue;
        parent[v] = w;
        parent[w] = v;
        return true;
      }
      case Corruption::kMissingTreeEdge: {
        // A shallower vertex cannot descend from v, so no cycle forms.
        const auto w = static_cast<vid_t>(rng.next_below(n));
        if (level[w] == kUnreached || level[w] >= level[v] ||
            adjacent(g, v, w)) {
          continue;
        }
        parent[v] = w;
        return true;
      }
      case Corruption::kUnvisitLeaf:
        if (has_child[v]) continue;
        parent[v] = kNoVertex;
        return true;
      case Corruption::kLevelSpan:
        // Rehung below a neighbour w at its own level or deeper, leaf v
        // lands at least two levels below its old parent, still a
        // neighbour; v has no descendants, so no cycle forms.
        if (has_child[v]) continue;
        for (vid_t w : g.neighbors(v)) {
          if (w != parent[v] && level[w] >= level[v]) {
            parent[v] = w;
            return true;
          }
        }
        continue;
    }
  }
  return false;
}

TEST(Validator, MatchesTheSerialScanAtEveryHostThreadCount) {
  struct Instance {
    std::string name;
    CsrGraph g;
    vid_t source;
  };
  std::vector<Instance> instances;
  instances.push_back({"small", small_graph(), 0});
  for (int scale = 10; scale <= 12; ++scale) {
    graph::BuiltGraph built = test::rmat_graph(scale);
    const vid_t source = test::hub_source(built.csr);
    instances.push_back(
        {"rmat" + std::to_string(scale), std::move(built.csr), source});
  }
  util::Xoshiro256 rng{29};
  int kinds_seen = 0;
  for (const Instance& in : instances) {
    const CsrGraph& g = in.g;
    const bfs::BfsOutput tree = bfs::serial_bfs(g, in.source);
    const std::vector<level_t> ref = reference_levels(g, in.source);

    // The intact tree, with and without check 5, and check 5's failures.
    EXPECT_TRUE(expect_oracle_verdict(g, in.source, tree.parent, {},
                                      in.name + " intact")
                    .ok);
    EXPECT_TRUE(expect_oracle_verdict(g, in.source, tree.parent, ref,
                                      in.name + " intact, reference")
                    .ok);
    std::vector<level_t> off = ref;
    const auto moved = static_cast<std::size_t>(rng.next_below(off.size()));
    off[moved] += 1;
    EXPECT_EQ(expect_oracle_verdict(g, in.source, tree.parent, off,
                                    in.name + " shifted reference")
                  .failed_check,
              "level-not-shortest");
    off.push_back(0);
    EXPECT_EQ(expect_oracle_verdict(g, in.source, tree.parent, off,
                                    in.name + " long reference")
                  .failed_check,
              "reference-size");

    // Each kind alone, at a few random vertices.
    for (Corruption c : kCorruptions) {
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<vid_t> parent = tree.parent;
        if (!corrupt(g, in.source, tree.level, c, rng, parent)) continue;
        const std::string what = in.name + " " + tripped_check(c) +
                                 " trial " + std::to_string(trial);
        const std::vector<level_t>& with = trial == 0 ? ref : off;
        const ValidationResult r =
            expect_oracle_verdict(g, in.source, parent, with, what);
        EXPECT_EQ(r.failed_check, tripped_check(c)) << what;
        if (trial == 0 && r.failed_check == tripped_check(c)) ++kinds_seen;
      }
    }

    // Two or three at once: check 2 outranks 3 outranks 4, and within a
    // check the lowest vertex's failure is the one reported.
    for (int trial = 0; trial < 24; ++trial) {
      std::vector<vid_t> parent = tree.parent;
      const int faults = 2 + static_cast<int>(rng.next_below(2));
      for (int f = 0; f < faults; ++f) {
        const Corruption c =
            kCorruptions[rng.next_below(std::size(kCorruptions))];
        corrupt(g, in.source, tree.level, c, rng, parent);
      }
      expect_oracle_verdict(g, in.source, parent, trial % 2 ? ref : off,
                            in.name + " mixed trial " + std::to_string(trial));
    }
  }
  // Every kind was exercised on every instance.
  EXPECT_EQ(kinds_seen, static_cast<int>(instances.size() *
                                         std::size(kCorruptions)));
}

TEST(Validator, DegenerateShapesMatchTheSerialScan) {
  // A 2^16-vertex path searched from its last vertex: parents run against
  // the scan, so each slot's first walk climbs to the source (depth up to
  // 65 535); then one broken link turns every walk into a cycle.
  {
    const vid_t n = vid_t{1} << 16;
    const CsrGraph g = CsrGraph::from_edges(test::path_edges(n));
    std::vector<vid_t> parent(static_cast<std::size_t>(n));
    for (vid_t v = 0; v + 1 < n; ++v) parent[v] = v + 1;
    parent[n - 1] = n - 1;
    const ValidationResult r =
        expect_oracle_verdict(g, n - 1, parent, {}, "reversed path");
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.levels[0], n - 1);
    parent[n - 2] = n - 2;
    EXPECT_EQ(expect_oracle_verdict(g, n - 1, parent, {},
                                    "reversed path, self-parent")
                  .failed_check,
              "parent-cycle");
  }
  // A parent cycle through every vertex but the source, and one through
  // every vertex.
  {
    const vid_t n = 4096;
    graph::EdgeList ring = test::path_edges(n);
    ring.add(n - 1, 0);
    ring.add(0, n - 1);
    const CsrGraph g = CsrGraph::from_edges(ring);
    std::vector<vid_t> parent(static_cast<std::size_t>(n));
    for (vid_t v = 1; v < n; ++v) parent[v] = v + 1 < n ? v + 1 : 1;
    parent[0] = 0;
    EXPECT_EQ(expect_oracle_verdict(g, 0, parent, {}, "cycle past the source")
                  .failed_check,
              "parent-cycle");
    parent[0] = 1;
    parent[n - 1] = 0;
    EXPECT_EQ(expect_oracle_verdict(g, 0, parent, {}, "cycle of all n")
                  .failed_check,
              "source-parent");
  }
  // One vertex.
  {
    const CsrGraph g = CsrGraph::from_edges(graph::EdgeList{1});
    EXPECT_TRUE(expect_oracle_verdict(g, 0, {0}, {0}, "n = 1").ok);
    EXPECT_FALSE(expect_oracle_verdict(g, 0, {kNoVertex}, {}, "n = 1, no tree")
                     .ok);
  }
  // No edges: only the source is visited.
  {
    const vid_t n = 1024;
    const CsrGraph g = CsrGraph::from_edges(graph::EdgeList{n});
    std::vector<vid_t> parent(static_cast<std::size_t>(n), kNoVertex);
    parent[700] = 700;
    EXPECT_TRUE(expect_oracle_verdict(g, 700, parent, {}, "edgeless").ok);
    parent[5] = 700;
    EXPECT_EQ(expect_oracle_verdict(g, 700, parent, {}, "edgeless, orphan")
                  .failed_check,
              "tree-edge-missing");
    parent[900] = 900;
    EXPECT_EQ(expect_oracle_verdict(g, 700, parent, {}, "edgeless, self-loop")
                  .failed_check,
              "parent-cycle");
  }
  // A star searched from its hub and from a leaf.
  {
    const vid_t n = 1024;
    const CsrGraph g = CsrGraph::from_edges(test::star_edges(n));
    for (const vid_t source : {vid_t{0}, vid_t{n / 2}}) {
      const bfs::BfsOutput tree = bfs::serial_bfs(g, source);
      const std::string what = "star from " + std::to_string(source);
      const ValidationResult r = expect_oracle_verdict(
          g, source, tree.parent, reference_levels(g, source), what);
      EXPECT_TRUE(r.ok) << what;
      EXPECT_EQ(r.traversed_edges, 2 * (n - 1)) << what;
    }
  }
}

}  // namespace
}  // namespace dbfs::graph
