#include "graph/validator.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <sstream>

#include "util/parallel.hpp"

namespace dbfs::graph {

namespace {

ValidationResult fail(std::string message, std::string check,
                      vid_t sample = -1) {
  ValidationResult r;
  r.ok = false;
  r.error = std::move(message);
  r.failed_check = std::move(check);
  r.sample_vertex = sample;
  return r;
}

/// A slot's first failure of one check: what broke and the vertices its
/// message names. Slots record only this; the calling thread formats the
/// message once the phase is over.
struct Failure {
  enum Kind : std::uint8_t {
    kNone,
    kParentRange,      // check 2: u's parent is out of range
    kParentCycle,      // check 2: the walk from u never ends
    kTreeEdgeMissing,  // check 3: (u, parent[u]) is not an edge
    kVisitedMismatch,  // check 4: arc (u, v) has one visited endpoint
    kLevelSpan,        // check 4: arc (u, v) spans more than one level
  };
  Kind kind = kNone;
  vid_t u = -1;
  vid_t v = -1;

  explicit operator bool() const noexcept { return kind != kNone; }
};

/// The result the serial scan returns when f is the first failure it meets.
ValidationResult report(const Failure& f, const std::vector<vid_t>& parent,
                        const std::vector<level_t>& level) {
  std::ostringstream msg;
  switch (f.kind) {
    case Failure::kParentRange:
      msg << "vertex " << f.u << " has out-of-range parent (check 2)";
      return fail(msg.str(), "parent-range", f.u);
    case Failure::kParentCycle:
      return fail("parent pointers contain a cycle (check 2)", "parent-cycle",
                  f.u);
    case Failure::kTreeEdgeMissing:
      msg << "tree edge (" << f.u << ", " << parent[f.u]
          << ") not in graph (check 3)";
      return fail(msg.str(), "tree-edge-missing", f.u);
    case Failure::kVisitedMismatch:
      msg << "edge {" << f.u << "," << f.v
          << "} has exactly one visited endpoint (check 4)";
      return fail(msg.str(), "edge-visited-mismatch",
                  parent[f.u] != kNoVertex ? f.v : f.u);
    case Failure::kLevelSpan:
      msg << "edge {" << f.u << "," << f.v << "} spans levels " << level[f.u]
          << " and " << level[f.v] << " (check 4)";
      return fail(msg.str(), "edge-level-span", f.v);
    case Failure::kNone:
      break;
  }
  return {};
}

/// Check 2 for visited vertex v: follows parents to the first vertex of
/// known level (the source's is 0), then walks the same chain again to
/// write each vertex's depth. Slots share `level`, so it is read and
/// written through relaxed atomics: every store of a vertex writes its one
/// depth in the tree, and a walk that fails writes nothing. A walk of more
/// than n steps has met a cycle.
Failure resolve_depth(vid_t v, vid_t n, const vid_t* parent, level_t* level) {
  const auto at = [level](vid_t x) {
    return std::atomic_ref<level_t>(level[x]);
  };
  vid_t steps = 0;
  vid_t cur = v;
  level_t base = kUnreached;
  while ((base = at(cur).load(std::memory_order_relaxed)) == kUnreached) {
    const vid_t p = parent[cur];
    if (p < 0 || p >= n) return {Failure::kParentRange, cur};
    if (++steps > n) return {Failure::kParentCycle, v};
    cur = p;
  }
  for (cur = v; steps > 0; --steps, cur = parent[cur]) {
    at(cur).store(base + steps, std::memory_order_relaxed);
  }
  return {};
}

/// Check 4 for the arcs leaving u. After check 2 a vertex has a level
/// exactly when it has a parent (a walk that reaches the source passes only
/// through vertices with in-range parents), so levels alone tell which
/// endpoints are visited: a visited u's neighbours must lie in
/// [max(lu - 1, 0), lu + 1], an unvisited u's must all read kUnreached, and
/// one unsigned compare per arc tests either range.
Failure check_arcs(const CsrGraph& g, vid_t u, const level_t* level) {
  const level_t lu = level[u];
  const bool u_visited = lu != kUnreached;
  const level_t lo = u_visited ? std::max<level_t>(lu - 1, 0) : kUnreached;
  const auto width = static_cast<std::uint64_t>(u_visited ? lu + 1 - lo : 0);
  for (vid_t v : g.neighbors(u)) {
    const level_t lv = level[v];
    if (static_cast<std::uint64_t>(lv - lo) > width) {
      return {u_visited == (lv != kUnreached) ? Failure::kLevelSpan
                                              : Failure::kVisitedMismatch,
              u, v};
    }
  }
  return {};
}

}  // namespace

std::vector<level_t> reference_levels(const CsrGraph& g, vid_t source) {
  std::vector<level_t> level(static_cast<std::size_t>(g.num_vertices()),
                             kUnreached);
  std::deque<vid_t> queue;
  level[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const vid_t u = queue.front();
    queue.pop_front();
    for (vid_t v : g.neighbors(u)) {
      if (level[v] == kUnreached) {
        level[v] = level[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return level;
}

ValidationResult validate_bfs_tree(
    const CsrGraph& g, vid_t source, const std::vector<vid_t>& parent,
    const std::vector<level_t>& ref_levels) {
  const vid_t n = g.num_vertices();
  if (static_cast<vid_t>(parent.size()) != n) {
    return fail("parent array size mismatch", "array-size");
  }
  if (source < 0 || source >= n) {
    return fail("source out of range", "source-range", source);
  }
  if (parent[source] != source) {
    return fail("parent[source] != source (check 1)", "source-parent",
                source);
  }

  ValidationResult out;
  out.levels.assign(static_cast<std::size_t>(n), kUnreached);
  out.levels[source] = 0;
  level_t* level = out.levels.data();

  // Each slot scans a contiguous range in scan order and keeps its first
  // failure of each check, so the lowest slot's failure of the earliest
  // check is the serial scan's first: a vertex's check-2 outcome depends
  // only on its parent chain, not on which levels are known yet.
  const auto slots = static_cast<std::size_t>(util::host_threads());

  // Phase 1, by vertex range: check 2 (levels from the parent chains),
  // check 3 (tree edges exist) and the visited count.
  struct VertexSlot {
    Failure walk;
    Failure tree;
    vid_t visited = 0;
  };
  std::vector<VertexSlot> by_vertex(slots);
  util::for_each_slot(
      slots,
      [&](std::size_t s) {
        const auto range =
            util::slot_range(static_cast<std::size_t>(n), slots, s);
        VertexSlot mine;
        for (auto v = static_cast<vid_t>(range.first);
             v < static_cast<vid_t>(range.last); ++v) {
          const vid_t p = parent[v];
          if (p == kNoVertex) continue;
          ++mine.visited;
          // A check-2 failure decides the verdict whatever else fails.
          mine.walk = resolve_depth(v, n, parent.data(), level);
          if (mine.walk) break;
          if (!mine.tree && v != source) {
            const auto nbrs = g.neighbors(v);
            if (!std::binary_search(nbrs.begin(), nbrs.end(), p)) {
              mine.tree = {Failure::kTreeEdgeMissing, v};
            }
          }
        }
        by_vertex[s] = mine;
      },
      static_cast<std::size_t>(n));
  for (const VertexSlot& s : by_vertex) {
    if (s.walk) return report(s.walk, parent, out.levels);
  }
  for (const VertexSlot& s : by_vertex) {
    if (s.tree) return report(s.tree, parent, out.levels);
    out.visited_count += s.visited;
  }

  // Phase 2, by vertex ranges cut at equal arc shares: check 4 and the
  // count of arcs whose endpoints are both visited.
  const std::vector<eid_t>& offsets = g.offsets();
  const auto arcs = static_cast<std::size_t>(g.num_edges());
  std::vector<vid_t> cut(slots + 1, n);
  for (std::size_t t = 0; t < slots; ++t) {
    const auto share =
        static_cast<eid_t>(util::slot_range(arcs, slots, t).first);
    cut[t] = std::lower_bound(offsets.begin(), offsets.end() - 1, share) -
             offsets.begin();
  }
  struct ArcSlot {
    Failure arc;
    eid_t traversed = 0;
  };
  std::vector<ArcSlot> by_arc(slots);
  util::for_each_slot(
      slots,
      [&](std::size_t s) {
        ArcSlot mine;
        for (vid_t u = cut[s]; u < cut[s + 1]; ++u) {
          mine.arc = check_arcs(g, u, level);
          if (mine.arc) break;
          if (level[u] != kUnreached) mine.traversed += g.degree(u);
        }
        by_arc[s] = mine;
      },
      arcs);
  for (const ArcSlot& s : by_arc) {
    if (s.arc) return report(s.arc, parent, out.levels);
    out.traversed_edges += s.traversed;
  }

  // Check 5: shortest-path optimality against the reference.
  if (!ref_levels.empty()) {
    if (ref_levels.size() != out.levels.size()) {
      return fail("reference level array size mismatch (check 5)",
                  "reference-size");
    }
    for (vid_t v = 0; v < n; ++v) {
      if (out.levels[v] != ref_levels[v]) {
        std::ostringstream msg;
        msg << "vertex " << v << " at level " << out.levels[v]
            << ", reference says " << ref_levels[v] << " (check 5)";
        return fail(msg.str(), "level-not-shortest", v);
      }
    }
  }
  return out;
}

}  // namespace dbfs::graph
