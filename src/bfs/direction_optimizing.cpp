#include "bfs/direction_optimizing.hpp"

#include <stdexcept>
#include <utility>

#include "bfs/frontier.hpp"
#include "util/timer.hpp"

namespace dbfs::bfs {

namespace {

/// One pass over the adjacencies of the vertices visited this level:
/// their degree sum (next level's m_f, computed once here and carried
/// over — never recomputed when the vector becomes the frontier) and the
/// number of unexplored-edge copies they retire. Under Beamer's
/// definition m_u counts every copy of an edge incident to at least one
/// *unvisited* vertex, so a copy is retired only once BOTH endpoints are
/// visited: a copy v->w with w still unreached stays (the edge is still
/// incident to w), while visiting v also retires the mirror copy w->v of
/// every already-visited neighbour w — the source-side copies the old
/// accounting left in m_u forever.
struct VisitRetirement {
  eid_t degree_sum = 0;  ///< m_f of `just_visited` as the next frontier
  eid_t retired = 0;     ///< copies m_u loses now these are visited
};

VisitRetirement retire_visited(const graph::CsrGraph& g,
                               const std::vector<level_t>& level,
                               const std::vector<vid_t>& just_visited,
                               level_t this_level) {
  VisitRetirement r;
  for (vid_t v : just_visited) {
    const eid_t deg = g.degree(v);
    r.degree_sum += deg;
    r.retired += deg;
    for (vid_t w : g.neighbors(v)) {
      if (level[w] == kUnreached) {
        --r.retired;  // edge still incident to unvisited w: copy survives
      } else if (level[w] != this_level) {
        ++r.retired;  // mirror copy at w was consumed when w was visited
      }
      // w visited this same level: both copies retired via the two
      // degree terms, no correction needed.
    }
  }
  return r;
}

}  // namespace

DirectionOptimizingResult direction_optimizing_bfs(
    const graph::CsrGraph& g, vid_t source,
    const DirectionOptimizingOptions& opts) {
  const vid_t n = g.num_vertices();
  if (source < 0 || source >= n) {
    throw std::out_of_range("direction_optimizing_bfs: source out of range");
  }

  DirectionOptimizingResult result;
  BfsOutput& out = result.out;
  out.parent.assign(static_cast<std::size_t>(n), kNoVertex);
  out.level.assign(static_cast<std::size_t>(n), kUnreached);
  out.report.algorithm =
      opts.force_top_down ? "shared-top-down" : "direction-optimizing";
  out.report.machine = "host";
  out.report.dirop.enabled = !opts.force_top_down;
  out.report.dirop.mode = opts.force_top_down ? "topdown" : "hybrid";
  out.report.dirop.alpha = opts.alpha;
  out.report.dirop.beta = opts.beta;

  util::Timer timer;
  std::vector<vid_t> frontier{source};
  Bitmap in_frontier(n);
  out.parent[source] = source;
  out.level[source] = 0;

  // m_u: copies of edges incident to >= 1 unvisited vertex. Visiting the
  // source retires only copies of its self-loops (every other incident
  // edge still touches an unvisited endpoint), so high-degree roots no
  // longer start with an artificially deflated count.
  const VisitRetirement init = retire_visited(g, out.level, frontier, 0);
  eid_t unexplored_edges = g.num_edges() - init.retired;
  // m_f of the current frontier, computed once per vector (for `next` at
  // the loop bottom) and carried over instead of being re-derived when
  // the same vector comes back around as `frontier`.
  eid_t frontier_edges = init.degree_sum;
  level_t level = 1;
  bool bottom_up = false;

  while (!frontier.empty()) {
    LevelStats stats;
    stats.level = level - 1;
    stats.frontier = static_cast<vid_t>(frontier.size());
    stats.frontier_edges = frontier_edges;
    stats.unexplored_edges = unexplored_edges;

    // Direction heuristic (Beamer's alpha/beta rules).
    DiropRationale rationale = DiropRationale::kForced;
    if (!opts.force_top_down) {
      const DiropDecision d = beamer_switch(
          bottom_up, static_cast<vid_t>(frontier.size()), n, frontier_edges,
          unexplored_edges, opts.alpha, opts.beta);
      bottom_up = d.bottom_up;
      rationale = d.rationale;
    }
    stats.bottom_up = bottom_up;
    stats.dirop_rationale = static_cast<int>(rationale);

    std::vector<vid_t> next;
    if (bottom_up) {
      ++result.bottom_up_levels;
      // Membership bitmap of the current frontier for O(1) parent tests.
      in_frontier.clear_all();
      for (vid_t u : frontier) in_frontier.set(u);

      for (vid_t v = 0; v < n; ++v) {
        if (out.level[v] != kUnreached) continue;
        for (vid_t u : g.neighbors(v)) {
          ++stats.edges_scanned;
          ++result.bottom_up_edges;
          if (in_frontier.test(u)) {
            out.level[v] = level;
            out.parent[v] = u;
            next.push_back(v);
            break;  // the early exit that makes bottom-up cheap
          }
        }
      }
    } else {
      for (vid_t u : frontier) {
        for (vid_t v : g.neighbors(u)) {
          ++stats.edges_scanned;
          ++result.top_down_edges;
          if (out.level[v] == kUnreached) {
            out.level[v] = level;
            out.parent[v] = u;
            next.push_back(v);
          }
        }
      }
    }

    const VisitRetirement visit = retire_visited(g, out.level, next, level);
    unexplored_edges -= visit.retired;
    frontier_edges = visit.degree_sum;
    stats.newly_visited = static_cast<vid_t>(next.size());
    out.report.levels.push_back(stats);
    frontier = std::move(next);
    ++level;
  }

  out.report.total_seconds = timer.elapsed();
  out.report.comp_seconds_mean = out.report.total_seconds;
  out.report.comp_seconds_max = out.report.total_seconds;
  eid_t scanned = 0;
  for (const LevelStats& l : out.report.levels) scanned += l.edges_scanned;
  out.report.edges_traversed = scanned;
  out.report.dirop.top_down_edges = result.top_down_edges;
  out.report.dirop.bottom_up_edges = result.bottom_up_edges;
  out.report.dirop.bottom_up_levels = result.bottom_up_levels;
  out.report.dirop.top_down_levels =
      static_cast<std::int64_t>(out.report.levels.size()) -
      result.bottom_up_levels;
  bool prev = false;
  for (const LevelStats& l : out.report.levels) {
    if (l.level > 0 && l.bottom_up != prev) ++out.report.dirop.switches;
    prev = l.bottom_up;
  }
  return result;
}

}  // namespace dbfs::bfs
