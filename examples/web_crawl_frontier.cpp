// Web-crawl exploration example: BFS over a high-diameter synthetic web
// graph (the uk-union stand-in), comparing how the 1D and 2D algorithms
// behave when the traversal takes ~140 latency-bound iterations instead
// of R-MAT's <10 — the regime of the paper's Figure 11.
//
//   ./examples/web_crawl_frontier [vertices_log2] [diameter] [cores]
//
// vertices_log2 must lie in [1, 40], diameter in [1, 2^vertices_log2] and
// cores be at least 1; anything else exits 2 with one "error:" line.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"

namespace {

struct Run {
  const char* algorithm;
  double seconds;
  double comm_fraction;
};

/// The conclusion this run's own numbers support: which variant finished
/// first, how 2D hybrid compares with 2D flat, and how much of each
/// variant's simulated time communication took.
void print_conclusion(const std::vector<Run>& runs, std::size_t max_levels,
                      double peak_share) {
  const auto by_time = [](const Run& a, const Run& b) {
    return a.seconds < b.seconds;
  };
  const auto by_comm = [](const Run& a, const Run& b) {
    return a.comm_fraction < b.comm_fraction;
  };
  const Run& fastest = *std::min_element(runs.begin(), runs.end(), by_time);
  const Run& least = *std::min_element(runs.begin(), runs.end(), by_comm);
  const Run& most = *std::max_element(runs.begin(), runs.end(), by_comm);
  const Run* flat = nullptr;
  const Run* hybrid = nullptr;
  for (const Run& r : runs) {
    if (std::string(r.algorithm) == "2d-flat") flat = &r;
    if (std::string(r.algorithm) == "2d-hybrid") hybrid = &r;
  }
  std::printf("\nFrom this run's numbers: %s finishes first, in %.2f ms.\n",
              fastest.algorithm, fastest.seconds * 1e3);
  if (flat != nullptr && hybrid != nullptr && flat->seconds > 0.0) {
    std::printf("2d-hybrid takes %.2fx the simulated time of 2d-flat.\n",
                hybrid->seconds / flat->seconds);
  }
  std::printf(
      "Communication is %.1f%% (%s) to %.1f%% (%s) of simulated time over\n"
      "up to %zu levels whose largest frontier holds %.2f%% of the pages",
      100.0 * least.comm_fraction, least.algorithm,
      100.0 * most.comm_fraction, most.algorithm, max_levels,
      100.0 * peak_share);
  if (least.comm_fraction >= 0.5) {
    std::printf(":\nper-level communication, not local work, sets the pace "
                "(cf. paper Fig 11).\n");
  } else {
    std::printf(";\nlocal work still outweighs communication in %s.\n",
                least.algorithm);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbfs;
  try {
    const int log_n =
        argc > 1 ? util::parse_number<int>(argv[1], "vertices_log2") : 16;
    if (log_n < 1 || log_n > 40) {  // bfs_tool's --scale range
      throw std::invalid_argument("vertices_log2: expected 1 to 40, got " +
                                  std::to_string(log_n));
    }
    const vid_t pages = vid_t{1} << log_n;
    const int diameter =
        argc > 2 ? util::parse_number<int>(argv[2], "diameter") : 140;
    if (diameter < 1 || diameter > pages) {
      throw std::invalid_argument(
          "diameter: expected 1 to 2^vertices_log2 = " +
          std::to_string(pages) + ", got " + std::to_string(diameter));
    }
    const int cores = util::require_positive(
        argc > 3 ? util::parse_number<int>(argv[3], "cores") : 128, "cores");

    graph::WebcrawlParams params;
    params.num_vertices = pages;
    params.target_diameter = diameter;
    auto built = graph::build_graph(graph::generate_webcrawl(params));
    const vid_t n = built.csr.num_vertices();
    std::printf("web crawl: %lld pages, %lld links, target diameter %d\n",
                static_cast<long long>(n),
                static_cast<long long>(built.csr.num_edges() / 2), diameter);

    std::vector<Run> runs;
    std::size_t max_levels = 0;
    vid_t max_frontier = 0;
    for (core::Algorithm algorithm :
         {core::Algorithm::kOneDFlat, core::Algorithm::kTwoDFlat,
          core::Algorithm::kTwoDHybrid}) {
      core::EngineOptions opts;
      opts.algorithm = algorithm;
      opts.cores = cores;
      opts.machine = model::hopper();
      core::Engine engine{built.edges, n, opts};
      const auto out = engine.run(0);

      // Frontier shape: high-diameter graphs never build large frontiers,
      // so per-level latency (not bandwidth) dominates.
      vid_t peak_frontier = 0;
      for (const auto& l : out.report.levels) {
        peak_frontier = std::max(peak_frontier, l.frontier);
      }
      std::printf(
          "\n%-12s levels=%3zu  peak frontier=%lld (%.2f%% of pages)\n",
          core::to_string(algorithm), out.report.levels.size(),
          static_cast<long long>(peak_frontier),
          100.0 * static_cast<double>(peak_frontier) /
              static_cast<double>(n));
      std::printf(
          "             sim time %.2f ms  (comm %.2f ms, comp %.2f ms, "
          "comm fraction %.1f%%)\n",
          out.report.total_seconds * 1e3, out.report.comm_seconds_mean * 1e3,
          out.report.comp_seconds_mean * 1e3,
          100.0 * out.report.comm_fraction());
      runs.push_back({core::to_string(algorithm), out.report.total_seconds,
                      out.report.comm_fraction()});
      max_levels = std::max(max_levels, out.report.levels.size());
      max_frontier = std::max(max_frontier, peak_frontier);
    }
    print_conclusion(runs, max_levels,
                     static_cast<double>(max_frontier) /
                         static_cast<double>(n));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
