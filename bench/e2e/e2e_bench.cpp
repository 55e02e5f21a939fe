// Host-clock end-to-end benchmark of the distributed BFS simulator.
//
// One process runs one workload in a closed loop, one search at a time,
// following the Graph500 flow on the host clock. Set-up generates and
// builds the graph from --seed, constructs the engine, builds its
// validation CSR and samples the sources in the large component; it is
// repeated (at least kMinReps times, more while it fits in kSetupShare of
// --seconds) and the last instance is kept. One warm-up search follows,
// then passes that search and validate every source, until --seconds is
// spent (at least kMinReps passes). Every pass searches the same sources,
// so each search's virtual-time totals and parents must repeat bit for bit
// across passes; a search that throws, fails validation or does not repeat
// counts as failed.
//
// Search time is reported as the mean over the sources of each source's
// median over passes. The median drops a search the host happened to
// stall; the mean over many sources keeps the figure steady across seeds,
// where per-source time varies up to 3x within one webcrawl graph.
// total_s, the time to a validated result set, is the median set-up plus
// the median pass. The warm-up is left out: it is one sample, and a single
// host stall of a second was seen to land on it.
//
// With --trace 1 the loop runs for half of --seconds and records host
// spans around every library call, then measures the per-layer metrics:
// counts from the RunReport and the metrics registry, differentials (K
// sources re-run on a fresh Engine with one option flipped) and probes
// (the widest BFS level replayed through one layer's public function,
// median of kProbeReps calls).
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics ({name: {value, unit}}). --out writes a fuller record that
// also states sample counts and the virtual-time digest.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bfs/frontier.hpp"
#include "comm/sieve.hpp"
#include "comm/wire_format.hpp"
#include "core/engine.hpp"
#include "dist/partition2d.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/validator.hpp"
#include "model/machine.hpp"
#include "simmpi/comm.hpp"
#include "sparse/spmsv.hpp"
#include "util/stats.hpp"

namespace {

using namespace dbfs;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinReps = 3;   // set-ups, and passes over the sources
constexpr std::size_t kMaxReps = 64;
constexpr double kSetupShare = 0.25;  // of --seconds, for repeated set-ups
constexpr int kDiffSources = 8;  // K, sources per differential
constexpr int kProbeReps = 5;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(const std::vector<double>& v) {
  return util::summarize(v).median;
}

// ---------------------------------------------------------------------
// Workloads. Why each exists is recorded in README.md and BENCHMARK.json.

struct Workload {
  const char* name;
  bool webcrawl;
  int log2_n;
  core::Algorithm algorithm;
  int cores;
  comm::WireFormat wire;
  bfs::DirectionMode direction;
  int checkpoint_every;
  int audit_every;
  bool observers;  // tracer + metrics + atlas attached to the engine
  int sources;     // each searched once per pass
};

const std::vector<Workload>& workloads() {
  using A = core::Algorithm;
  using W = comm::WireFormat;
  using D = bfs::DirectionMode;
  static const std::vector<Workload> table = {
      {"rmat16-2d-topdown", false, 16, A::kTwoDFlat, 256, W::kRaw,
       D::kTopDown, 0, 0, false, 64},
      {"rmat16-1d-auto", false, 16, A::kOneDFlat, 256, W::kAuto, D::kTopDown,
       0, 0, false, 32},
      {"rmat17-2d-hybrid", false, 17, A::kTwoDFlat, 1024, W::kAuto,
       D::kHybrid, 0, 0, false, 32},
      {"webcrawl12-2d-resilient", true, 12, A::kTwoDFlat, 64, W::kRaw,
       D::kTopDown, 1, 4, true, 64},
  };
  return table;
}

core::EngineOptions engine_options(const Workload& w) {
  core::EngineOptions o;
  o.algorithm = w.algorithm;
  o.cores = w.cores;
  o.machine = model::hopper();
  o.wire_format = w.wire;
  o.direction = w.direction;
  o.recover.checkpoint_every = w.checkpoint_every;
  o.recover.audit_every = w.audit_every;
  o.trace = o.metrics = o.atlas = w.observers;
  return o;
}

// ---------------------------------------------------------------------
// Host spans: name, start, end and parent, kept in memory and written as
// Chrome trace JSON at exit. Recording is off in the end-to-end pass.

struct HostSpan {
  const char* name;
  double begin_us;
  double end_us;
  int parent;  // index into the span list; -1 for a root
};

class HostTrace {
 public:
  explicit HostTrace(bool on) : on_(on), t0_(Clock::now()) {}

  bool on() const noexcept { return on_; }
  std::size_t size() const noexcept { return spans_.size(); }

  int open(const char* name) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(HostSpan{name, now_us(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }

  void write_chrome_json(std::ostream& out, int pid,
                         const std::string& process) const {
    out << "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\","
           "\"pid\":"
        << pid << ",\"tid\":0,\"args\":{\"name\":\"host " << process
        << "\"}}";
    char buf[96];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const HostSpan& s = spans_[i];
      out << ",{\"name\":\"" << s.name << "\",\"cat\":\"host\",\"ph\":\"X\"";
      std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f", s.begin_us,
                    s.end_us - s.begin_us);
      out << buf << ",\"pid\":" << pid << ",\"tid\":0,\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  bool on_;
  Clock::time_point t0_;
  std::vector<HostSpan> spans_;
  std::vector<int> stack_;
};

/// Times a scope on the steady clock and, when tracing, records its span.
class Timed {
 public:
  Timed(HostTrace& trace, const char* name)
      : trace_(trace), id_(trace.open(name)), t0_(Clock::now()) {}
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  double stop() {
    if (id_ != -2) {
      seconds_ = since(t0_);
      trace_.close(id_);
      id_ = -2;
    }
    return seconds_;
  }

 private:
  HostTrace& trace_;
  int id_;
  Clock::time_point t0_;
  double seconds_ = 0.0;
};

// ---------------------------------------------------------------------
// Correctness: a digest of one search's virtual-time totals and parents.
// Observers, host threads and re-construction must not change it.

class Fnv {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((x >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    add(bits);
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const bfs::BfsOutput& out) {
  const bfs::RunReport& r = out.report;
  Fnv f;
  for (double d : {r.total_seconds, r.comm_seconds_mean, r.comm_seconds_max,
                   r.comp_seconds_mean, r.comp_seconds_max,
                   r.alltoall_seconds, r.allgather_seconds,
                   r.transpose_seconds, r.allreduce_seconds}) {
    f.add(d);
  }
  for (std::uint64_t b : {r.alltoall_bytes, r.allgather_bytes,
                          r.transpose_bytes, r.allreduce_bytes}) {
    f.add(b);
  }
  f.add(static_cast<std::uint64_t>(r.edges_traversed));
  for (const bfs::LevelStats& l : r.levels) {
    f.add(static_cast<std::uint64_t>(l.frontier));
    f.add(l.wall_seconds);
  }
  for (vid_t p : out.parent) f.add(static_cast<std::uint64_t>(p));
  return f.value();
}

// ---------------------------------------------------------------------
// A run: set up several times, keeping the last instance; one warm-up
// search; then passes that search and validate every source.

struct Instance {
  graph::BuiltGraph built;
  std::unique_ptr<core::Engine> engine;
  std::vector<vid_t> sources;
};

struct SearchStats {
  eid_t edges = 0;
  std::size_t levels = 0;
  std::int64_t spa_calls = 0;
  std::int64_t heap_calls = 0;
  std::uint64_t network_bytes = 0;
  double virtual_seconds = 0.0;
  double comm_fraction = 0.0;
  std::int64_t audits = 0;
};

struct Samples {
  std::vector<double> setup, pass, validate;
  std::vector<std::vector<double>> search;  // [source][pass] host seconds
  std::map<std::string, std::vector<double>> stage;  // set-up breakdown
  std::vector<SearchStats> searches;
  std::vector<std::uint64_t> digests;  // first pass, one per source
  std::vector<double> virtual_teps;    // first pass, one per source
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

struct Config {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  int threads = 1;
  std::string out_path;
  std::string trace_path;
};

graph::EdgeList generate(const Workload& w, std::uint64_t seed) {
  if (w.webcrawl) {
    graph::WebcrawlParams p;
    p.num_vertices = vid_t{1} << w.log2_n;
    p.target_diameter = 140;
    p.seed = seed;
    return graph::generate_webcrawl(p);
  }
  graph::RmatParams p;
  p.scale = w.log2_n;
  p.edge_factor = 16;
  p.seed = seed;
  return graph::generate_rmat(p);
}

Instance set_up(const Workload& w, std::uint64_t seed, HostTrace& trace,
                Samples& s) {
  Instance inst;
  auto stage = [&](const char* name, auto&& fn) {
    Timed t(trace, name);
    fn();
    s.stage[std::string(name) + "_s"].push_back(t.stop());
  };
  graph::EdgeList edges;
  stage("graph.generate", [&] { edges = generate(w, seed); });
  stage("graph.build", [&] {
    graph::BuildOptions b;
    b.shuffle_seed = seed * 0x9e3779b97f4a7c15ULL + 0x5eed;
    inst.built = graph::build_graph(std::move(edges), b);
  });
  stage("core.engine_init", [&] {
    inst.engine = std::make_unique<core::Engine>(
        inst.built.edges, inst.built.csr.num_vertices(), engine_options(w));
  });
  stage("core.csr", [&] { inst.engine->csr(); });
  stage("graph.components", [&] {
    const graph::Components comps =
        graph::connected_components(inst.engine->csr());
    inst.sources = graph::sample_sources(inst.engine->csr(), comps,
                                         w.sources, seed + 7);
  });
  if (inst.sources.empty()) throw std::runtime_error("no sources sampled");
  return inst;
}

SearchStats search_stats(const bfs::RunReport& r) {
  SearchStats st;
  st.edges = r.edges_traversed;
  st.levels = r.levels.size();
  st.spa_calls = r.spmsv_spa_calls;
  st.heap_calls = r.spmsv_heap_calls;
  st.network_bytes = r.alltoall_bytes + r.allgather_bytes +
                     r.transpose_bytes + r.allreduce_bytes;
  st.virtual_seconds = r.total_seconds;
  st.comm_fraction = r.comm_fraction();
  st.audits = r.sdc.audits;
  return st;
}

/// Searches and validates every source once. The first pass records each
/// search's digest; later passes, and the warm-up, must reproduce it.
void run_pass(const Instance& inst, std::uint64_t warm_digest,
              HostTrace& trace, Samples& s) {
  core::Engine& engine = *inst.engine;
  const bool first = s.pass.empty();
  Timed pass(trace, "pass");
  for (std::size_t i = 0; i < inst.sources.size(); ++i) {
    const vid_t source = inst.sources[i];
    ++s.attempted;
    try {
      Timed search(trace, "bfs.search");
      bfs::BfsOutput out = engine.run(source);
      const double secs = search.stop();

      Timed val(trace, "graph.validate");
      const graph::ValidationResult v =
          graph::validate_bfs_tree(engine.csr(), source, out.parent);
      const bool ok = v.ok && v.levels == out.level;
      s.validate.push_back(val.stop());

      const std::uint64_t d = digest(out);
      bool repeats = true;
      if (first) {
        s.digests.push_back(d);
        s.virtual_teps.push_back(
            out.report.teps(inst.built.directed_edge_count));
      } else {
        repeats = i < s.digests.size() && s.digests[i] == d;
      }
      if (i == 0 && warm_digest != d) repeats = false;
      if (!ok || !repeats) {
        ++s.failed;
        std::fprintf(stderr, "search %lld failed: %s\n",
                     static_cast<long long>(source),
                     !ok ? (v.ok ? "levels differ from the parent tree"
                                 : v.error.c_str())
                         : "virtual-time totals did not repeat");
      }
      s.search[i].push_back(secs);
      s.searches.push_back(search_stats(out.report));
    } catch (const std::exception& e) {
      ++s.failed;
      std::fprintf(stderr, "search %lld threw: %s\n",
                   static_cast<long long>(source), e.what());
    }
  }
  s.pass.push_back(pass.stop());
}

Instance run_workload(const Config& cfg, HostTrace& trace, Samples& s) {
  const std::size_t min_reps = cfg.smoke ? 2 : kMinReps;
  // A traced run leaves half of its time to the per-layer measurements.
  const double budget = cfg.traced ? cfg.seconds / 2 : cfg.seconds;
  const auto t0 = Clock::now();
  // Start another repetition only if it is expected to end within `limit`.
  const auto more = [&](const std::vector<double>& done, double limit) {
    return done.size() < min_reps ||
           (done.size() < kMaxReps && since(t0) + median(done) <= limit);
  };

  std::optional<Instance> inst;
  while (more(s.setup, kSetupShare * budget)) {
    inst.reset();  // free the previous instance before building the next
    Timed setup(trace, "setup");
    inst = set_up(*cfg.workload, cfg.seed, trace, s);
    s.setup.push_back(setup.stop());
  }
  s.search.resize(inst->sources.size());

  std::uint64_t warm_digest = 0;
  ++s.attempted;
  try {
    Timed t(trace, "warmup");
    warm_digest = digest(inst->engine->run(inst->sources.front()));
  } catch (const std::exception& e) {
    ++s.failed;
    std::fprintf(stderr, "warm-up search failed: %s\n", e.what());
  }

  while (more(s.pass, budget)) run_pass(*inst, warm_digest, trace, s);
  return std::move(*inst);
}

// ---------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::size_t samples;
};

void write_metrics(std::ostream& out, const std::vector<Metric>& metrics,
                   bool with_samples) {
  char buf[64];
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << m.unit << "\"";
    if (with_samples) out << ", \"samples\": " << m.samples;
    out << "}";
  }
  out << "}";
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t search_count(const Samples& s) {
  std::size_t n = 0;
  for (const auto& per_pass : s.search) n += per_pass.size();
  return n;
}

/// Mean over the sources of each source's median host seconds.
double search_seconds(const Samples& s) {
  double sum = 0.0;
  std::size_t sources = 0;
  for (const auto& per_pass : s.search) {
    if (per_pass.empty()) continue;
    sum += median(per_pass);
    ++sources;
  }
  return sources > 0 ? sum / static_cast<double>(sources) : 0.0;
}

std::vector<Metric> e2e_metrics(const Samples& s) {
  double inv = 0.0;
  for (double t : s.virtual_teps) inv += 1.0 / t;
  const double gteps =
      inv > 0.0 ? static_cast<double>(s.virtual_teps.size()) / inv / 1e9
                : 0.0;
  return {
      {"setup_s", median(s.setup), "s", s.setup.size()},
      {"search_s", search_seconds(s), "s", search_count(s)},
      {"total_s", median(s.setup) + median(s.pass), "s", s.pass.size()},
      {"virtual_gteps", gteps, "GTEPS", s.virtual_teps.size()},
      {"peak_rss_mb", peak_rss_mib(), "MiB", 1},
  };
}

// ---------------------------------------------------------------------
// Per-layer measurements for the traced run.

struct WidestLevel {
  level_t level = 0;
  std::vector<level_t> levels;  // reference distances from the source
  std::vector<vid_t> frontier;  // ascending
};

WidestLevel widest_level(const graph::CsrGraph& g, vid_t source) {
  WidestLevel wl;
  wl.levels = graph::reference_levels(g, source);
  std::vector<vid_t> width;
  for (level_t l : wl.levels) {
    if (l < 0) continue;
    if (static_cast<std::size_t>(l) >= width.size()) width.resize(l + 1, 0);
    ++width[static_cast<std::size_t>(l)];
  }
  wl.level = static_cast<level_t>(
      std::max_element(width.begin(), width.end()) - width.begin());
  for (vid_t v = 0; v < static_cast<vid_t>(wl.levels.size()); ++v) {
    if (wl.levels[static_cast<std::size_t>(v)] == wl.level) {
      wl.frontier.push_back(v);
    }
  }
  return wl;
}

template <typename Fn>
double median_of_calls(HostTrace& trace, const char* name, Fn&& fn) {
  std::vector<double> t;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    Timed timed(trace, name);
    fn();
    t.push_back(timed.stop());
  }
  return median(t);
}

/// sparse: one SpMSV per 2D block over the widest frontier, SPA back end.
double probe_spmsv_ns_per_flop(const Instance& inst, const WidestLevel& wl,
                               HostTrace& trace) {
  const vid_t n = inst.built.csr.num_vertices();
  const auto grid =
      simmpi::ProcessGrid::closest_square(inst.engine->cores_used());
  const dist::Partition2D part(inst.built.edges, n, grid);
  const dist::BlockPartition& bp = part.blocks();
  std::vector<sparse::SparseVector<vid_t>> x(
      static_cast<std::size_t>(grid.pc()));
  for (int j = 0; j < grid.pc(); ++j) {
    x[static_cast<std::size_t>(j)] = sparse::SparseVector<vid_t>(bp.size(j));
  }
  for (vid_t v : wl.frontier) {
    const int j = bp.owner(v);
    x[static_cast<std::size_t>(j)].push_back(bp.to_local(v), v);
  }
  sparse::Spa<vid_t> spa;
  eid_t flops = 0;
  const double secs = median_of_calls(trace, "sparse.spmsv", [&] {
    flops = 0;
    for (int r = 0; r < grid.ranks(); ++r) {
      sparse::SpmsvStats st;
      sparse::spmsv<vid_t>(
          part.block(r), x[static_cast<std::size_t>(grid.col_of(r))],
          [](vid_t, vid_t, vid_t parent) { return parent; },
          [](vid_t a, vid_t b) { return std::max(a, b); },
          sparse::SpmsvBackend::kSpa, &spa, &st);
      flops += st.flops;
    }
  });
  return flops > 0 ? secs * 1e9 / static_cast<double>(flops) : 0.0;
}

/// The widest level's (vertex, parent) candidates, one vector per
/// (source rank, owner rank) pair under a 1D block partition over p ranks.
std::vector<std::vector<bfs::Candidate>> widest_candidates(
    const graph::CsrGraph& g, const WidestLevel& wl,
    const dist::BlockPartition& bp) {
  const auto p = static_cast<std::size_t>(bp.parts());
  std::vector<std::vector<bfs::Candidate>> pairs(p * p);
  for (vid_t u : wl.frontier) {
    const auto src = static_cast<std::size_t>(bp.owner(u));
    for (vid_t v : g.neighbors(u)) {
      pairs[src * p + static_cast<std::size_t>(bp.owner(v))].push_back(
          bfs::Candidate{v, u});
    }
  }
  return pairs;
}

struct CodecProbe {
  double encode_ns_per_item = 0.0;
  double decode_ns_per_item = 0.0;
  bool round_trip_ok = true;
};

/// comm: sieve the widest level's candidates per owner block, then time
/// the auto codec's encode and decode of every block.
CodecProbe probe_codec(const graph::CsrGraph& g, const WidestLevel& wl,
                       const dist::BlockPartition& bp, HostTrace& trace) {
  const auto pairs = widest_candidates(g, wl, bp);
  const auto p = static_cast<std::size_t>(bp.parts());
  comm::Sieve sieve;
  sieve.reset(1, g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const level_t l = wl.levels[static_cast<std::size_t>(v)];
    if (l >= 0 && l <= wl.level) sieve.mark(0, v);
  }
  std::vector<std::vector<bfs::Candidate>> blocks(p);
  std::size_t items = 0;
  for (std::size_t dst = 0; dst < p; ++dst) {
    for (std::size_t src = 0; src < p; ++src) {
      const auto& pr = pairs[src * p + dst];
      blocks[dst].insert(blocks[dst].end(), pr.begin(), pr.end());
    }
    comm::sieve_and_dedup(sieve, 0, blocks[dst], true);
    items += blocks[dst].size();
  }
  std::vector<std::vector<std::uint8_t>> wire(p);
  const double enc = median_of_calls(trace, "comm.encode", [&] {
    for (std::size_t b = 0; b < p; ++b) {
      wire[b].clear();
      comm::encode_candidates<bfs::Candidate>(blocks[b], comm::WireFormat::kAuto,
                                              wire[b], nullptr);
    }
  });
  std::vector<bfs::Candidate> decoded;
  CodecProbe probe;
  const double dec = median_of_calls(trace, "comm.decode", [&] {
    for (std::size_t b = 0; b < p; ++b) {
      decoded.clear();
      comm::decode_candidate_stream<bfs::Candidate>(wire[b].data(),
                                                    wire[b].size(), decoded);
      if (decoded.size() != blocks[b].size() ||
          !std::equal(decoded.begin(), decoded.end(), blocks[b].begin(),
                      [](const bfs::Candidate& a, const bfs::Candidate& c) {
                        return a.vertex == c.vertex && a.parent == c.parent;
                      })) {
        probe.round_trip_ok = false;
      }
    }
  });
  const double denom = static_cast<double>(std::max<std::size_t>(items, 1));
  probe.encode_ns_per_item = enc * 1e9 / denom;
  probe.decode_ns_per_item = dec * 1e9 / denom;
  return probe;
}

/// simmpi: one world alltoallv of the widest level's raw candidates.
double probe_alltoallv_ms(const graph::CsrGraph& g, const WidestLevel& wl,
                          const dist::BlockPartition& bp, HostTrace& trace,
                          bool& conserved) {
  const auto pairs = widest_candidates(g, wl, bp);
  const int p = bp.parts();
  const auto up = static_cast<std::size_t>(p);
  auto send = simmpi::FlatExchange<bfs::Candidate>::sized(up);
  std::size_t sent = 0;
  for (std::size_t src = 0; src < up; ++src) {
    for (std::size_t dst = 0; dst < up; ++dst) {
      const auto& pr = pairs[src * up + dst];
      send.data[src].insert(send.data[src].end(), pr.begin(), pr.end());
      send.counts[src][dst] = static_cast<std::int64_t>(pr.size());
      sent += pr.size();
    }
  }
  std::vector<int> world(up);
  std::iota(world.begin(), world.end(), 0);
  simmpi::Cluster cluster(p, model::hopper());
  std::vector<double> t;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    auto copy = send;
    Timed timed(trace, "simmpi.alltoallv");
    const auto recv = simmpi::alltoallv(cluster, world, std::move(copy));
    t.push_back(timed.stop());
    std::size_t got = 0;
    for (const auto& d : recv.data) got += d.size();
    if (got != sent) conserved = false;
  }
  return median(t) * 1e3;
}

void set_threads(int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

/// Summed host seconds of the same searches on side a and side b.
struct PairTimes {
  double a = 0.0;
  double b = 0.0;
};

/// Runs each source on `a`, then on `b` between enter_b() and leave_b(),
/// alternating so drift in the host clock hits both sides alike; check
/// sees both outputs.
template <typename EnterB, typename LeaveB, typename Check>
PairTimes alternate(core::Engine& a, core::Engine& b,
                    const std::vector<vid_t>& sources, HostTrace& trace,
                    const char* name, EnterB enter_b, LeaveB leave_b,
                    Check check) {
  PairTimes pt;
  for (vid_t source : sources) {
    Timed ta(trace, name);
    const bfs::BfsOutput out_a = a.run(source);
    pt.a += ta.stop();
    enter_b();
    Timed tb(trace, name);
    const bfs::BfsOutput out_b = b.run(source);
    pt.b += tb.stop();
    leave_b();
    check(source, out_a, out_b);
  }
  return pt;
}

/// Registry and tracer counts summed over the observed searches.
struct LayerCounts {
  double checkpoints = 0.0;
  double collective_calls = 0.0;
  double trace_spans = 0.0;
  double wire_before = 0.0;
  double wire_after = 0.0;
  double dropped = 0.0;
};

std::vector<Metric> layer_metrics(const Config& cfg, Samples& s,
                                  Instance& inst, HostTrace& trace,
                                  double loop_wall, std::size_t loop_spans) {
  const Workload& w = *cfg.workload;
  core::Engine& base = *inst.engine;
  const vid_t n = inst.built.csr.num_vertices();
  const int k = cfg.smoke ? 2 : kDiffSources;
  const std::vector<vid_t> diff_sources(
      inst.sources.begin(),
      inst.sources.begin() +
          std::min<std::ptrdiff_t>(k, static_cast<std::ptrdiff_t>(
                                          inst.sources.size())));
  const auto expect = [&](vid_t source, const bfs::BfsOutput& out,
                          const char* what) {
    const auto it = std::find(inst.sources.begin(), inst.sources.end(),
                              source);
    const auto i = static_cast<std::size_t>(it - inst.sources.begin());
    ++s.attempted;
    if (i >= s.digests.size() || s.digests[i] != digest(out)) {
      ++s.failed;
      std::fprintf(stderr, "%s changed the search from %lld\n", what,
                   static_cast<long long>(source));
    }
  };
  const auto none = [] {};
  const auto no_check = [](vid_t, const bfs::BfsOutput&,
                           const bfs::BfsOutput&) {};

  // D: host threads. Rank phases on N threads vs 1; totals must match.
  const PairTimes threads = alternate(
      base, base, diff_sources, trace, "simmpi.threads",
      [] { set_threads(1); }, [&] { set_threads(cfg.threads); },
      [&](vid_t src, const bfs::BfsOutput&, const bfs::BfsOutput& one) {
        expect(src, one, "one host thread");
      });

  // D: one option flipped on a fresh engine, warmed up once.
  const auto flipped = [&](auto&& flip) {
    core::EngineOptions o = engine_options(w);
    flip(o);
    auto e = std::make_unique<core::Engine>(inst.built.edges, n, o);
    e->run(diff_sources.front());
    return e;
  };
  const auto overhead = [](const PairTimes& t, bool base_has_option) {
    const double on = base_has_option ? t.a : t.b;
    const double off = base_has_option ? t.b : t.a;
    return off > 0.0 ? on / off - 1.0 : 0.0;
  };

  auto ckpt = flipped([&](core::EngineOptions& o) {
    o.recover.checkpoint_every = w.checkpoint_every > 0 ? 0 : 1;
  });
  const PairTimes ckpt_t = alternate(base, *ckpt, diff_sources, trace,
                                     "recover.differential", none, none,
                                     no_check);
  ckpt.reset();

  auto audit = flipped([&](core::EngineOptions& o) {
    o.recover.audit_every = w.audit_every > 0 ? 0 : 4;
  });
  const PairTimes audit_t = alternate(base, *audit, diff_sources, trace,
                                      "bfs.audit_differential", none, none,
                                      no_check);
  audit.reset();

  // D + C: observers flipped; the observed engine's registry and tracer
  // give the counts, and both engines must reproduce the passes' totals.
  auto obs_engine = flipped([&](core::EngineOptions& o) {
    o.trace = o.metrics = o.atlas = !w.observers;
  });
  core::Engine& observed = w.observers ? base : *obs_engine;
  core::Engine& unobserved = w.observers ? *obs_engine : base;
  LayerCounts c;
  const auto harvest = [&] {
    const obs::MetricsRegistry& m = *observed.metrics();
    const auto counter = [&](const char* key) {
      const auto it = m.counters().find(key);
      return it == m.counters().end() ? 0.0
                                      : static_cast<double>(it->second);
    };
    c.checkpoints += counter("recover.checkpoints");
    c.wire_before += counter("wire.bytes_before");
    c.wire_after += counter("wire.bytes_after");
    c.dropped += counter("wire.candidates_dropped");
    for (const auto& [key, value] : m.counters()) {
      if (key.rfind("comm.calls.", 0) == 0) {
        c.collective_calls += static_cast<double>(value);
      }
    }
    c.trace_spans += static_cast<double>(observed.tracer()->total_spans());
  };
  // The observed engine runs second so its registry, which holds only the
  // latest search, describes this source when harvested.
  const PairTimes obs_t = alternate(
      unobserved, observed, diff_sources, trace, "obs.differential", none,
      harvest,
      [&](vid_t src, const bfs::BfsOutput& off, const bfs::BfsOutput& on) {
        expect(src, off, "detaching observers");
        expect(src, on, "attaching observers");
      });
  obs_engine.reset();

  // P: the widest level of the first source through single layers.
  const WidestLevel wl = widest_level(inst.built.csr, inst.sources.front());
  const double spmsv = probe_spmsv_ns_per_flop(inst, wl, trace);
  const dist::BlockPartition bp(n, base.cores_used());
  const CodecProbe codec = probe_codec(inst.built.csr, wl, bp, trace);
  bool conserved = true;
  const double a2a_ms =
      probe_alltoallv_ms(inst.built.csr, wl, bp, trace, conserved);
  s.attempted += 2;
  if (!codec.round_trip_ok) {
    ++s.failed;
    std::fprintf(stderr, "codec probe: decode did not reproduce the input\n");
  }
  if (!conserved) {
    ++s.failed;
    std::fprintf(stderr, "alltoallv probe: items were not conserved\n");
  }

  // Cost of recording one host span, measured here, times the spans the
  // traced loop recorded, as a share of the loop's wall time.
  double span_cost = 0.0;
  {
    HostTrace scratch(true);
    constexpr int kCalib = 20000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalib; ++i) Timed t(scratch, "calibrate");
    span_cost = since(t0) / kCalib;
  }

  double search_sum = 0.0;
  for (const auto& per_pass : s.search) {
    search_sum += std::accumulate(per_pass.begin(), per_pass.end(), 0.0);
  }
  double edges = 0.0;
  double levels = 0.0;
  double spa = 0.0;
  double heap = 0.0;
  double net = 0.0;
  double virt = 0.0;
  double comm_frac = 0.0;
  double audits = 0.0;
  for (const SearchStats& st : s.searches) {
    edges += static_cast<double>(st.edges);
    levels += static_cast<double>(st.levels);
    spa += static_cast<double>(st.spa_calls);
    heap += static_cast<double>(st.heap_calls);
    net += static_cast<double>(st.network_bytes);
    virt += st.virtual_seconds;
    comm_frac += st.comm_fraction;
    audits += static_cast<double>(st.audits);
  }
  const auto ns = static_cast<double>(std::max<std::size_t>(
      s.searches.size(), 1));
  const auto kd = static_cast<double>(diff_sources.size());
  const auto stage = [&](const char* name) {
    const auto it = s.stage.find(name);
    return Metric{name, it == s.stage.end() ? 0.0 : median(it->second), "s",
                  it == s.stage.end() ? 0 : it->second.size()};
  };
  const std::size_t kn = diff_sources.size();
  return {
      stage("graph.generate_s"),
      stage("graph.build_s"),
      stage("graph.components_s"),
      stage("core.engine_init_s"),
      stage("core.csr_s"),
      {"graph.validate_s_p50", median(s.validate), "s", s.validate.size()},
      {"bfs.levels_per_search", levels / ns, "count", s.searches.size()},
      {"bfs.edges_scanned_per_search", edges / ns, "count",
       s.searches.size()},
      {"bfs.host_ns_per_edge", edges > 0 ? search_sum * 1e9 / edges : 0.0,
       "ns", s.searches.size()},
      {"bfs.host_ms_per_level", levels > 0 ? search_sum * 1e3 / levels : 0.0,
       "ms", s.searches.size()},
      {"sparse.spmsv_ns_per_flop", spmsv, "ns", kProbeReps},
      {"sparse.spa_call_share", spa + heap > 0 ? spa / (spa + heap) : 0.0,
       "ratio", s.searches.size()},
      {"comm.encode_ns_per_item", codec.encode_ns_per_item, "ns",
       kProbeReps},
      {"comm.decode_ns_per_item", codec.decode_ns_per_item, "ns",
       kProbeReps},
      {"comm.wire_ratio", c.wire_before > 0 ? c.wire_after / c.wire_before
                                            : 1.0,
       "ratio", kn},
      {"comm.sieve_drop_share",
       c.wire_before > 0
           ? c.dropped * sizeof(bfs::Candidate) / c.wire_before
           : 0.0,
       "ratio", kn},
      {"simmpi.rank_phase_speedup", threads.a > 0 ? threads.b / threads.a
                                                  : 0.0,
       "x", kn},
      {"simmpi.alltoallv_ms", a2a_ms, "ms", kProbeReps},
      {"simmpi.network_bytes_per_search", net / ns, "bytes",
       s.searches.size()},
      {"simmpi.collective_calls_per_search", c.collective_calls / kd,
       "count", kn},
      {"recover.checkpoints_per_search", c.checkpoints / kd, "count", kn},
      {"recover.overhead_frac",
       overhead(ckpt_t, w.checkpoint_every > 0), "ratio", kn},
      {"bfs.audits_per_search", audits / ns, "count", s.searches.size()},
      {"bfs.audit_overhead_frac", overhead(audit_t, w.audit_every > 0),
       "ratio", kn},
      {"obs.overhead_frac", obs_t.a > 0 ? obs_t.b / obs_t.a - 1.0 : 0.0,
       "ratio", kn},
      {"obs.trace_spans_per_search", c.trace_spans / kd, "count", kn},
      {"model.virtual_search_s", virt / ns, "s", s.searches.size()},
      {"model.virtual_comm_frac", comm_frac / ns, "ratio",
       s.searches.size()},
      {"trace_overhead_frac",
       loop_wall > 0 ? span_cost * static_cast<double>(loop_spans) / loop_wall
                     : 0.0,
       "ratio", loop_spans},
  };
}

// ---------------------------------------------------------------------

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "e2e_bench: %s\n"
               "usage: e2e_bench --workload NAME [--seed N] [--seconds S]\n"
               "                 [--trace 0|1] [--threads T] [--smoke]\n"
               "                 [--out FILE] [--trace-out FILE]\n"
               "       e2e_bench --list\n",
               msg);
  std::exit(2);
}

Config parse(int argc, char** argv) {
  Config cfg;
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  cfg.threads = std::min(4, nproc);
  std::string name;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      for (const Workload& w : workloads()) std::printf("%s\n", w.name);
      std::exit(0);
    }
    if (arg == "--smoke") {
      cfg.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        name = value;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (arg == "--trace") {
        cfg.traced = std::stoi(value) != 0;
      } else if (arg == "--threads") {
        cfg.threads = std::stoi(value);
      } else if (arg == "--out") {
        cfg.out_path = value;
      } else if (arg == "--trace-out") {
        cfg.trace_path = value;
      } else {
        usage(("unknown option " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  for (const Workload& w : workloads()) {
    if (name == w.name) cfg.workload = &w;
  }
  if (cfg.workload == nullptr) usage(("unknown workload '" + name + "'").c_str());
  if (cfg.threads < 1 || cfg.threads > nproc) usage("--threads out of range");
  if (cfg.seconds < 0) usage("--seconds must be >= 0");
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg = parse(argc, argv);
  // One trace pid per workload, so traces of several workloads load side
  // by side (the simulator's virtual-time traces use pid 0).
  const int pid = static_cast<int>(cfg.workload - workloads().data()) + 1;
  Workload w = *cfg.workload;
  if (cfg.smoke) {
    w.log2_n = std::min(w.log2_n, 12);
    w.sources = 4;
    cfg.seconds = 0.0;
  }
  cfg.workload = &w;
  set_threads(cfg.threads);

  HostTrace trace(cfg.traced);
  std::optional<Instance> inst;
  const auto t0 = Clock::now();
  Samples s;
  try {
    inst = run_workload(cfg, trace, s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: set-up failed: %s\n", e.what());
    return 1;
  }
  const double loop_wall = since(t0);

  std::vector<Metric> metrics;
  if (cfg.traced) {
    try {
      metrics = layer_metrics(cfg, s, *inst, trace, loop_wall, trace.size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2e_bench: layer measurement failed: %s\n",
                   e.what());
      return 1;
    }
  } else {
    metrics = e2e_metrics(s);
  }
  inst.reset();

  const std::int64_t attempted = s.attempted;
  const std::int64_t failed = s.failed;
  const bool correct = failed == 0 && search_count(s) > 0;

  Fnv run_digest;
  for (std::uint64_t d : s.digests) run_digest.add(d);
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(run_digest.value()));

  std::fprintf(stderr,
               "%s seed=%llu threads=%d setups=%zu passes=%zu searches=%zu "
               "failed=%lld%s\n",
               w.name, static_cast<unsigned long long>(cfg.seed), cfg.threads,
               s.setup.size(), s.pass.size(), search_count(s),
               static_cast<long long>(failed),
               cfg.traced ? " (traced)" : "");
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-34s %14.6g %-6s (n=%zu)\n", m.name.c_str(),
                 m.value, m.unit, m.samples);
  }

  if (!cfg.out_path.empty()) {
    std::ofstream out(cfg.out_path);
    out << "{\"workload\": \"" << w.name << "\", \"seed\": " << cfg.seed
        << ", \"mode\": \"" << (cfg.traced ? "traced" : "e2e")
        << "\", \"smoke\": " << (cfg.smoke ? "true" : "false")
        << ", \"threads\": " << cfg.threads
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"seconds\": " << cfg.seconds
        << ", \"setups\": " << s.setup.size()
        << ", \"passes\": " << s.pass.size()
        << ", \"sources\": " << w.sources
        << ", \"virtual_digest\": \"" << hex
        << "\", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": ";
    write_metrics(out, metrics, true);
    out << "}\n";
    if (!out) {
      std::fprintf(stderr, "e2e_bench: cannot write %s\n",
                   cfg.out_path.c_str());
      return 1;
    }
  }
  if (cfg.traced && !cfg.trace_path.empty()) {
    std::ofstream out(cfg.trace_path);
    trace.write_chrome_json(out, pid, w.name);
    if (!out) {
      std::fprintf(stderr, "e2e_bench: cannot write %s\n",
                   cfg.trace_path.c_str());
      return 1;
    }
  }

  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": ";
  write_metrics(line, metrics, false);
  line << "}";
  std::printf("%s\n", line.str().c_str());
  return 0;
}
