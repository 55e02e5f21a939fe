#include "bfs/bfs2d.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "bfs/exchange.hpp"
#include "bfs/frontier.hpp"
#include "bfs/level_driver.hpp"
#include "comm/sieve.hpp"
#include "dist/partition2d.hpp"
#include "model/cost.hpp"
#include "obs/comm_atlas.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/comm.hpp"
#include "sparse/semirings.hpp"

namespace dbfs::bfs {

namespace {

/// `opts` with its threads per rank resolved.
core::EngineOptions as_run(core::EngineOptions opts) {
  if (opts.algorithm != core::Algorithm::kTwoDFlat &&
      opts.algorithm != core::Algorithm::kTwoDHybrid) {
    throw std::invalid_argument("Bfs2D: not a 2D algorithm");
  }
  opts.threads_per_rank = core::rank_threads(opts);
  return opts;
}

}  // namespace

struct Bfs2D::Impl final : LevelEngine {
  core::EngineOptions opts;  ///< as_run
  const graph::CsrGraph& csr;
  vid_t n;
  simmpi::ProcessGrid grid;
  dist::Partition2D part;
  dist::VectorDist vdist;
  simmpi::Cluster cluster;
  std::vector<int> world;
  std::vector<sparse::Spa<vid_t>> spa;  // per-rank persistent workspace
  // Hybrid mode: each rank's block split row-wise into t thread-local
  // DCSC pieces, exactly as the paper's Fig 2 describes. The simulator
  // executes the pieces sequentially (threading is priced by the model),
  // but the data structure and merge path are the real ones.
  std::vector<std::vector<sparse::DcscMatrix>> thread_pieces;
  // Sender-side visited sieve for the fold exchanges (kRaw leaves every
  // exchange on the legacy path).
  comm::Sieve sieve;
  LevelDriver driver;
  /// Independent replica of the direction-heuristic scalars, updated by
  /// the same legitimate operations as the live ones (never blind-copied
  /// from them), so the auditor's dirop-state comparison catches an
  /// at-rest flip of the live scalars. [m_u, m_f, bottom_up].
  std::array<std::uint64_t, 3> dirop_shadow{};
  std::array<std::uint64_t, 3> dirop_live{};  ///< audit view of the live ones

  /// Direction optimization (opts.direction != kTopDown). Under the full
  /// storage it requires, `csr.degree(v)` is exactly the stored nonzeros
  /// of v's column over the blocks — the adjacencies top-down would scan
  /// for v — so the m_f allreduce and the m_u ledger below price the
  /// same work the engine actually does, under any grid a shrink leaves.
  /// The m_u/m_f/direction scalars are the heuristic's carried state:
  /// snapshotted with every checkpoint and restored on recovery, so a
  /// replay re-takes identical decisions.
  eid_t dirop_m_u = 0;           ///< m_u: degree-sum not yet frontier-charged
  eid_t dirop_m_f = 0;           ///< m_f of the frontier entering this level
  bool dirop_bottom_up = false;  ///< direction the previous level ran in
  double dirop_alpha_eff = 0.0;  ///< resolved threshold (option or model)
  double dirop_beta_eff = 0.0;

  /// Compressed expand round over one processor column: each rank's
  /// sorted frontier piece ships as an encoded block; the concatenation
  /// of blocks decodes back to f_{C_j} in the same order the raw
  /// allgatherv would produce. (The sieve does not apply here — the
  /// expand payload is the deduplicated new frontier by construction.)
  std::vector<vid_t> wire_expand(std::span<const int> col_group,
                                 std::vector<std::vector<vid_t>> pieces,
                                 WireTally& wl) {
    const std::size_t g = col_group.size();
    const int t = opts.threads_per_rank;
    std::vector<std::vector<std::uint8_t>> enc(g);
    std::vector<double> codec_costs(g, 0.0);
    std::vector<WireTally> senders(g);
    cluster.for_each_rank(col_group, [&](std::size_t i) {
      senders[i].pre_bytes = pieces[i].size() * sizeof(vid_t);
      comm::encode_vertex_list(pieces[i], opts.wire_format, enc[i],
                               &senders[i].stats);
      codec_costs[i] = model::cost_wire_codec(
          cluster.machine(),
          static_cast<std::size_t>(senders[i].stats.raw_bytes),
          static_cast<std::size_t>(senders[i].stats.encoded_bytes), t);
    });
    for (const WireTally& sender : senders) wl.merge(sender);
    cluster.set_compute_phase("wire-encode");
    charge_smoothed(cluster, col_group, codec_costs, opts.load_smoothing);

    auto bytes = simmpi::checked_allgatherv(cluster, col_group,
                                            std::move(enc), "2d-expand",
                                            opts.allgather_algo);

    std::vector<vid_t> gathered;
    comm::decode_vertex_stream(bytes.data(), bytes.size(), gathered);
    // Every rank in the column decodes the same concatenated result.
    const double decode_cost = model::cost_wire_codec(
        cluster.machine(), gathered.size() * sizeof(vid_t), bytes.size(), t);
    std::fill(codec_costs.begin(), codec_costs.end(), decode_cost);
    cluster.set_compute_phase("wire-decode");
    charge_smoothed(cluster, col_group, codec_costs, opts.load_smoothing);
    return gathered;
  }

  Impl(const graph::CsrGraph& graph, const core::EngineOptions& options,
       obs::Observers observers)
      : opts(as_run(options)),
        csr(graph),
        n(graph.num_vertices()),
        grid(simmpi::ProcessGrid::closest_square(opts.cores,
                                                 opts.threads_per_rank)),
        part(graph, grid, opts.triangular_storage),
        vdist(n, grid, opts.vector_dist),
        cluster(grid.ranks(), opts.machine, opts.threads_per_rank),
        world(static_cast<std::size_t>(grid.ranks())),
        spa(static_cast<std::size_t>(grid.ranks())),
        driver(*this, cluster, world, n, opts.recover, "2d-level") {
    std::iota(world.begin(), world.end(), 0);
    cluster.set_fault_plan(opts.faults);
    // The pr×pc grid lets the atlas classify expand/fold bytes as
    // row/column-subcommunicator traffic (the 2D locality split).
    cluster.attach(observers, grid.pr(), grid.pc());
    rebuild_thread_pieces();
  }

  void rebuild_thread_pieces() {
    if (opts.threads_per_rank <= 1) return;
    thread_pieces.assign(static_cast<std::size_t>(grid.ranks()), {});
    for (int r = 0; r < grid.ranks(); ++r) {
      thread_pieces[static_cast<std::size_t>(r)] =
          part.block(r).split_rowwise(opts.threads_per_rank);
    }
  }

  bool sieving() const {
    return opts.vector_dist != dist::VectorDistKind::kDiagonal &&
           comm::wire_sieves(opts.wire_format);
  }

  bool dirop_on() const { return opts.direction != DirectionMode::kTopDown; }

  /// The live heuristic scalars in the replica's layout.
  std::array<std::uint64_t, 3> dirop_state() const {
    return {static_cast<std::uint64_t>(dirop_m_u),
            static_cast<std::uint64_t>(dirop_m_f),
            dirop_bottom_up ? std::uint64_t{1} : std::uint64_t{0}};
  }

  // ---- LevelEngine -----------------------------------------------------

  /// One level of Algorithm 3 (see LevelEngine::step).
  vid_t step(BfsOutput& out, std::vector<std::vector<vid_t>>& fs,
             level_t level, LevelStats& stats) override;

  int owner(vid_t v) const override { return vdist.owner_rank(v); }

  comm::Sieve* visited_sieve() override {
    return sieving() ? &sieve : nullptr;
  }

  std::pair<int, int> shape() const override {
    return {grid.pr(), grid.pc()};
  }

  /// Fold to the largest square grid fitting in the surviving ranks (the
  /// transpose exchanges require a square grid, so a single death can
  /// retire a whole grid remainder, e.g. 4x4 -> 3x3) and re-partition.
  bool shrink() override {
    const int survivors = grid.ranks() - 1;
    if (survivors < 1) return false;
    const int t = opts.threads_per_rank;
    grid = simmpi::ProcessGrid::closest_square(survivors * t, t);
    part = dist::Partition2D(csr, grid, opts.triangular_storage);
    vdist = dist::VectorDist(n, grid, opts.vector_dist);
    spa.assign(static_cast<std::size_t>(grid.ranks()), {});
    rebuild_thread_pieces();
    return true;
  }

  vid_t shard_size(int rank) const override {
    return vdist.piece_size(grid.row_of(rank), grid.col_of(rank));
  }

  /// The m_u/m_f/direction scalars ride in every snapshot, so a replay
  /// re-evaluates the same switch predicate on the same inputs and takes
  /// the same directions as the lost window.
  void save_dirop(recover::Checkpoint& snap) const override {
    snap.dirop_frontier_edges = dirop_m_f;
    snap.dirop_unexplored_edges = dirop_m_u;
    snap.dirop_bottom_up = dirop_bottom_up;
  }

  void load_dirop(const recover::Checkpoint& snap) override {
    if (!snap.level.empty()) {
      dirop_m_f = snap.dirop_frontier_edges;
      dirop_m_u = snap.dirop_unexplored_edges;
      dirop_bottom_up = snap.dirop_bottom_up;
    } else if (dirop_on()) {
      // The run's initial conditions: nothing explored yet, and the
      // frontier is the source alone.
      dirop_m_u = csr.num_edges();
      dirop_m_f = csr.degree(driver.source());
      dirop_bottom_up = false;
    }
    // The one place the replica may copy the live values: both were
    // just loaded from a verified snapshot or the initial conditions.
    dirop_shadow = dirop_state();
  }

  /// Flip one low bit of the live m_u ledger; the independent replica
  /// keeps the true value, so the next audit's dirop-state comparison
  /// catches the drift. A no-op unless the heuristic carries state.
  bool flip_dirop(std::uint64_t shape) override {
    if (!dirop_on()) return false;
    dirop_m_u ^= static_cast<eid_t>(1) << ((shape >> 50) % 8);
    return true;
  }

  void audit_dirop(SdcAuditInputs& in) override {
    if (!dirop_on()) return;
    dirop_live = dirop_state();
    in.dirop_state = dirop_live;
    in.dirop_shadow = dirop_shadow;
  }

  /// One bottom-up level's exchanges and local scan (the direction-
  /// optimized pull step): row-group frontier/visited allgather, pairwise
  /// completeness swap, early-exit probe scan over the stored blocks.
  /// Discovered parents land in `mirrored` — the transpose partner's row
  /// range — so the shared fold path finishes the level unchanged.
  void bottom_up_level(const BfsOutput& out,
                       std::vector<std::vector<vid_t>>& fs,
                       std::vector<std::vector<Candidate>>& mirrored,
                       std::vector<eid_t>& flops, WireTally& wl);
};

const char* to_string(DirectionMode mode) {
  switch (mode) {
    case DirectionMode::kTopDown:
      return "topdown";
    case DirectionMode::kBottomUp:
      return "bottomup";
    case DirectionMode::kHybrid:
      return "hybrid";
  }
  return "?";
}

DirectionMode parse_direction_mode(const std::string& name) {
  if (name == "topdown") return DirectionMode::kTopDown;
  if (name == "bottomup") return DirectionMode::kBottomUp;
  if (name == "hybrid") return DirectionMode::kHybrid;
  throw std::invalid_argument("unknown direction mode: " + name);
}

Bfs2D::Bfs2D(const graph::CsrGraph& csr, const core::EngineOptions& opts,
             obs::Observers observers)
    : impl_(std::make_unique<Impl>(csr, opts, observers)) {
  if (csr.num_vertices() < 1) {
    throw std::invalid_argument("Bfs2D: empty graph");
  }
  if (impl_->opts.triangular_storage &&
      impl_->opts.vector_dist == dist::VectorDistKind::kDiagonal) {
    throw std::invalid_argument(
        "Bfs2D: triangular storage requires the 2D vector distribution");
  }
  if (impl_->opts.direction != DirectionMode::kTopDown) {
    // The bottom-up probe scan needs every stored adjacency direction in
    // the blocks (the wedge alone cannot answer "does any frontier vertex
    // neighbor me"), and the diagonal baseline exists only to reproduce
    // the Fig 4 bottleneck on the legacy path.
    if (impl_->opts.triangular_storage) {
      throw std::invalid_argument(
          "Bfs2D: direction optimization requires full (non-triangular) "
          "storage");
    }
    if (impl_->opts.vector_dist == dist::VectorDistKind::kDiagonal) {
      throw std::invalid_argument(
          "Bfs2D: direction optimization requires a non-diagonal vector "
          "distribution");
    }
  }
}

Bfs2D::~Bfs2D() = default;

const simmpi::ProcessGrid& Bfs2D::grid() const { return impl_->grid; }

int Bfs2D::cores_used() const {
  return impl_->grid.ranks() * impl_->opts.threads_per_rank;
}

BfsOutput Bfs2D::run(vid_t source) {
  Impl& im = *impl_;
  if (source < 0 || source >= im.n) {
    throw std::out_of_range("Bfs2D: source out of range");
  }
  const bool diagonal =
      im.opts.vector_dist == dist::VectorDistKind::kDiagonal;
  BfsOutput out;
  out.report.algorithm =
      std::string("2d") +
      (im.opts.threads_per_rank > 1 ? "-hybrid" : "-flat") +
      (diagonal ? "-diagvec" : "") +
      (im.opts.triangular_storage ? "-tri" : "") +
      (im.opts.direction == DirectionMode::kHybrid ? "-dirop" : "") +
      (im.opts.direction == DirectionMode::kBottomUp ? "-bottomup" : "");

  const bool dirop_on = im.dirop_on();
  if (dirop_on) {
    im.dirop_alpha_eff = im.opts.alpha > 0.0
                             ? im.opts.alpha
                             : model::dirop_alpha(im.cluster.machine());
    im.dirop_beta_eff = im.opts.beta > 0.0
                            ? im.opts.beta
                            : model::dirop_beta(im.cluster.machine());
    out.report.dirop.enabled = true;
    out.report.dirop.mode = to_string(im.opts.direction);
    out.report.dirop.alpha = im.dirop_alpha_eff;
    out.report.dirop.beta = im.dirop_beta_eff;
  }

  im.driver.run(source, out);

  if (dirop_on) {
    // Tally from the surviving per-level stats (recovery rollbacks trim
    // report.levels, so replayed windows are counted exactly once here;
    // the wire-byte fields follow the traffic meter's keep-everything
    // convention instead and accumulate during the level steps).
    DiropReport& d = out.report.dirop;
    bool prev = false;
    for (const LevelStats& l : out.report.levels) {
      if (l.bottom_up) {
        ++d.bottom_up_levels;
        d.bottom_up_edges += l.edges_scanned;
      } else {
        ++d.top_down_levels;
        d.top_down_edges += l.edges_scanned;
      }
      if (l.level > 0 && l.bottom_up != prev) ++d.switches;
      prev = l.bottom_up;
    }
  }
  return out;
}

vid_t Bfs2D::Impl::step(BfsOutput& out, std::vector<std::vector<vid_t>>& fs,
                        level_t level, LevelStats& stats) {
  // Grid-shaped locals are re-derived every level: a shrink recovery
  // replaces the grid, partition, and cluster between levels.
  Impl& im = *this;
  const int s = im.grid.pr();
  const int p = im.grid.ranks();
  const int t = im.opts.threads_per_rank;
  const bool diagonal =
      im.opts.vector_dist == dist::VectorDistKind::kDiagonal;
  const auto& blocks = im.part.blocks();
  const vid_t global_frontier = stats.frontier;

  // The diagonal-vector baseline keeps its legacy broadcast/gatherv path
  // (it exists to reproduce Fig 4's bottleneck, not to be optimized).
  const bool sieving = im.sieving();
  const bool wire_expand_on =
      !diagonal && comm::wire_compresses(im.opts.wire_format);
  const bool dirop_on = im.dirop_on();
  SdcShadow* const shadow = im.driver.shadow();

  // ---- Direction decision (Beamer's alpha-beta rule, priced per the
  // machine model's thresholds when none were given). Every input is
  // globally identical: global_frontier comes from the "level-sync"
  // allreduce, m_f from the "dirop-sync" allreduce of the owners'
  // degree sums below, and m_u from the same subtraction replayed on
  // every rank — so all ranks evaluate the same predicate and switch
  // in lockstep, and a recovery replay (which restores m_u and the
  // previous direction from the checkpoint) re-takes the same branch.
  bool bottom_up = false;
  if (dirop_on) {
    std::vector<std::int64_t> contrib(static_cast<std::size_t>(p), 0);
    for (int r = 0; r < p; ++r) {
      for (vid_t v : fs[static_cast<std::size_t>(r)]) {
        contrib[static_cast<std::size_t>(r)] +=
            static_cast<std::int64_t>(im.csr.degree(v));
      }
    }
    im.dirop_m_f = static_cast<eid_t>(simmpi::allreduce_sum<std::int64_t>(
        im.cluster, im.world, contrib, "dirop-sync"));

    DiropDecision decision{true, DiropRationale::kForced};
    if (im.opts.direction != DirectionMode::kBottomUp) {
      decision = beamer_switch(im.dirop_bottom_up, global_frontier, n,
                               im.dirop_m_f, im.dirop_m_u,
                               im.dirop_alpha_eff, im.dirop_beta_eff);
    }
    bottom_up = decision.bottom_up;
    const DiropRationale rationale = decision.rationale;
    stats.bottom_up = bottom_up;
    stats.frontier_edges = im.dirop_m_f;
    stats.unexplored_edges = im.dirop_m_u;
    stats.dirop_rationale = static_cast<int>(rationale);
    im.dirop_bottom_up = bottom_up;
    im.dirop_m_u -= std::min(im.dirop_m_u, im.dirop_m_f);
    // The replica applies the same operations on its own ledger (never
    // copying the live m_u), so an at-rest flip of the live scalar keeps
    // the two apart for the next audit to catch.
    im.dirop_shadow[1] = static_cast<std::uint64_t>(im.dirop_m_f);
    im.dirop_shadow[2] = bottom_up ? 1 : 0;
    im.dirop_shadow[0] -= std::min(im.dirop_shadow[0], im.dirop_shadow[1]);
    if (obs::FlightRecorder* flight = im.cluster.flight()) {
      flight
          ->append("dirop", to_string(rationale),
                   im.cluster.clocks().max_now(), -1,
                   static_cast<int>(stats.level))
          .set("frontier", static_cast<double>(global_frontier))
          .set("frontier_edges", static_cast<double>(stats.frontier_edges))
          .set("unexplored_edges",
               static_cast<double>(stats.unexplored_edges))
          .set("bottom_up", bottom_up ? 1.0 : 0.0);
    }
  }

  // ---- Expand / local step. A bottom-up level replaces the expand
  // and the forward SpMSV with the pull formulation; its discovered
  // parents land in `mirrored` and ride the shared fold path below.
  WireTally wire_level;
  std::vector<sparse::SparseVector<vid_t>> partials(
      static_cast<std::size_t>(p));
  std::vector<double> spmsv_costs(static_cast<std::size_t>(p), 0.0);
  std::vector<eid_t> flops(static_cast<std::size_t>(p), 0);
  std::vector<std::int64_t> spa_calls(static_cast<std::size_t>(p), 0);
  std::vector<std::int64_t> heap_calls(static_cast<std::size_t>(p), 0);
  std::vector<std::vector<Candidate>> mirrored(static_cast<std::size_t>(p));
  std::vector<std::vector<vid_t>> gathered(static_cast<std::size_t>(s));
  if (bottom_up) {
    im.bottom_up_level(out, fs, mirrored, flops, wire_level);
  } else if (!diagonal) {
    // TransposeVector (line 5), then Allgatherv over columns (line 6).
    auto transposed =
        simmpi::transpose_exchange(im.cluster, im.grid, std::move(fs));
    for (int j = 0; j < s; ++j) {
      std::vector<std::vector<vid_t>> pieces;
      pieces.reserve(static_cast<std::size_t>(s));
      for (int i = 0; i < s; ++i) {
        // After the transpose, P(i,j) holds sub-piece i of range R_j;
        // concatenating in i order yields f_{C_j} sorted.
        pieces.push_back(std::move(
            transposed[static_cast<std::size_t>(im.grid.rank_of(i, j))]));
      }
      // Checksum-verified when the fault plan corrupts payloads: a
      // mangled frontier piece is detected and re-gathered before any
      // rank consumes it.
      gathered[static_cast<std::size_t>(j)] =
          wire_expand_on
              ? im.wire_expand(im.grid.col_group(j), std::move(pieces),
                               wire_level)
              : simmpi::checked_allgatherv(
                    im.cluster, im.grid.col_group(j), std::move(pieces),
                    "2d-expand", im.opts.allgather_algo);
    }
    fs.assign(static_cast<std::size_t>(p), {});
  } else {
    // Diagonal distribution: P(j,j) owns all of R_j; broadcast it down
    // processor column j.
    for (int j = 0; j < s; ++j) {
      gathered[static_cast<std::size_t>(j)] = simmpi::broadcast(
          im.cluster, im.grid.col_group(j), static_cast<std::size_t>(j),
          fs[static_cast<std::size_t>(im.grid.rank_of(j, j))],
          "2d-expand");
    }
    for (auto& piece : fs) piece.clear();
  }

  // ---- Local SpMSV (line 7): t_i = A_ij ⊗ f_{C_j} on (select, max).
  // Skipped wholesale on bottom-up levels: running it on the empty
  // gathered frontier would still pay thread barriers and skew the
  // spmsv.* back-end counters.
  if (!bottom_up) {
    im.cluster.for_each_rank([&](int r) {
      const auto ri = static_cast<std::size_t>(r);
      const int i = im.grid.row_of(r);
      const int j = im.grid.col_of(r);
      const vid_t col_base = blocks.begin(j);
      const auto& column_frontier = gathered[static_cast<std::size_t>(j)];

      std::vector<sparse::SvEntry<vid_t>> x_entries;
      x_entries.reserve(column_frontier.size());
      for (vid_t gv : column_frontier) {
        x_entries.push_back(sparse::SvEntry<vid_t>{gv - col_base, gv});
      }
      auto x = sparse::SparseVector<vid_t>::from_sorted(
          blocks.size(j), std::move(x_entries));

      auto mul = sparse::BfsParentSemiring{col_base}.multiply();
      auto comb = sparse::BfsParentSemiring::combine();
      sparse::SpmsvStats st;
      if (t > 1) {
        // Fig 2: one SpMSV per thread-local row piece; the pieces cover
        // disjoint ascending row ranges, so concatenation (with re-based
        // row ids) reassembles the rank's sorted output.
        const auto& pieces = im.thread_pieces[ri];
        const vid_t rows_per =
            std::max<vid_t>(1, im.part.block(r).nrows() / t);
        std::vector<sparse::SvEntry<vid_t>> merged;
        st.flops = 0;
        for (std::size_t piece = 0; piece < pieces.size(); ++piece) {
          sparse::SpmsvStats piece_st;
          auto y = sparse::spmsv<vid_t>(pieces[piece], x, mul, comb,
                                        im.opts.backend, &im.spa[ri],
                                        &piece_st);
          const vid_t base = static_cast<vid_t>(piece) * rows_per;
          for (const auto& e : y.entries()) {
            merged.push_back(
                sparse::SvEntry<vid_t>{base + e.index, e.value});
          }
          st.flops += piece_st.flops;
          if (piece_st.used == sparse::SpmsvBackend::kSpa) {
            ++spa_calls[ri];
          } else {
            ++heap_calls[ri];
          }
        }
        st.output_nnz = static_cast<vid_t>(merged.size());
        partials[ri] = sparse::SparseVector<vid_t>::from_sorted(
            im.part.block(r).nrows(), std::move(merged));
      } else {
        partials[ri] = sparse::spmsv<vid_t>(im.part.block(r), x, mul,
                                            comb, im.opts.backend,
                                            &im.spa[ri], &st);
        if (st.used == sparse::SpmsvBackend::kSpa) {
          ++spa_calls[ri];
        } else {
          ++heap_calls[ri];
        }
      }
      flops[ri] = st.flops;

      model::Work2D work;
      work.spmsv_flops = st.flops;
      work.x_nnz = x.nnz();
      work.output_nnz = st.output_nnz;
      work.x_dim = blocks.size(j);
      work.out_dim = blocks.size(i);
      work.heap_backend = st.used == sparse::SpmsvBackend::kHeap;
      work.threads = t;
      spmsv_costs[ri] =
          model::cost_2d_local(im.cluster.machine(), work) +
          model::cost_thread_barriers(im.cluster.machine(), t, 2);
    });
    im.cluster.set_compute_phase("2d-spmsv");
    charge_smoothed(im.cluster, im.world, spmsv_costs, im.opts.load_smoothing);
    if (obs::MetricsRegistry* m = im.cluster.metrics()) {
      // SpMSV workload distributions (per rank per level) for the kernel
      // ablations: flop counts, output sizes, and back-end selection.
      auto& flops_hist = m->histogram("spmsv.flops");
      auto& nnz_hist = m->histogram("spmsv.output_nnz");
      for (int r = 0; r < p; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        flops_hist.observe(static_cast<double>(flops[ri]));
        nnz_hist.observe(static_cast<double>(partials[ri].nnz()));
      }
      m->counter("spmsv.spa_calls") +=
          std::accumulate(spa_calls.begin(), spa_calls.end(), std::int64_t{0});
      m->counter("spmsv.heap_calls") += std::accumulate(
          heap_calls.begin(), heap_calls.end(), std::int64_t{0});
    }
  }

  // ---- Triangular storage (§7): the stored wedge only covers edge
  // directions c -> r with r <= c; the mirrored directions are applied
  // with a scan-based transpose product. Rank (i,j) needs f_{C_i}
  // (held post-expand by its transpose partner) and its z output lives
  // in C_j's range = its partner's row block, so both the frontier and
  // the result take one pairwise exchange each.
  if (im.opts.triangular_storage) {
    // Pairwise frontier swap: rank (i,j) receives f_{C_i}.
    std::vector<std::vector<vid_t>> f_for_partner(
        static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      f_for_partner[static_cast<std::size_t>(r)] =
          gathered[static_cast<std::size_t>(im.grid.col_of(r))];
    }
    auto partner_frontier = simmpi::transpose_exchange(
        im.cluster, im.grid, std::move(f_for_partner));

    std::vector<std::vector<Candidate>> z(static_cast<std::size_t>(p));
    std::vector<double> scan_costs(static_cast<std::size_t>(p), 0.0);
    im.cluster.for_each_rank([&](int r) {
      const auto ri = static_cast<std::size_t>(r);
      const int i = im.grid.row_of(r);
      const int j = im.grid.col_of(r);
      const vid_t row_base_i = blocks.begin(i);
      const vid_t col_base_j = blocks.begin(j);

      // Dense per-row frontier values over R_i (value = global id, the
      // parent the mirrored edge contributes).
      std::vector<vid_t> xval(static_cast<std::size_t>(blocks.size(i)),
                              kNoVertex);
      for (vid_t gv : partner_frontier[ri]) {
        xval[static_cast<std::size_t>(gv - row_base_i)] = gv;
      }

      sparse::SpmsvStats st;
      auto zt = sparse::spmsv_transpose<vid_t>(
          im.part.block(r),
          [&xval](vid_t row) -> const vid_t* {
            const vid_t* v = &xval[static_cast<std::size_t>(row)];
            return *v == kNoVertex ? nullptr : v;
          },
          [](vid_t, vid_t, vid_t fv) { return fv; },
          [](vid_t a, vid_t b) { return std::max(a, b); }, &st);
      z[ri].reserve(static_cast<std::size_t>(zt.nnz()));
      for (const auto& e : zt.entries()) {
        z[ri].push_back(Candidate{col_base_j + e.index, e.value});
      }
      flops[ri] += st.flops;

      model::WorkTranspose2D work;
      work.nnz_scanned = st.flops;
      work.output_nnz = st.output_nnz;
      work.x_dim = blocks.size(i);
      work.threads = t;
      scan_costs[ri] =
          model::cost_2d_transpose_scan(im.cluster.machine(), work);
    });
    im.cluster.set_compute_phase("2d-tri-scan");
    charge_smoothed(im.cluster, im.world, scan_costs, im.opts.load_smoothing);
    // Results travel to the transpose partner, whose row block owns
    // them; the partner folds them with its own partial output.
    mirrored = simmpi::transpose_exchange(im.cluster, im.grid,
                                          std::move(z));
  }

  // ---- Fold (line 8): scatter partial results along processor rows to
  // the vector-piece owners, then merge, filter, and update parents
  // (lines 9-11). As under MPI, every rank takes each stage at once: all
  // p ranks pack their sends in one phase, every row's senders sieve and
  // encode and its receivers decode in exchange_candidates' two, and all
  // owners merge and sort in a fourth. Each phase is sized by the level's
  // candidates, so a small level stays on the calling thread. The calling
  // thread charges each row's encode, alltoallv, decode and merge in row
  // order; the merge is priced from the received counts alone, so it is
  // charged before any owner has merged.
  std::size_t candidates = 0;
  for (int r = 0; r < p; ++r) {
    candidates += partials[static_cast<std::size_t>(r)].entries().size() +
                  mirrored[static_cast<std::size_t>(r)].size();
  }
  // Each rank blocks its candidates by owner column; on the diagonal
  // distribution every owner is P(i,i). The partials are freed as they
  // are packed.
  auto send =
      simmpi::BlockExchange<Candidate>::sized(static_cast<std::size_t>(p));
  im.cluster.for_each_rank(
      [&](int r) {
        const auto ri = static_cast<std::size_t>(r);
        const int i = im.grid.row_of(r);
        const vid_t row_base = blocks.begin(i);
        simmpi::pack_blocks<Candidate>(
            static_cast<std::size_t>(s),
            [&](auto&& put) {
              for (const auto& e : partials[ri].entries()) {
                put(static_cast<std::size_t>(im.vdist.owner_col(i, e.index)),
                    Candidate{row_base + e.index, e.value});
              }
              for (const Candidate& c : mirrored[ri]) {
                put(static_cast<std::size_t>(
                        im.vdist.owner_col(i, c.vertex - row_base)),
                    c);
              }
            },
            send.data[ri], send.blocks[ri]);
        partials[ri] = {};
        mirrored[ri] = {};
      },
      candidates);

  // Owners merge received candidates by max parent, filter against the
  // parents array, update, and emit the new piece, sorted because the
  // expand and the vertex-list codec take ascending input. Merge costs
  // are smoothed across the row's receivers; in diagonal mode the root
  // is the only receiver, so its serial merge stays fully concentrated
  // (the Fig 4 mechanism).
  const auto charge_merges = [&](std::size_t row,
                                 std::span<const std::size_t> received) {
    const int i = static_cast<int>(row);
    std::vector<double> merge_costs(static_cast<std::size_t>(s), 0.0);
    for (int gj = 0; gj < s; ++gj) {
      if (diagonal && gj != i) continue;
      model::Work2D work;
      work.fold_received =
          static_cast<vid_t>(received[static_cast<std::size_t>(gj)]);
      work.n_local = im.vdist.piece_size(i, gj);
      work.threads = t;
      merge_costs[static_cast<std::size_t>(gj)] =
          model::cost_2d_local(im.cluster.machine(), work) +
          model::cost_thread_barriers(im.cluster.machine(), t, 2);
    }
    im.cluster.set_compute_phase("2d-merge");
    if (diagonal) {
      im.cluster.charge_compute(im.grid.rank_of(i, i),
                                merge_costs[static_cast<std::size_t>(i)]);
    } else {
      charge_smoothed(im.cluster, im.grid.row_group(i), merge_costs,
                      im.opts.load_smoothing);
    }
  };
  std::vector<std::vector<Candidate>> received;
  if (!diagonal) {
    // exchange_candidates numbers the members row after row, and `send`
    // and `received` are indexed by rank: the two agree because the grid
    // is row-major (ProcessGrid.RowsLaidEndToEndListTheRanksInOrder).
    std::vector<std::span<const int>> rows;
    for (int i = 0; i < s; ++i) rows.push_back(im.grid.row_group(i));
    received = exchange_candidates(im.cluster, rows, std::move(send),
                                   im.opts.wire_format, im.sieve,
                                   im.opts.load_smoothing, "2d-fold",
                                   wire_level, charge_merges);
  } else {
    // Diagonal distribution: everything gathers at P(i,i), which then
    // merges alone while the rest of the row idles (Fig 4).
    received.resize(static_cast<std::size_t>(p));
    for (int i = 0; i < s; ++i) {
      std::vector<std::vector<Candidate>> pieces(static_cast<std::size_t>(s));
      for (int gj = 0; gj < s; ++gj) {
        pieces[static_cast<std::size_t>(gj)] = std::move(
            send.data[static_cast<std::size_t>(im.grid.rank_of(i, gj))]);
      }
      auto& root = received[static_cast<std::size_t>(im.grid.rank_of(i, i))];
      root = simmpi::gatherv(im.cluster, im.grid.row_group(i),
                             static_cast<std::size_t>(i), std::move(pieces),
                             "2d-fold");
      std::vector<std::size_t> counts(static_cast<std::size_t>(s), 0);
      counts[static_cast<std::size_t>(i)] = root.size();
      charge_merges(static_cast<std::size_t>(i), counts);
    }
  }
  std::vector<std::int64_t> next_sizes(static_cast<std::size_t>(p), 0);
  im.cluster.for_each_rank(
      [&](int r) {
        const auto ri = static_cast<std::size_t>(r);
        merge_candidates(received[ri], r, level, out,
                         sieving ? &im.sieve : nullptr, shadow, fs[ri]);
        std::sort(fs[ri].begin(), fs[ri].end());
        next_sizes[ri] = static_cast<std::int64_t>(fs[ri].size());
        received[ri] = {};
      },
      candidates);

  if (sieving || wire_expand_on || bottom_up) {
    im.driver.record_wire(wire_level, "2d-exchange");
  }

  // ---- Termination (implicit in Algorithm 3's while f != ∅).
  const auto next_frontier =
      static_cast<vid_t>(simmpi::allreduce_sum<std::int64_t>(
          im.cluster, im.world, next_sizes, "level-sync"));

  stats.edges_scanned = std::accumulate(flops.begin(), flops.end(), eid_t{0});
  if (dirop_on) {
    // Per-direction wire and edge accounting. Like the traffic meter,
    // these keep everything that ever moved — a recovery replay counts
    // its window again, matching the wire.* counters' convention.
    DiropReport& d = out.report.dirop;
    if (bottom_up) {
      d.bottom_up_wire_raw_bytes += wire_level.pre_bytes;
      d.bottom_up_wire_bytes += wire_level.stats.encoded_bytes;
    } else {
      d.top_down_wire_raw_bytes += wire_level.pre_bytes;
      d.top_down_wire_bytes += wire_level.stats.encoded_bytes;
    }
    if (obs::MetricsRegistry* m = im.cluster.metrics()) {
      ++m->counter(bottom_up ? "dirop.levels.bottom_up"
                             : "dirop.levels.top_down");
      m->counter(bottom_up ? "dirop.edges.bottom_up"
                           : "dirop.edges.top_down") +=
          static_cast<std::int64_t>(stats.edges_scanned);
      m->counter(bottom_up ? "dirop.wire.bottom_up_raw_bytes"
                           : "dirop.wire.top_down_raw_bytes") +=
          static_cast<std::int64_t>(wire_level.pre_bytes);
      m->counter(bottom_up ? "dirop.wire.bottom_up_bytes"
                           : "dirop.wire.top_down_bytes") +=
          static_cast<std::int64_t>(wire_level.stats.encoded_bytes);
    }
  }
  out.report.spmsv_spa_calls +=
      std::accumulate(spa_calls.begin(), spa_calls.end(), std::int64_t{0});
  out.report.spmsv_heap_calls +=
      std::accumulate(heap_calls.begin(), heap_calls.end(), std::int64_t{0});
  return next_frontier;
}

void Bfs2D::Impl::bottom_up_level(const BfsOutput& out,
                                  std::vector<std::vector<vid_t>>& fs,
                                  std::vector<std::vector<Candidate>>& mirrored,
                                  std::vector<eid_t>& flops, WireTally& wl) {
  const int s = grid.pr();
  const int p = grid.ranks();
  const int t = opts.threads_per_rank;
  const auto& bl = part.blocks();
  // Range bitmaps (comm::decode_vertex_bits' layout) over each row block.
  const auto words_of = [](vid_t width) {
    return static_cast<std::size_t>((width + 63) / 64);
  };
  const auto has = [](const std::vector<std::uint64_t>& bits, vid_t offset) {
    return ((bits[static_cast<std::size_t>(offset >> 6)] >> (offset & 63)) &
            1u) != 0;
  };

  // ---- (a) Frontier/completeness gather over each processor row: every
  // rank of row i ends up holding f_{R_i} (the probe targets) and
  // visited_{R_i} (the basis of the unvisited masks). Each contribution
  // is two wire-coded segments — both dense-bitmap candidates over the
  // row range — length-framed so the concatenated allgatherv stream
  // splits back per contributor:
  //   [uvarint frontier_bytes][uvarint visited_bytes][frontier][visited]
  // Every rank lists its owned visited vertices (ascending, from the
  // distance array over its own piece) and encodes its contribution in
  // one rank phase; the row loop then charges, gathers and decodes one
  // row at a time.
  std::vector<std::vector<std::uint8_t>> contrib(static_cast<std::size_t>(p));
  std::vector<WireTally> senders(static_cast<std::size_t>(p));
  std::vector<double> encode_costs(static_cast<std::size_t>(p), 0.0);
  cluster.for_each_rank([&](int rank) {
    const auto r = static_cast<std::size_t>(rank);
    const int i = grid.row_of(rank);
    const int j = grid.col_of(rank);
    const vid_t row_begin = bl.begin(i);
    const vid_t row_end = row_begin + bl.size(i);
    std::vector<vid_t> visited;
    for (vid_t v = vdist.piece_begin(i, j); v < vdist.piece_end(i, j); ++v) {
      if (out.level[static_cast<std::size_t>(v)] != kUnreached) {
        visited.push_back(v);
      }
    }
    comm::WireStats& st = senders[r].stats;
    std::vector<std::uint8_t> fenc;
    std::vector<std::uint8_t> venc;
    comm::encode_vertex_bitmap(fs[r], row_begin, row_end, opts.wire_format,
                               fenc, &st);
    comm::encode_vertex_bitmap(visited, row_begin, row_end, opts.wire_format,
                               venc, &st);
    senders[r].pre_bytes = (fs[r].size() + visited.size()) * sizeof(vid_t);
    auto& dst = contrib[r];
    comm::put_uvarint(dst, fenc.size());
    comm::put_uvarint(dst, venc.size());
    dst.insert(dst.end(), fenc.begin(), fenc.end());
    dst.insert(dst.end(), venc.begin(), venc.end());
    encode_costs[r] = model::cost_wire_codec(
        cluster.machine(), static_cast<std::size_t>(st.raw_bytes),
        static_cast<std::size_t>(st.encoded_bytes), t);
  });
  // Each row's gathered sets as range bitmaps over R_i, and the visited
  // set's size (its item count: the contributors' pieces are disjoint).
  std::vector<std::vector<std::uint64_t>> row_frontier(
      static_cast<std::size_t>(s));
  std::vector<std::vector<std::uint64_t>> row_visited(
      static_cast<std::size_t>(s));
  std::vector<std::uint64_t> row_visited_count(static_cast<std::size_t>(s), 0);
  for (int i = 0; i < s; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    const auto group = grid.row_group(i);
    std::vector<std::vector<std::uint8_t>> enc(group.size());
    std::vector<double> codec_costs(group.size(), 0.0);
    for (std::size_t g = 0; g < group.size(); ++g) {
      const auto r = static_cast<std::size_t>(group[g]);
      enc[g] = std::move(contrib[r]);
      codec_costs[g] = encode_costs[r];
      wl.merge(senders[r]);
    }
    cluster.set_compute_phase("wire-encode");
    charge_smoothed(cluster, group, codec_costs, opts.load_smoothing);

    auto bytes = simmpi::checked_allgatherv(cluster, group, std::move(enc),
                                            "2d-bu-frontier",
                                            opts.allgather_algo);
    const vid_t row_begin = bl.begin(i);
    const vid_t row_end = row_begin + bl.size(i);
    row_frontier[ii].assign(words_of(bl.size(i)), 0);
    row_visited[ii].assign(words_of(bl.size(i)), 0);
    std::uint64_t frontier_items = 0;
    std::size_t off = 0;
    while (off < bytes.size()) {
      std::uint64_t fbytes = 0;
      std::uint64_t vbytes = 0;
      off += comm::get_uvarint(bytes.data() + off, bytes.size() - off,
                               &fbytes);
      off += comm::get_uvarint(bytes.data() + off, bytes.size() - off,
                               &vbytes);
      if (off + fbytes + vbytes > bytes.size()) {
        throw comm::WireDecodeError("wire: bottom-up contribution overrun");
      }
      frontier_items += comm::decode_vertex_bits(
          bytes.data() + off, static_cast<std::size_t>(fbytes), row_begin,
          row_end, row_frontier[ii]);
      off += static_cast<std::size_t>(fbytes);
      row_visited_count[ii] += comm::decode_vertex_bits(
          bytes.data() + off, static_cast<std::size_t>(vbytes), row_begin,
          row_end, row_visited[ii]);
      off += static_cast<std::size_t>(vbytes);
    }
    const double decode_cost = model::cost_wire_codec(
        cluster.machine(),
        (frontier_items + row_visited_count[ii]) * sizeof(vid_t),
        bytes.size(), t);
    std::vector<double> decode_costs(group.size(), decode_cost);
    cluster.set_compute_phase("wire-decode");
    charge_smoothed(cluster, group, decode_costs, opts.load_smoothing);
  }
  // The frontier pieces are consumed; the fold below rebuilds them.
  fs.assign(static_cast<std::size_t>(p), {});

  // ---- (b) Completeness swap: rank (i,j)'s probe scan filters on the
  // visited status of its *column* range C_j, which is the transpose
  // partner's row range — one pairwise exchange of the assembled
  // visited_{R_i}, again through the dense-bitmap wire path, decoded
  // into a range bitmap over C_j. Diagonal ranks keep their own copy for
  // free.
  std::vector<std::vector<std::uint64_t>> col_visited(
      static_cast<std::size_t>(p));
  {
    std::vector<std::vector<std::uint8_t>> venc(static_cast<std::size_t>(p));
    std::vector<double> codec_costs(static_cast<std::size_t>(p), 0.0);
    std::vector<WireTally> swappers(static_cast<std::size_t>(p));
    cluster.for_each_rank([&](int r) {
      const auto ri = static_cast<std::size_t>(r);
      const int i = grid.row_of(r);
      const auto ii = static_cast<std::size_t>(i);
      comm::WireStats& st = swappers[ri].stats;
      comm::encode_vertex_bits(row_visited[ii], row_visited_count[ii],
                               bl.begin(i), bl.begin(i) + bl.size(i),
                               opts.wire_format, venc[ri], &st);
      swappers[ri].pre_bytes = row_visited_count[ii] * sizeof(vid_t);
      codec_costs[ri] = model::cost_wire_codec(
          cluster.machine(), static_cast<std::size_t>(st.raw_bytes),
          static_cast<std::size_t>(st.encoded_bytes), t);
    });
    for (const WireTally& swapper : swappers) wl.merge(swapper);
    cluster.set_compute_phase("wire-encode");
    charge_smoothed(cluster, world, codec_costs, opts.load_smoothing);

    auto swapped = simmpi::transpose_exchange(cluster, grid, std::move(venc),
                                              "2d-bu-complete");
    cluster.for_each_rank([&](int r) {
      const auto ri = static_cast<std::size_t>(r);
      const int j = grid.col_of(r);
      col_visited[ri].assign(words_of(bl.size(j)), 0);
      const std::uint64_t items = comm::decode_vertex_bits(
          swapped[ri].data(), swapped[ri].size(), bl.begin(j),
          bl.begin(j) + bl.size(j), col_visited[ri]);
      codec_costs[ri] = model::cost_wire_codec(
          cluster.machine(), items * sizeof(vid_t), swapped[ri].size(), t);
    });
    cluster.set_compute_phase("wire-decode");
    charge_smoothed(cluster, world, codec_costs, opts.load_smoothing);
  }

  // ---- (c) Local pull step: every stored column still unvisited probes
  // its rows (descending) against the frontier support and stops at the
  // first hit — the per-block max, which the fold's max-parent merge
  // combines into exactly the parent top-down would have produced. Both
  // tests read the range bitmaps; a hit's value is the frontier vertex's
  // global id, the parent it offers.
  std::vector<std::vector<Candidate>> z(static_cast<std::size_t>(p));
  std::vector<double> scan_costs(static_cast<std::size_t>(p), 0.0);
  cluster.for_each_rank([&](int r) {
    const auto ri = static_cast<std::size_t>(r);
    const int i = grid.row_of(r);
    const int j = grid.col_of(r);
    const vid_t row_base = bl.begin(i);
    const vid_t col_base = bl.begin(j);
    const auto& frontier = row_frontier[static_cast<std::size_t>(i)];
    const auto& done = col_visited[ri];

    vid_t candidates = 0;
    vid_t hit = kNoVertex;
    sparse::SpmsvStats st;
    auto zt = sparse::spmsv_bottom_up<vid_t>(
        part.block(r),
        [&](vid_t c) {
          if (has(done, c)) return false;
          ++candidates;
          return true;
        },
        [&](vid_t row) -> const vid_t* {
          if (!has(frontier, row)) return nullptr;
          hit = row_base + row;
          return &hit;
        },
        [](vid_t, vid_t, vid_t fv) { return fv; }, &st);
    z[ri].reserve(static_cast<std::size_t>(zt.nnz()));
    for (const auto& e : zt.entries()) {
      z[ri].push_back(Candidate{col_base + e.index, e.value});
    }
    flops[ri] = st.flops;

    model::WorkBottomUp work;
    work.probes = st.flops;
    work.candidates = candidates;
    work.output_nnz = st.output_nnz;
    work.x_dim = bl.size(i);
    work.threads = t;
    scan_costs[ri] = model::cost_2d_bottom_up(cluster.machine(), work) +
                     model::cost_thread_barriers(cluster.machine(), t, 2);
  });
  cluster.set_compute_phase("2d-bottomup");
  charge_smoothed(cluster, world, scan_costs, opts.load_smoothing);

  // ---- (d) Discovered parents live in C_j's range = the partner's row
  // block: ship them there so the shared fold path (scatter to owners,
  // max-parent merge, parents update) finishes the level unchanged.
  mirrored = simmpi::transpose_exchange(cluster, grid, std::move(z),
                                        "2d-bu-result");
}

}  // namespace dbfs::bfs
