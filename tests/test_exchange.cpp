// Tests for the candidate exchange both distributed engines share
// (bfs/exchange.hpp): the several-group exchange against one call per
// group, the owners' max-parent merge, on its own and under an unaudited
// at-rest flip in both engines, and the exact library calls the
// standalone host-clock benchmark (bench/e2e) makes on the same path.
#include "bfs/exchange.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bfs/audit.hpp"
#include "comm/sieve.hpp"
#include "core/engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/validator.hpp"
#include "model/cost.hpp"
#include "model/machine.hpp"
#include "obs/observers.hpp"
#include "obs/trace.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/process_grid.hpp"

namespace dbfs::bfs {
namespace {

// ---- The several-group exchange: a 4×4 grid's fold, all rows in one
// call against one call per row.

constexpr int kSide = 4;  // rows, and members per row
constexpr vid_t kFoldN = 512;

std::vector<std::pair<vid_t, vid_t>> pairs_of(const std::vector<Candidate>& c) {
  std::vector<std::pair<vid_t, vid_t>> out;
  for (const Candidate& x : c) out.emplace_back(x.vertex, x.parent);
  return out;
}

/// Each member's candidates, blocked by destination slot in its row. Every
/// target is offered twice with different parents, so the sieve's dedup
/// has work; row 2's senders send nothing.
simmpi::BlockExchange<Candidate> fold_send() {
  constexpr auto s = static_cast<std::size_t>(kSide);
  auto send = simmpi::BlockExchange<Candidate>::sized(s * s);
  for (std::size_t m = 0; m < s * s; ++m) {
    if (m / s == 2) continue;
    simmpi::pack_blocks<Candidate>(
        s,
        [&](auto&& put) {
          for (vid_t k = 0; k < 60; ++k) {
            const auto v = static_cast<vid_t>(
                (static_cast<vid_t>(m) * 53 + (k % 30) * 29) % kFoldN);
            put(static_cast<std::size_t>(v % kSide),
                Candidate{v, static_cast<vid_t>(m) * 7 + k / 10});
          }
        },
        send.data[m], send.blocks[m]);
  }
  return send;
}

/// A sieve whose rows already hold some visited marks.
comm::Sieve premarked_sieve() {
  comm::Sieve sieve;
  sieve.reset(kSide * kSide, kFoldN);
  for (int r = 0; r < kSide * kSide; ++r) {
    for (vid_t v = 0; v < kFoldN; ++v) {
      if ((v * 3 + r) % 11 == 0) sieve.mark(r, v);
    }
  }
  return sieve;
}

TEST(FoldExchange, RowsInOneCallMatchOneCallPerRow) {
  constexpr auto s = static_cast<std::size_t>(kSide);
  const simmpi::ProcessGrid grid(kSide);
  std::vector<std::span<const int>> rows;
  for (int i = 0; i < kSide; ++i) rows.push_back(grid.row_group(i));
  for (const comm::WireFormat format :
       {comm::WireFormat::kRaw, comm::WireFormat::kAuto}) {
    const char* label = comm::to_string(format);

    // Every row in one call, traced; load smoothing 0 charges each rank
    // exactly its own cost.
    simmpi::Cluster together(grid.ranks(), model::hopper());
    obs::Tracer tracer;
    obs::Observers observers;
    observers.tracer = &tracer;
    together.attach(observers, kSide, kSide);
    comm::Sieve sieve_together = premarked_sieve();
    WireTally tally_together;
    std::vector<std::pair<std::size_t, std::vector<std::size_t>>> calls;
    const auto got = exchange_candidates(
        together, rows, fold_send(), format, sieve_together, 0.0, "fold",
        tally_together, [&](std::size_t k, std::span<const std::size_t> n) {
          calls.emplace_back(k, std::vector<std::size_t>(n.begin(), n.end()));
        });
    ASSERT_EQ(got.size(), s * s) << label;

    // One one-group call per row, in row order.
    simmpi::Cluster apart(grid.ranks(), model::hopper());
    comm::Sieve sieve_apart = premarked_sieve();
    WireTally tally_apart;
    auto send = fold_send();
    for (std::size_t i = 0; i < s; ++i) {
      auto row = simmpi::BlockExchange<Candidate>::sized(s);
      for (std::size_t m = 0; m < s; ++m) {
        row.data[m] = std::move(send.data[i * s + m]);
        row.blocks[m] = std::move(send.blocks[i * s + m]);
      }
      const std::span<const int> one[] = {rows[i]};
      const auto row_got =
          exchange_candidates(apart, one, std::move(row), format, sieve_apart,
                              0.0, "fold", tally_apart);
      ASSERT_EQ(calls.size(), s) << label;
      EXPECT_EQ(calls[i].first, i) << label;
      for (std::size_t m = 0; m < s; ++m) {
        EXPECT_EQ(pairs_of(got[i * s + m]), pairs_of(row_got[m]))
            << label << " member " << i * s + m;
        EXPECT_EQ(calls[i].second[m], got[i * s + m].size())
            << label << " member " << i * s + m;
        if (i == 2) {
          EXPECT_TRUE(got[i * s + m].empty()) << label;
        }
      }
    }
    EXPECT_EQ(tally_together.pre_bytes, tally_apart.pre_bytes) << label;
    EXPECT_EQ(tally_together.dropped, tally_apart.dropped) << label;
    EXPECT_EQ(tally_together.stats.raw_bytes, tally_apart.stats.raw_bytes);
    EXPECT_EQ(tally_together.stats.encoded_bytes,
              tally_apart.stats.encoded_bytes);
    EXPECT_EQ(tally_together.stats.items, tally_apart.stats.items);
    EXPECT_EQ(tally_together.stats.blocks_items,
              tally_apart.stats.blocks_items);
    EXPECT_EQ(tally_together.stats.blocks_bitmap,
              tally_apart.stats.blocks_bitmap);
    EXPECT_EQ(tally_together.stats.blocks_varint,
              tally_apart.stats.blocks_varint);
    for (int r = 0; r < grid.ranks(); ++r) {
      EXPECT_EQ(together.clocks().now(r), apart.clocks().now(r))
          << label << " rank " << r;
      EXPECT_EQ(together.clocks().compute_time(r),
                apart.clocks().compute_time(r))
          << label << " rank " << r;
      for (vid_t v = 0; v < kFoldN; ++v) {
        ASSERT_EQ(sieve_together.test(r, v), sieve_apart.test(r, v))
            << label << " rank " << r << " vertex " << v;
      }
    }
    if (!comm::wire_sieves(format)) continue;
    EXPECT_GT(tally_together.dropped, 0u) << label;

    // The decode charges were priced when encoding ended; they must equal
    // the prices of the decoded streams. Rebuild each receiver's stream
    // (its senders' sieved, encoded blocks in sender order) and decode it.
    comm::Sieve oracle = premarked_sieve();
    auto again = fold_send();
    std::vector<std::vector<std::uint8_t>> streams(s * s);
    for (std::size_t m = 0; m < s * s; ++m) {
      auto from = again.data[m].cbegin();
      for (const simmpi::Block& b : again.blocks[m]) {
        std::vector<Candidate> block(from, from + b.count);
        from += b.count;
        comm::sieve_and_dedup(oracle, static_cast<int>(m), block, true);
        comm::encode_candidates<Candidate>(
            block, format,
            streams[m / s * s + static_cast<std::size_t>(b.slot)], nullptr);
      }
    }
    for (std::size_t j = 0; j < s * s; ++j) {
      std::vector<Candidate> decoded;
      comm::decode_candidate_stream<Candidate>(streams[j].data(),
                                               streams[j].size(), decoded);
      EXPECT_EQ(pairs_of(decoded), pairs_of(got[j])) << "receiver " << j;
      const double price = model::cost_wire_codec(
          model::hopper(), decoded.size() * sizeof(Candidate),
          streams[j].size());
      std::vector<const obs::Span*> charged;
      for (const obs::Span& span : tracer.spans(static_cast<int>(j))) {
        if (std::string(span.name) == "wire-decode") charged.push_back(&span);
      }
      if (price == 0.0) {
        EXPECT_TRUE(charged.empty()) << "receiver " << j;
        continue;
      }
      ASSERT_EQ(charged.size(), 1u) << "receiver " << j;
      EXPECT_EQ(charged[0]->end, charged[0]->begin + price)
          << "receiver " << j;
    }
  }
}

// ---- The owners' merge.

constexpr vid_t kN = 12;
constexpr int kRanks = 2;

int owner(vid_t v) { return static_cast<int>(v % kRanks); }

/// Distances 0..2 assigned: source 0, then {1, 2}, then the frontier
/// {3, 4}; everything else unreached.
BfsOutput levels_so_far() {
  BfsOutput out;
  out.parent.assign(kN, kNoVertex);
  out.level.assign(kN, kUnreached);
  const std::pair<vid_t, vid_t> tree[] = {{0, 0}, {1, 0}, {2, 0}, {3, 1},
                                          {4, 2}};
  const level_t depth[] = {0, 1, 1, 2, 2};
  for (std::size_t i = 0; i < std::size(tree); ++i) {
    out.parent[static_cast<std::size_t>(tree[i].first)] = tree[i].second;
    out.level[static_cast<std::size_t>(tree[i].first)] = depth[i];
  }
  return out;
}

struct Merged {
  BfsOutput out;
  std::vector<std::vector<vid_t>> next;  ///< per rank, sorted
  std::vector<std::uint64_t> shadow;     ///< per-rank running sums
  comm::Sieve sieve;
};

/// Deliver `arrival` to the owners in that order and merge level 3.
Merged merge_level(const std::vector<Candidate>& arrival) {
  Merged m;
  m.out = levels_so_far();
  m.sieve.reset(kRanks, kN);
  SdcShadow shadow;
  shadow.reset(kRanks);
  shadow.rebuild(m.out.parent, m.out.level, owner);
  m.next.resize(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    std::vector<Candidate> received;
    for (const Candidate& c : arrival) {
      if (owner(c.vertex) == r) received.push_back(c);
    }
    merge_candidates(received, r, 3, m.out, &m.sieve, &shadow,
                     m.next[static_cast<std::size_t>(r)]);
    std::sort(m.next[static_cast<std::size_t>(r)].begin(),
              m.next[static_cast<std::size_t>(r)].end());
    m.shadow.push_back(shadow.sum(r));
  }
  return m;
}

TEST(WireMerge, ResultIsIndependentOfArrivalOrder) {
  // One level's candidate multiset from the frontier {3, 4}: duplicate
  // targets (5, 6, 8), targets visited earlier (0, 1, 4), and same-level
  // re-parents — in this order 6 is first reached from 3 and then taken
  // over by the larger parent 4.
  const std::vector<Candidate> level3 = {
      {6, 3}, {5, 3}, {1, 3}, {6, 4}, {8, 3}, {4, 3},
      {5, 4}, {9, 4}, {0, 4}, {8, 4}, {7, 3}, {8, 3}};
  std::vector<std::vector<Candidate>> orders;
  for (std::size_t k = 0; k < level3.size(); ++k) {
    std::vector<Candidate> rotated = level3;
    std::rotate(rotated.begin(),
                rotated.begin() + static_cast<std::ptrdiff_t>(k),
                rotated.end());
    orders.push_back(rotated);
  }
  orders.emplace_back(level3.rbegin(), level3.rend());

  const Merged first = merge_level(orders.front());
  // The max parent wins every new target; visited targets keep theirs.
  BfsOutput want = levels_so_far();
  for (const auto& [v, parent] : std::vector<std::pair<vid_t, vid_t>>{
           {5, 4}, {6, 4}, {7, 3}, {8, 4}, {9, 4}}) {
    want.parent[static_cast<std::size_t>(v)] = parent;
    want.level[static_cast<std::size_t>(v)] = 3;
  }
  EXPECT_EQ(first.out.parent, want.parent);
  EXPECT_EQ(first.out.level, want.level);
  EXPECT_EQ(first.next, (std::vector<std::vector<vid_t>>{{6, 8}, {5, 7, 9}}));

  SdcShadow rebuilt;
  rebuilt.reset(kRanks);
  rebuilt.rebuild(want.parent, want.level, owner);
  for (const std::vector<Candidate>& arrival : orders) {
    const Merged m = merge_level(arrival);
    EXPECT_EQ(m.out.parent, first.out.parent);
    EXPECT_EQ(m.out.level, first.out.level);
    EXPECT_EQ(m.next, first.next);
    for (int r = 0; r < kRanks; ++r) {
      EXPECT_EQ(m.shadow[static_cast<std::size_t>(r)], rebuilt.sum(r))
          << "rank " << r;
    }
    // Every target is visited by the end of the level, so its owner may
    // sieve later re-sends of it.
    for (const Candidate& c : arrival) {
      EXPECT_TRUE(m.sieve.test(owner(c.vertex), c.vertex)) << c.vertex;
    }
  }
}

TEST(WireMerge, EntryAlreadyAtTheLevelIsLeftAlone) {
  // Vertex 4 reads level 3 before level 3 is merged: an at-rest flip of
  // its level that no audit has seen yet. A larger candidate parent must
  // not rewrite it into a consistent-looking entry.
  BfsOutput out = levels_so_far();
  out.level[4] = 3;
  std::vector<vid_t> next;
  merge_candidates(std::vector<Candidate>{{4, 3}, {6, 3}}, 0, 3, out,
                   nullptr, nullptr, next);
  EXPECT_EQ(out.parent[4], 2);
  EXPECT_EQ(next, std::vector<vid_t>{6});
}

TEST(SdcMerge, UnauditedLevelFlipNeverSurvivesIntoTheTree) {
  // The flip moves a level-1 vertex to level 3 and the next audit is four
  // levels away. Before both engines shared one merge, the 1D owners
  // re-parented that vertex to a level-2 candidate at level 3; the entry
  // then passed the checkpoints' structural check, a rollback restored
  // it, and the search returned a tree that fails validation.
  graph::RmatParams params;
  params.scale = 11;
  params.edge_factor = 16;
  params.seed = 1;
  graph::BuildOptions build;
  build.shuffle_seed = 1 + 0x5eed;
  const auto built = graph::build_graph(graph::generate_rmat(params), build);
  const vid_t n = built.csr.num_vertices();
  const vid_t source = 82;
  const auto reference = graph::reference_levels(built.csr, source);

  for (core::Algorithm algorithm :
       {core::Algorithm::kOneDFlat, core::Algorithm::kTwoDFlat}) {
    core::EngineOptions opts;
    opts.algorithm = algorithm;
    opts.cores = 16;
    opts.machine = model::hopper();
    core::Engine clean{built.edges, n, opts};
    const BfsOutput expected = clean.run(source);

    simmpi::MemFlip flip;
    flip.rank = 1;
    flip.at_level = 1;
    flip.target = simmpi::FlipTarget::kLevels;
    opts.faults.seed = 1;
    opts.faults.mem_flips = {flip};
    opts.recover.checkpoint_every = 1;
    opts.recover.audit_every = 4;
    core::Engine engine{built.edges, n, opts};
    const BfsOutput out = engine.run(source);
    const char* label = core::to_string(algorithm);
    EXPECT_EQ(out.report.sdc.flips_injected, 1) << label;
    EXPECT_GE(out.report.sdc.rollbacks, 1) << label;
    EXPECT_EQ(out.parent, expected.parent) << label;
    EXPECT_EQ(out.level, expected.level) << label;
    const auto v =
        graph::validate_bfs_tree(built.csr, source, out.parent, reference);
    EXPECT_TRUE(v.ok) << label << ": " << v.error;
  }
}

TEST(WireBenchCalls, E2eProbeCallsRoundTrip) {
  // bench/e2e compiles the library on its own, outside this build. These
  // are its probes' exact calls into src/ (the codec probe and the
  // alltoallv probe of e2e_bench.cpp), so a change that would break the
  // benchmark's build fails here, and their round trips are checked.
  constexpr vid_t n = 256;
  constexpr int p = 4;
  const auto up = static_cast<std::size_t>(p);
  // pairs[src * p + dst]: rank src's candidates for owner dst.
  std::vector<std::vector<Candidate>> pairs(up * up);
  for (vid_t u = 0; u < 64; ++u) {
    for (vid_t k = 1; k <= 3; ++k) {
      const vid_t v = (u * 37 + k * 11) % n;
      pairs[static_cast<std::size_t>(u % p) * up +
            static_cast<std::size_t>(v % p)]
          .push_back(Candidate{v, u});
    }
  }

  // Codec probe: sieve each owner's block, then encode it with the auto
  // codec and decode it back.
  comm::Sieve sieve;
  sieve.reset(1, n);
  for (vid_t v = 0; v < n; v += 5) sieve.mark(0, v);
  std::vector<std::vector<Candidate>> blocks(up);
  for (std::size_t dst = 0; dst < up; ++dst) {
    for (std::size_t src = 0; src < up; ++src) {
      const auto& pr = pairs[src * up + dst];
      blocks[dst].insert(blocks[dst].end(), pr.begin(), pr.end());
    }
    const std::size_t before = blocks[dst].size();
    EXPECT_GT(comm::sieve_and_dedup(sieve, 0, blocks[dst], true), 0u);
    EXPECT_LT(blocks[dst].size(), before);
  }
  std::vector<std::vector<std::uint8_t>> wire(up);
  for (std::size_t b = 0; b < up; ++b) {
    comm::encode_candidates<Candidate>(blocks[b], comm::WireFormat::kAuto,
                                       wire[b], nullptr);
    std::vector<Candidate> decoded;
    comm::decode_candidate_stream<Candidate>(wire[b].data(), wire[b].size(),
                                             decoded);
    ASSERT_EQ(decoded.size(), blocks[b].size()) << "block " << b;
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      EXPECT_EQ(decoded[i].vertex, blocks[b][i].vertex);
      EXPECT_EQ(decoded[i].parent, blocks[b][i].parent);
    }
  }

  // Alltoallv probe: one world exchange of the raw candidates.
  auto send = simmpi::FlatExchange<Candidate>::sized(up);
  for (std::size_t src = 0; src < up; ++src) {
    for (std::size_t dst = 0; dst < up; ++dst) {
      const auto& pr = pairs[src * up + dst];
      send.data[src].insert(send.data[src].end(), pr.begin(), pr.end());
      send.counts[src][dst] = static_cast<std::int64_t>(pr.size());
    }
  }
  std::vector<int> world(up);
  std::iota(world.begin(), world.end(), 0);
  simmpi::Cluster cluster(p, model::hopper());
  const auto recv = simmpi::alltoallv(cluster, world, std::move(send));
  for (std::size_t dst = 0; dst < up; ++dst) {
    std::vector<Candidate> want;
    for (std::size_t src = 0; src < up; ++src) {
      const auto& pr = pairs[src * up + dst];
      want.insert(want.end(), pr.begin(), pr.end());
      EXPECT_EQ(recv.counts[dst][src], static_cast<std::int64_t>(pr.size()));
    }
    ASSERT_EQ(recv.data[dst].size(), want.size()) << "owner " << dst;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(recv.data[dst][i].vertex, want[i].vertex);
      EXPECT_EQ(recv.data[dst][i].parent, want[i].parent);
    }
  }
}

}  // namespace
}  // namespace dbfs::bfs
