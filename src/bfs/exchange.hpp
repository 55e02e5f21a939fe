// The candidate exchange every distributed level ends with, written once
// for Bfs1D's world exchange and Bfs2D's fold over every processor row:
// a level's (vertex, parent) candidates travel to their owners in one
// all-to-all per group (Algorithm 2 line 21; Algorithm 3's fold, line 8),
// and each owner keeps one parent per newly reached vertex (Alg. 2 lines
// 23-28, Alg. 3 lines 9-11). The sieve and the block codecs of Lv et al.
// (comm/) apply to exactly this exchange. The baselines' unaggregated
// sends and the diagonal-vector gatherv move the same candidates on their
// own paths, then merge through merge_candidates too.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "bfs/frontier.hpp"
#include "bfs/level_driver.hpp"
#include "bfs/report.hpp"
#include "comm/wire_format.hpp"
#include "simmpi/comm.hpp"

namespace dbfs::bfs {

/// Called on the calling thread once group `k` of an exchange is charged,
/// with the candidates each of its members receives, in slot order.
using GroupReceived =
    std::function<void(std::size_t k, std::span<const std::size_t> items)>;

/// Ship `send` to the owners over each group of `groups`, in one checked
/// alltoallv per group at `site`, and return each member's received
/// candidates. The groups' members are numbered one after another: slot
/// m of group k is member first_k + m of `send` and of the result, where
/// first_k counts the members of the groups before k, and a member's
/// blocks name slots of its own group. Bfs1D's world exchange is the
/// one-group case; Bfs2D's fold passes its s processor rows.
///
/// Raw formats ship the items as they are. Sieving formats first drop
/// each (sender, destination) block's targets already marked in the
/// sender's row of `sieve` and its in-level duplicates, keeping the max
/// parent (the owners' rule, so the BFS output stays bit-identical to the
/// raw path); then they encode the block per `format` and ship the bytes,
/// still metered and checksummed. Both codec passes are priced at the
/// local streaming bandwidth (model::cost_wire_codec) — compression buys
/// network bytes with CPU time, never free time — and their byte counts
/// accumulate in `tally`.
///
/// As under MPI, every rank packs and unpacks its own buffers at once:
/// every group's senders sieve and encode in one rank phase, and every
/// receiver decodes in a second once the last group has exchanged; a
/// decode error from any receiver (the lowest member's) reaches the
/// caller. Both phases are sized by `send`'s candidates (util::
/// for_each_slot), so a small level stays on the calling thread. Group by
/// group, the calling thread charges the encodes, issues the alltoallv,
/// charges the decodes and calls `received`. The decode charges are
/// priced from the item and byte counts fixed when encoding ends, which
/// are exactly the decoded streams' (the checked alltoallv delivers what
/// was sent), so the clocks and every observer call keep one order at
/// any host thread count.
std::vector<std::vector<Candidate>> exchange_candidates(
    simmpi::Cluster& cluster, std::span<const std::span<const int>> groups,
    simmpi::BlockExchange<Candidate> send, comm::WireFormat format,
    comm::Sieve& sieve, double load_smoothing, const char* site,
    WireTally& tally, const GroupReceived& received = {});

/// Owner `rank` applies its received candidates at distance `level`:
/// every target unreached before the call is reached now, with the
/// numerically largest parent among its candidates, and appended to
/// `next` in arrival order; targets reached earlier are left alone. The
/// winner is a property of the level's candidate multiset, independent
/// of partition shape and arrival order — which is what lets a replay
/// after a shrink reproduce the fault-free parents bit for bit. When
/// `sieve` is set, every target is marked in the owner's row (each is
/// visited by the end of the level, so any later re-send can be
/// sieved); when `shadow` is set, it records every new entry. Touches
/// only `rank`'s entries, so it is safe inside for_each_rank.
void merge_candidates(std::span<const Candidate> received, int rank,
                      level_t level, BfsOutput& out, comm::Sieve* sieve,
                      SdcShadow* shadow, std::vector<vid_t>& next);

}  // namespace dbfs::bfs
