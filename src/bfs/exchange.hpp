// The candidate exchange every distributed level ends with, written once
// for Bfs1D's world exchange and Bfs2D's per-row fold: a level's
// (vertex, parent) candidates travel to their owners in one all-to-all
// (Algorithm 2 line 21; Algorithm 3's fold, line 8), and each owner keeps
// one parent per newly reached vertex (Alg. 2 lines 23-28, Alg. 3 lines
// 9-11). The sieve and the block codecs of Lv et al. (comm/) apply to
// exactly this exchange. The baselines' unaggregated sends and the
// diagonal-vector gatherv move the same candidates on their own paths,
// then merge through merge_candidates too.
#pragma once

#include <span>
#include <vector>

#include "bfs/frontier.hpp"
#include "bfs/level_driver.hpp"
#include "bfs/report.hpp"
#include "comm/wire_format.hpp"
#include "simmpi/comm.hpp"

namespace dbfs::bfs {

/// Ship `send` (slot i: group[i]'s candidates, block by destination) to
/// the owners over `group` in one checked alltoallv at `site`, and return
/// each member's received candidates. Raw formats ship the items as they
/// are. Sieving formats first drop each (sender, destination) block's
/// targets already marked in the sender's row of `sieve` and its in-level
/// duplicates, keeping the max parent (the owners' rule, so the BFS
/// output stays bit-identical to the raw path); then they encode the
/// block per `format` and ship the bytes, still metered and checksummed.
/// Both codec passes are priced at the local streaming bandwidth
/// (model::cost_wire_codec) — compression buys network bytes with CPU
/// time, never free time — and their byte counts accumulate in `tally`.
/// As under MPI, every rank packs and unpacks its own buffers at once:
/// the senders' sieve and encode run in one rank phase over `group`, the
/// receivers' decode in a second, and a decode error from any receiver
/// (the lowest slot's) reaches the caller. The codec charges, the
/// alltoallv and the tally folds (in slot order) follow each phase on
/// the calling thread, so the result is the same at any host thread
/// count.
std::vector<std::vector<Candidate>> exchange_candidates(
    simmpi::Cluster& cluster, std::span<const int> group,
    simmpi::BlockExchange<Candidate> send, comm::WireFormat format,
    comm::Sieve& sieve, double load_smoothing, const char* site,
    WireTally& tally);

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
