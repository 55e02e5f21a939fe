#include "bfs/baseline_pbgl.hpp"

namespace dbfs::bfs {

Bfs1DOptions pbgl_like_options(const PbglLikeOptions& opts) {
  Bfs1DOptions o;
  o.ranks = opts.ranks;
  o.threads_per_rank = 1;
  o.machine = opts.machine;
  o.comm_mode = CommMode::kPerEdgeSends;
  // Distributed property maps: hash lookups + shared_ptr machinery on
  // every visit — several DRAM-class operations per edge.
  o.extra_per_edge_seconds = 6.0 * opts.machine.alpha_local(1e9);
  // Each level flushes p per-destination message buffers through the
  // generic buffer machinery (~microseconds of host CPU per peer): the
  // p-proportional overhead that stops PBGL from scaling (Table 2).
  o.per_peer_level_seconds = 1.5e-6;
  o.label = "pbgl-like";
  return o;
}

}  // namespace dbfs::bfs
