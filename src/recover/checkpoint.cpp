#include "recover/checkpoint.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/prng.hpp"

namespace dbfs::recover {

namespace {

std::int64_t count_visited(const std::vector<level_t>& level) {
  return static_cast<std::int64_t>(
      std::count_if(level.begin(), level.end(),
                    [](level_t l) { return l != kUnreached; }));
}

/// The hash a journal entry is written with.
std::uint64_t entry_hash(vid_t vertex, vid_t parent, level_t level) noexcept {
  std::uint64_t h = util::mix64(0x656e747279ULL ^  // "entry" seed
                                static_cast<std::uint64_t>(vertex));
  h = util::mix64(h ^ static_cast<std::uint64_t>(parent));
  return util::mix64(h ^ static_cast<std::uint64_t>(level));
}

}  // namespace

const char* to_string(Policy policy) {
  switch (policy) {
    case Policy::kShrink:
      return "shrink";
    case Policy::kSpare:
      return "spare";
  }
  return "?";
}

Policy parse_policy(const std::string& name) {
  if (name == "shrink") return Policy::kShrink;
  if (name == "spare") return Policy::kSpare;
  throw std::invalid_argument("unknown recovery policy: " + name);
}

std::uint64_t checkpoint_checksum(const Checkpoint& snapshot) noexcept {
  std::uint64_t h = 0x6368656b73756dULL;  // "cheksum" seed
  const auto mix = [&h](std::uint64_t v) { h = util::mix64(h ^ v); };
  mix(static_cast<std::uint64_t>(snapshot.levels_completed));
  mix(static_cast<std::uint64_t>(snapshot.global_frontier));
  mix(snapshot.level.size());
  for (level_t l : snapshot.level) mix(static_cast<std::uint64_t>(l));
  mix(snapshot.parent.size());
  for (vid_t p : snapshot.parent) mix(static_cast<std::uint64_t>(p));
  mix(snapshot.frontier.size());
  for (vid_t v : snapshot.frontier) mix(static_cast<std::uint64_t>(v));
  mix(static_cast<std::uint64_t>(snapshot.dirop_frontier_edges));
  mix(static_cast<std::uint64_t>(snapshot.dirop_unexplored_edges));
  mix(snapshot.dirop_bottom_up ? 1u : 0u);
  return h;
}

const char* checkpoint_defect(const Checkpoint& snapshot, vid_t source) {
  if (snapshot.level.empty() && snapshot.parent.empty()) {
    return nullptr;  // the implicit replay-from-source snapshot
  }
  const std::size_t n = snapshot.level.size();
  if (snapshot.parent.size() != n) return "array-size-mismatch";
  if (source < 0 || static_cast<std::size_t>(source) >= n) {
    return "source-out-of-range";
  }
  if (snapshot.parent[static_cast<std::size_t>(source)] != source) {
    return "source-parent";
  }
  if (snapshot.level[static_cast<std::size_t>(source)] != 0) {
    return "source-level";
  }
  for (std::size_t v = 0; v < n; ++v) {
    const level_t lv = snapshot.level[v];
    const vid_t pv = snapshot.parent[v];
    if (lv == kUnreached) {
      if (pv != kNoVertex) return "unreached-with-parent";
      continue;
    }
    if (lv < 0 || lv > snapshot.levels_completed) return "level-range";
    if (static_cast<vid_t>(v) == source) continue;
    if (pv < 0 || static_cast<std::size_t>(pv) >= n) return "parent-range";
    if (snapshot.level[static_cast<std::size_t>(pv)] != lv - 1) {
      return "tree-property";
    }
  }
  if (snapshot.global_frontier !=
      static_cast<std::int64_t>(snapshot.frontier.size())) {
    return "frontier-count";
  }
  level_t frontier_level = -1;
  for (vid_t v : snapshot.frontier) {
    if (v < 0 || static_cast<std::size_t>(v) >= n) return "frontier-range";
    const level_t lv = snapshot.level[static_cast<std::size_t>(v)];
    if (lv == kUnreached) return "frontier-unvisited";
    if (frontier_level < 0) frontier_level = lv;
    if (lv != frontier_level) return "frontier-level";
  }
  return nullptr;
}

void CheckpointStore::arm(const RecoverOptions& options) {
  options_ = options;
  armed_ = true;
  journal_.clear();
  snapshots_.clear();
  base_parent_.clear();
  base_level_.clear();
  view_ = Checkpoint{};
  view_index_ = kNone;
  prev_visited_ = 0;
  taken_ = 0;
  bytes_ = 0;
}

std::uint64_t CheckpointStore::take(Checkpoint snapshot) {
  const std::size_t n = snapshot.level.size();
  if (snapshot.parent.size() != n ||
      (!snapshots_.empty() && n != base_level_.size())) {
    throw std::invalid_argument(
        "checkpoint arrays must cover the store's vertex count");
  }
  const std::int64_t visited = count_visited(snapshot.level);
  // Incremental on the wire: only entries visited since the previous
  // snapshot ship to the replica, plus the frontier list. The level-0
  // snapshot (just the source) is free by the same rule.
  const std::int64_t fresh = visited - prev_visited_;
  const std::uint64_t increment =
      static_cast<std::uint64_t>(fresh > 0 ? fresh : 0) *
          (sizeof(vid_t) + sizeof(level_t)) +
      snapshot.frontier.size() * sizeof(vid_t);
  prev_visited_ = visited;

  if (snapshots_.empty()) {
    base_parent_.assign(n, kNoVertex);
    base_level_.assign(n, kUnreached);
  }
  const std::vector<vid_t> parent = std::exchange(snapshot.parent, {});
  const std::vector<level_t> level = std::exchange(snapshot.level, {});
  // A BFS gives a vertex only two entries, unvisited and its final one,
  // and they differ in both fields; a flipped bit changes one field, so
  // a rotted entry at the journal's end never matches the live arrays and
  // is always rewritten here.
  for (std::size_t v = 0; v < n; ++v) {
    if (parent[v] == base_parent_[v] && level[v] == base_level_[v]) continue;
    const auto vertex = static_cast<vid_t>(v);
    journal_.push_back(
        {vertex, parent[v], level[v], entry_hash(vertex, parent[v], level[v])});
    base_parent_[v] = parent[v];
    base_level_[v] = level[v];
  }
  Snapshot snap;
  snap.checksum = checkpoint_checksum(snapshot);
  snap.header = std::move(snapshot);
  snap.end = journal_.size();
  snapshots_.push_back(std::move(snap));
  ++taken_;
  bytes_ += increment;
  return increment;
}

std::size_t CheckpointStore::newest_live() const noexcept {
  for (std::size_t k = snapshots_.size(); k-- > 0;) {
    if (!snapshots_[k].rejected) return k;
  }
  return kNone;
}

std::size_t CheckpointStore::stored() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(snapshots_.begin(), snapshots_.end(),
                    [](const Snapshot& s) { return !s.rejected; }));
}

/// One forward pass over the journal, hashing every entry once while
/// tracking how many vertices' current entry has rotted: clean[k] says
/// whether snapshot k is live and its header and every entry it reads
/// still verify.
std::vector<char> CheckpointStore::verify() const {
  std::vector<char> rotted(base_level_.size(), 0);
  std::size_t rotted_now = 0;
  std::vector<char> clean(snapshots_.size(), 0);
  std::size_t e = 0;
  for (std::size_t k = 0; k < snapshots_.size(); ++k) {
    const Snapshot& s = snapshots_[k];
    for (; e < s.end; ++e) {
      const Entry& entry = journal_[e];
      char& r = rotted[static_cast<std::size_t>(entry.vertex)];
      rotted_now -= static_cast<std::size_t>(r);
      r = entry_hash(entry.vertex, entry.parent, entry.level) != entry.hash;
      rotted_now += static_cast<std::size_t>(r);
    }
    clean[k] = !s.rejected && rotted_now == 0 &&
               checkpoint_checksum(s.header) == s.checksum;
  }
  return clean;
}

/// Materialize the arrays the journal's first `end` entries describe.
void CheckpointStore::replay(std::size_t end, std::vector<vid_t>& parent,
                             std::vector<level_t>& level) const {
  parent.assign(base_level_.size(), kNoVertex);
  level.assign(base_level_.size(), kUnreached);
  for (std::size_t e = 0; e < end; ++e) {
    const auto v = static_cast<std::size_t>(journal_[e].vertex);
    parent[v] = journal_[e].parent;
    level[v] = journal_[e].level;
  }
}

Checkpoint CheckpointStore::latest() const {
  const std::size_t k = newest_live();
  if (k == kNone) return Checkpoint{};
  Checkpoint snapshot = snapshots_[k].header;
  replay(snapshots_[k].end, snapshot.parent, snapshot.level);
  return snapshot;
}

const Checkpoint& CheckpointStore::newest_clean(vid_t source) {
  const std::vector<char> clean = verify();
  for (std::size_t k = snapshots_.size(); k-- > 0;) {
    if (!clean[k]) continue;
    view_ = snapshots_[k].header;
    replay(snapshots_[k].end, view_.parent, view_.level);
    if (checkpoint_defect(view_, source) != nullptr) continue;
    view_index_ = k;
    return view_;
  }
  view_ = Checkpoint{};
  view_index_ = kNone;
  return view_;
}

void CheckpointStore::rollback_to(const Checkpoint& snapshot) {
  const std::size_t keep =
      &snapshot == &view_ && view_index_ != kNone ? view_index_ + 1 : 0;
  if (keep == 0) view_index_ = kNone;
  snapshots_.resize(keep);
  journal_.resize(snapshots_.empty() ? 0 : snapshots_.back().end);
  replay(journal_.size(), base_parent_, base_level_);
  // Reset the incremental baseline: the next take() re-ships everything
  // the discarded snapshots had already replicated.
  prev_visited_ = count_visited(snapshot.level);
}

bool CheckpointStore::corrupt_latest(std::uint64_t shape) {
  const std::size_t k = newest_live();
  if (k == kNone) return false;
  Snapshot& target = snapshots_[k];
  const std::size_t n = base_level_.size();
  // Pick a non-empty array, then an item and a bit, like the wire-payload
  // corrupter in comm.hpp, over the arrays this replica reads — the
  // stored hashes are deliberately left stale, which is what
  // distinguishes rot from a legitimate rewrite.
  enum class Array { kParent, kLevel, kFrontier };
  std::vector<Array> arrays;
  if (n > 0) arrays = {Array::kParent, Array::kLevel};
  if (!target.header.frontier.empty()) arrays.push_back(Array::kFrontier);
  if (arrays.empty()) return false;
  const Array array = arrays[(shape >> 8) % arrays.size()];
  const auto flip = [shape](auto& item) {
    auto* bytes = reinterpret_cast<unsigned char*>(&item);
    bytes[(shape >> 40) % sizeof(item)] ^=
        static_cast<unsigned char>(1u << ((shape >> 50) % 8));
  };
  if (array == Array::kFrontier) {
    flip(target.header.frontier[(shape >> 16) % target.header.frontier.size()]);
    return true;
  }

  const auto v = static_cast<vid_t>((shape >> 16) % n);
  const std::size_t begin = k == 0 ? 0 : snapshots_[k - 1].end;
  std::size_t at = target.end;  // one past the entry this replica reads
  while (at > 0 && journal_[at - 1].vertex != v) --at;
  if (at <= begin) {
    // Written by an older snapshot (or never): journal a copy under the
    // original hash into this replica's range, for the flip to land on.
    const Entry original =
        at > 0 ? journal_[at - 1]
               : Entry{v, kNoVertex, kUnreached,
                       entry_hash(v, kNoVertex, kUnreached)};
    at = target.end + 1;
    journal_.insert(journal_.begin() + static_cast<std::ptrdiff_t>(at - 1),
                    original);
    for (std::size_t j = k; j < snapshots_.size(); ++j) ++snapshots_[j].end;
  }
  Entry& entry = journal_[at - 1];
  if (array == Array::kParent) {
    flip(entry.parent);
  } else {
    flip(entry.level);
  }
  // Keep the diff base equal to the journal's end state.
  const bool shadowed = std::any_of(
      journal_.begin() + static_cast<std::ptrdiff_t>(at), journal_.end(),
      [v](const Entry& e) { return e.vertex == v; });
  if (!shadowed) {
    base_parent_[static_cast<std::size_t>(v)] = entry.parent;
    base_level_[static_cast<std::size_t>(v)] = entry.level;
  }
  return true;
}

int CheckpointStore::scrub() {
  const std::vector<char> clean = verify();
  int rejected = 0;
  for (std::size_t k = 0; k < snapshots_.size(); ++k) {
    if (snapshots_[k].rejected || clean[k]) continue;
    snapshots_[k].rejected = true;
    ++rejected;
  }
  return rejected;
}

std::uint64_t restore_payload_bytes(const Checkpoint& snapshot) {
  const std::int64_t visited = count_visited(snapshot.level);
  return static_cast<std::uint64_t>(visited > 0 ? visited : 0) *
             (sizeof(vid_t) + sizeof(level_t)) +
         snapshot.frontier.size() * sizeof(vid_t);
}

std::uint64_t shard_payload_bytes(std::uint64_t shard_vertices) noexcept {
  return shard_vertices * (sizeof(vid_t) + sizeof(level_t));
}

}  // namespace dbfs::recover
