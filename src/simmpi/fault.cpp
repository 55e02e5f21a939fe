#include "simmpi/fault.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "util/json.hpp"
#include "util/prng.hpp"

namespace dbfs::simmpi {

namespace {

// Distinct stream tags so the failure, corruption, and shape draws of the
// same event index never correlate.
constexpr std::uint64_t kFailStream = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kCorruptStream = 0xbf58476d1ce4e5b9ULL;
constexpr std::uint64_t kShapeStream = 0x94d049bb133111ebULL;
constexpr std::uint64_t kFlipStream = 0xd6e8feb86659fd93ULL;

std::uint64_t draw_u64(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t event) noexcept {
  return util::mix64(seed ^ util::mix64(stream + event * kFailStream));
}

double unit_double(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* to_string(CorruptKind kind) {
  switch (kind) {
    case CorruptKind::kNone:
      return "none";
    case CorruptKind::kBitFlip:
      return "bitflip";
    case CorruptKind::kDrop:
      return "drop";
    case CorruptKind::kDuplicate:
      return "dup";
    case CorruptKind::kMix:
      return "mix";
  }
  return "?";
}

CorruptKind parse_corrupt_kind(const std::string& name) {
  if (name == "bitflip") return CorruptKind::kBitFlip;
  if (name == "drop") return CorruptKind::kDrop;
  if (name == "dup" || name == "duplicate") return CorruptKind::kDuplicate;
  if (name == "mix") return CorruptKind::kMix;
  throw std::invalid_argument("unknown corruption kind: " + name);
}

const char* to_string(FlipTarget target) {
  switch (target) {
    case FlipTarget::kParents:
      return "parents";
    case FlipTarget::kLevels:
      return "levels";
    case FlipTarget::kVisited:
      return "visited";
    case FlipTarget::kDirop:
      return "dirop";
    case FlipTarget::kCheckpoint:
      return "checkpoint";
  }
  return "?";
}

FlipTarget parse_flip_target(const std::string& name) {
  if (name == "parents") return FlipTarget::kParents;
  if (name == "levels") return FlipTarget::kLevels;
  if (name == "visited") return FlipTarget::kVisited;
  if (name == "dirop") return FlipTarget::kDirop;
  if (name == "checkpoint") return FlipTarget::kCheckpoint;
  throw std::invalid_argument("unknown flip target: " + name);
}

namespace {

std::string fault_message(const std::string& site, const std::string& kind,
                          int attempts, int rank, int level) {
  std::string msg = "fault injection: unrecoverable " + kind + " at " + site +
                    " after " + std::to_string(attempts) + " attempts";
  if (rank >= 0) msg += " (rank " + std::to_string(rank) + ")";
  if (level >= 0) msg += " (level " + std::to_string(level) + ")";
  return msg;
}

std::string rank_failed_message(const std::string& site, int rank,
                                int level) {
  std::string msg = "rank failure: rank " + std::to_string(rank) +
                    " is dead, detected at collective " + site;
  if (level >= 0) msg += " (level " + std::to_string(level) + ")";
  return msg;
}

std::string audit_failed_message(const std::string& site,
                                 const std::string& check, int rank,
                                 int level, std::int64_t sample_vertex) {
  std::string msg = "silent data corruption: " + check + " failed at " + site;
  if (rank >= 0) msg += " (rank " + std::to_string(rank) + ")";
  if (level >= 0) msg += " (level " + std::to_string(level) + ")";
  if (sample_vertex >= 0) {
    msg += " (sample vertex " + std::to_string(sample_vertex) + ")";
  }
  return msg;
}

}  // namespace

FaultError::FaultError(std::string site, std::string kind, int attempts,
                       int rank, int level)
    : std::runtime_error(fault_message(site, kind, attempts, rank, level)),
      site_(std::move(site)),
      kind_(std::move(kind)),
      attempts_(attempts),
      rank_(rank),
      level_(level) {}

FaultError::FaultError(Prebuilt, const std::string& message,
                       std::string site, std::string kind, int attempts,
                       int rank, int level)
    : std::runtime_error(message),
      site_(std::move(site)),
      kind_(std::move(kind)),
      attempts_(attempts),
      rank_(rank),
      level_(level) {}

RankFailedError::RankFailedError(std::string site, int rank, int level,
                                 double virtual_time)
      // No std::move(site): the message argument also reads it, and
      // argument evaluation order is unspecified.
    : FaultError(Prebuilt{}, rank_failed_message(site, rank, level), site,
                 "rank-failure", 1, rank, level),
      virtual_time_(virtual_time) {}

AuditFailedError::AuditFailedError(std::string site, std::string check,
                                   int rank, int level,
                                   std::int64_t sample_vertex,
                                   double virtual_time)
      // No std::move(site/check): the message argument also reads them.
    : FaultError(Prebuilt{},
                 audit_failed_message(site, check, rank, level,
                                      sample_vertex),
                 site, "audit-failure", 1, rank, level),
      check_(std::move(check)),
      sample_vertex_(sample_vertex),
      virtual_time_(virtual_time) {}

bool FaultPlan::enabled() const noexcept {
  return collective_fail_rate > 0.0 || corrupt_rate > 0.0 ||
         !compute_stragglers.empty() || !nic_stragglers.empty() ||
         !rank_kills.empty() || !mem_flips.empty();
}

double FaultPlan::compute_factor(int rank) const noexcept {
  double factor = 1.0;
  for (const auto& [r, f] : compute_stragglers) {
    if (r == rank) factor *= f;
  }
  return factor;
}

double FaultPlan::nic_slowdown(int rank) const noexcept {
  double factor = 1.0;
  for (const auto& [r, f] : nic_stragglers) {
    if (r == rank) factor *= f;
  }
  return factor;
}

bool FaultPlan::collective_fails(std::uint64_t event) const noexcept {
  if (collective_fail_rate <= 0.0) return false;
  return unit_double(draw_u64(seed, kFailStream, event)) <
         collective_fail_rate;
}

CorruptKind FaultPlan::corruption_at(std::uint64_t event) const noexcept {
  if (corrupt_rate <= 0.0) return CorruptKind::kNone;
  const std::uint64_t h = draw_u64(seed, kCorruptStream, event);
  if (unit_double(h) >= corrupt_rate) return CorruptKind::kNone;
  if (corrupt_kind != CorruptKind::kMix) return corrupt_kind;
  switch (h % 3) {
    case 0:
      return CorruptKind::kBitFlip;
    case 1:
      return CorruptKind::kDrop;
    default:
      return CorruptKind::kDuplicate;
  }
}

std::uint64_t FaultPlan::shape_draw(std::uint64_t event) const noexcept {
  return draw_u64(seed, kShapeStream, event);
}

std::uint64_t FaultPlan::flip_shape(const MemFlip& flip) const noexcept {
  // Keyed by the flip's identity, not an event counter: the victim stays
  // the same however many recovery replays preceded the injection.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(flip.rank))
       << 34) ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(flip.at_level))
       << 3) ^
      static_cast<std::uint64_t>(flip.target);
  return draw_u64(seed, kFlipStream, key);
}

double FaultPlan::backoff_seconds(int attempt) const noexcept {
  const int shift = std::min(attempt, 52);
  const double pause =
      backoff_base_seconds * static_cast<double>(std::uint64_t{1} << shift);
  return std::min(pause, backoff_cap_seconds);
}

namespace {

std::vector<std::pair<int, double>> read_pairs(const util::JsonValue& doc,
                                               const std::string& key) {
  std::vector<std::pair<int, double>> pairs;
  if (!doc.has(key)) return pairs;
  for (const auto& item : doc.at(key).items) {
    pairs.emplace_back(static_cast<int>(item.items.at(0).as_int()),
                       item.items.at(1).as_number());
  }
  return pairs;
}

}  // namespace

std::string to_json(const FaultPlan& plan) {
  std::ostringstream out;
  util::JsonWriter json(out, util::JsonWriter::kExact);
  json.object()
      .field("seed", plan.seed)
      .field("collective_fail_rate", plan.collective_fail_rate)
      .field("max_collective_retries", plan.max_collective_retries)
      .field("backoff_base_seconds", plan.backoff_base_seconds)
      .field("backoff_cap_seconds", plan.backoff_cap_seconds)
      .field("corrupt_rate", plan.corrupt_rate)
      .field("corrupt_kind", to_string(plan.corrupt_kind))
      .field("max_payload_retries", plan.max_payload_retries)
      .field("compute_stragglers", plan.compute_stragglers)
      .field("nic_stragglers", plan.nic_stragglers);
  if (!plan.rank_kills.empty()) {
    json.array("rank_kills");
    for (const RankKill& k : plan.rank_kills) {
      json.object().field("rank", k.rank);
      if (k.at_level >= 0) json.field("at_level", k.at_level);
      if (k.at_time >= 0.0) json.field("at_time", k.at_time);
      json.end();
    }
    json.end();
  }
  if (!plan.mem_flips.empty()) {
    json.array("mem_flips");
    for (const MemFlip& f : plan.mem_flips) {
      json.object().field("rank", f.rank);
      if (f.at_level >= 0) json.field("at_level", f.at_level);
      json.field("target", to_string(f.target)).end();
    }
    json.end();
  }
  json.end();
  return out.str();
}

namespace {

// Forward-compat guard: a plan written by a newer binary may carry keys
// this build does not understand. Silently dropping them would make the
// plan partially inert without a trace, so each unknown key warns once
// (per process) to stderr.
void warn_unknown_plan_keys(const util::JsonValue& doc) {
  static const char* const known[] = {
      "seed",           "collective_fail_rate", "max_collective_retries",
      "backoff_base_seconds", "backoff_cap_seconds", "corrupt_rate",
      "corrupt_kind",   "max_payload_retries",  "compute_stragglers",
      "nic_stragglers", "rank_kills",           "mem_flips",
  };
  static std::set<std::string> warned;
  for (const auto& [key, value] : doc.members) {
    (void)value;
    bool ok = false;
    for (const char* k : known) {
      if (key == k) {
        ok = true;
        break;
      }
    }
    if (ok || !warned.insert(key).second) continue;
    std::fprintf(stderr,
                 "warning: fault plan key \"%s\" is not understood by this "
                 "build and will be ignored\n",
                 key.c_str());
  }
}

}  // namespace

FaultPlan fault_plan_from_json(const std::string& text) {
  const util::JsonValue doc = util::parse_json(text);
  warn_unknown_plan_keys(doc);
  FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(doc.int_or("seed", 0));
  plan.collective_fail_rate = doc.number_or("collective_fail_rate", 0.0);
  plan.max_collective_retries = static_cast<int>(
      doc.int_or("max_collective_retries", plan.max_collective_retries));
  plan.backoff_base_seconds =
      doc.number_or("backoff_base_seconds", plan.backoff_base_seconds);
  plan.backoff_cap_seconds =
      doc.number_or("backoff_cap_seconds", plan.backoff_cap_seconds);
  plan.corrupt_rate = doc.number_or("corrupt_rate", 0.0);
  plan.corrupt_kind =
      parse_corrupt_kind(doc.string_or("corrupt_kind", "mix"));
  plan.max_payload_retries = static_cast<int>(
      doc.int_or("max_payload_retries", plan.max_payload_retries));
  plan.compute_stragglers = read_pairs(doc, "compute_stragglers");
  plan.nic_stragglers = read_pairs(doc, "nic_stragglers");
  // Absent in pre-kill plans: loads as an empty (inert) schedule.
  if (doc.has("rank_kills")) {
    for (const auto& item : doc.at("rank_kills").items) {
      RankKill kill;
      kill.rank = static_cast<int>(item.int_or("rank", -1));
      kill.at_level = static_cast<int>(item.int_or("at_level", -1));
      kill.at_time = item.number_or("at_time", -1.0);
      plan.rank_kills.push_back(kill);
    }
  }
  // Absent in pre-SDC plans: loads as an empty (inert) schedule.
  if (doc.has("mem_flips")) {
    for (const auto& item : doc.at("mem_flips").items) {
      MemFlip flip;
      flip.rank = static_cast<int>(item.int_or("rank", -1));
      flip.at_level = static_cast<int>(item.int_or("at_level", -1));
      flip.target = parse_flip_target(item.string_or("target", "parents"));
      plan.mem_flips.push_back(flip);
    }
  }
  return plan;
}

FaultPlan load_fault_plan(const std::string& spec, FaultPlan base) {
  if (spec.rfind("kill:", 0) == 0) {
    base.rank_kills = parse_kill_specs(spec.substr(5));
  } else if (spec.rfind("flip:", 0) == 0) {
    base.mem_flips = parse_flip_specs(spec.substr(5));
  } else {
    std::ifstream file(spec);
    if (!file) throw std::invalid_argument("cannot open fault plan: " + spec);
    std::ostringstream text;
    text << file.rdbuf();
    base = fault_plan_from_json(text.str());
  }
  return base;
}

std::vector<RankKill> parse_kill_specs(const std::string& spec) {
  std::vector<RankKill> kills;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t at = item.find('@');
    if (at == std::string::npos || at == 0) {
      throw std::invalid_argument("kill spec '" + item +
                                  "': expected RANK@levelL or RANK@tSECONDS");
    }
    RankKill kill;
    char* end = nullptr;
    kill.rank = static_cast<int>(std::strtol(item.c_str(), &end, 10));
    if (end != item.c_str() + at || kill.rank < 0) {
      throw std::invalid_argument("kill spec '" + item + "': bad rank");
    }
    const std::string trigger = item.substr(at + 1);
    if (trigger.rfind("level", 0) == 0) {
      const char* digits = trigger.c_str() + 5;
      kill.at_level = static_cast<int>(std::strtol(digits, &end, 10));
      if (end == digits || *end != '\0' || kill.at_level < 0) {
        throw std::invalid_argument("kill spec '" + item + "': bad level");
      }
    } else if (trigger.rfind("t", 0) == 0) {
      const char* digits = trigger.c_str() + 1;
      kill.at_time = std::strtod(digits, &end);
      if (end == digits || *end != '\0' || kill.at_time < 0.0) {
        throw std::invalid_argument("kill spec '" + item + "': bad time");
      }
    } else {
      throw std::invalid_argument("kill spec '" + item +
                                  "': trigger must be levelL or tSECONDS");
    }
    kills.push_back(kill);
  }
  if (kills.empty()) {
    throw std::invalid_argument("empty kill spec: " + spec);
  }
  return kills;
}

std::vector<MemFlip> parse_flip_specs(const std::string& spec) {
  std::vector<MemFlip> flips;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t at = item.find('@');
    const std::size_t colon = item.find(':');
    if (at == std::string::npos || at == 0 || colon == std::string::npos ||
        colon < at) {
      throw std::invalid_argument("flip spec '" + item +
                                  "': expected RANK@levelL:target");
    }
    MemFlip flip;
    char* end = nullptr;
    flip.rank = static_cast<int>(std::strtol(item.c_str(), &end, 10));
    if (end != item.c_str() + at || flip.rank < 0) {
      throw std::invalid_argument("flip spec '" + item + "': bad rank");
    }
    const std::string trigger = item.substr(at + 1, colon - at - 1);
    if (trigger.rfind("level", 0) != 0) {
      throw std::invalid_argument("flip spec '" + item +
                                  "': trigger must be levelL");
    }
    const char* digits = trigger.c_str() + 5;
    flip.at_level = static_cast<int>(std::strtol(digits, &end, 10));
    if (end == digits || *end != '\0' || flip.at_level < 0) {
      throw std::invalid_argument("flip spec '" + item + "': bad level");
    }
    flip.target = parse_flip_target(item.substr(colon + 1));
    flips.push_back(flip);
  }
  if (flips.empty()) {
    throw std::invalid_argument("empty flip spec: " + spec);
  }
  return flips;
}

}  // namespace dbfs::simmpi
