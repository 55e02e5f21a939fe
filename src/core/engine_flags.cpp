#include "core/engine_flags.hpp"

#include <cstdint>
#include <stdexcept>

#include "util/options.hpp"

namespace dbfs::core {

void describe_engine_flags(util::ArgParser& args) {
  args.describe("threads", "threads per rank (0 = machine default)", "0")
      .describe("machine", "franklin | hopper | carver | generic", "hopper")
      .describe("backend", "spmsv back end: auto | spa | heap", "auto")
      .describe("triangular", "store only the upper triangle (2D only)")
      .describe("direction",
                "2D traversal direction: topdown | bottomup | hybrid "
                "(hybrid prices the per-level Beamer switch on the "
                "machine model)",
                "topdown")
      .describe("alpha",
                "bottom-up engage threshold: switch when m_f > m_u/alpha "
                "(<= 0 derives it from the machine model)",
                "14")
      .describe("beta",
                "bottom-up disengage threshold: return when frontier < "
                "n/beta (<= 0 derives it from the machine model)",
                "24")
      .describe("fault-seed", "seed for deterministic fault injection", "0")
      .describe("straggler",
                "compute stragglers as rank:factor[,rank:factor...]")
      .describe("degrade-nic",
                "degraded links as rank:factor[,rank:factor...]")
      .describe("fail-rate",
                "transient collective failure probability (0..1)", "0")
      .describe("corrupt-rate",
                "payload corruption probability per exchange (0..1)", "0")
      .describe("corrupt-mode", "bitflip | drop | dup | mix", "mix")
      .describe("fault-plan",
                "kill:RANK@levelL[,RANK@tSECONDS...] for fail-stop rank "
                "kills, flip:RANK@levelL:target[,...] for at-rest memory "
                "corruption (target: parents | levels | visited | dirop | "
                "checkpoint), or a path to a fault-plan JSON file "
                "(replaces the other fault flags)")
      .describe("checkpoint-every",
                "checkpoint cadence in levels for fail-stop recovery "
                "(0 = source-only replay)",
                "0")
      .describe("audit-every",
                "SDC state-audit cadence in levels (0 = only audit when "
                "a fault plan injects memory flips)",
                "0")
      .describe("recover-policy",
                "what replaces a dead rank: shrink | spare", "shrink")
      .describe("spare-ranks", "hot spares available to the spare policy",
                "1");
}

EngineOptions apply_engine_flags(const util::ArgParser& args,
                                 EngineOptions o) {
  // field = parse(value of --key) when the flag is present; a parse error
  // is rethrown naming the flag.
  const auto bind = [&args](const char* key, auto& field, auto parse) {
    if (!args.has(key)) return;
    try {
      field = parse(args.get(key, ""));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string("--") + key + ": " + e.what());
    }
  };
  const auto real = [](const std::string& v) {
    return util::parse_number<double>(v);
  };
  // Counts and cadences: 0 keeps its documented meaning, a negative
  // value has none.
  const auto count = [](const std::string& v) {
    const int value = util::parse_number<int>(v);
    if (value < 0) {
      throw std::invalid_argument("expected a count >= 0, got '" + v + "'");
    }
    return value;
  };
  const auto probability = [](const std::string& v) {
    const double value = util::parse_number<double>(v);
    if (!(value >= 0.0 && value <= 1.0)) {
      throw std::invalid_argument("expected a probability in [0, 1], got '" +
                                  v + "'");
    }
    return value;
  };
  const auto backend = [](const std::string& v) {
    for (const auto b : {sparse::SpmsvBackend::kAuto,
                         sparse::SpmsvBackend::kSpa,
                         sparse::SpmsvBackend::kHeap}) {
      if (v == sparse::to_string(b)) return b;
    }
    throw std::invalid_argument("unknown spmsv backend: " + v);
  };
  bind("threads", o.threads_per_rank, count);
  bind("machine", o.machine, model::preset);
  bind("backend", o.backend, backend);
  if (args.has("triangular")) {
    o.triangular_storage = args.get_flag("triangular");
  }
  bind("direction", o.direction, bfs::parse_direction_mode);
  bind("alpha", o.alpha, real);
  bind("beta", o.beta, real);
  bind("fault-seed", o.faults.seed, [](const std::string& v) {
    return util::parse_number<std::uint64_t>(v);
  });
  bind("straggler", o.faults.compute_stragglers, util::parse_rank_factors);
  bind("degrade-nic", o.faults.nic_stragglers, util::parse_rank_factors);
  bind("fail-rate", o.faults.collective_fail_rate, probability);
  bind("corrupt-rate", o.faults.corrupt_rate, probability);
  bind("corrupt-mode", o.faults.corrupt_kind, simmpi::parse_corrupt_kind);
  // Last of the fault flags: a kill: or flip: spec keeps the plan the
  // flags above built, a JSON file replaces it.
  bind("fault-plan", o.faults, [&o](const std::string& v) {
    return simmpi::load_fault_plan(v, o.faults);
  });
  bind("checkpoint-every", o.recover.checkpoint_every, count);
  bind("audit-every", o.recover.audit_every, count);
  bind("recover-policy", o.recover.policy, recover::parse_policy);
  bind("spare-ranks", o.recover.spare_ranks, count);
  return o;
}

Algorithm parse_paper_algorithm(const std::string& name) {
  for (const char* paper : {"1d", "1d-hybrid", "2d", "2d-hybrid"}) {
    if (name == paper) return parse_algorithm(name);
  }
  throw std::invalid_argument("unknown algorithm: " + name +
                              " (use 1d, 1d-hybrid, 2d or 2d-hybrid)");
}

}  // namespace dbfs::core
