// One binding from command-line flags to EngineOptions, shared by
// bfs_tool, graph500_runner and bench_suite, so all three take the same
// engine flags in both spellings ("--key value", "--key=value") with one
// help text, one default and one error message each. A tool keeps only
// its run axes (algorithm, core count, wire format), its output paths and
// its own counters.
#pragma once

#include <string>

#include "core/engine.hpp"
#include "util/cli.hpp"

namespace dbfs::core {

/// Declare the 18 engine flags (--threads ... --spare-ranks) on `args`.
/// The defaults shown are those of a base with model::hopper(), which
/// every tool passes.
void describe_engine_flags(util::ArgParser& args);

/// `base` with every engine flag present in `args` applied; an absent
/// flag leaves its field as `base` has it. A malformed value throws
/// std::invalid_argument whose message starts with the flag, and so does
/// a value out of range: a negative --threads, --checkpoint-every,
/// --audit-every or --spare-ranks, or a --fail-rate or --corrupt-rate
/// outside [0, 1]. --alpha and --beta take any number (<= 0 derives the
/// threshold from the machine model).
EngineOptions apply_engine_flags(const util::ArgParser& args,
                                 EngineOptions base);

/// parse_algorithm limited to the four 1D/2D engines (1d, 1d-hybrid, 2d,
/// 2d-hybrid), the only names graph500_runner and bench_suite take: a
/// serial or shared run would put host time into their virtual-time
/// records.
Algorithm parse_paper_algorithm(const std::string& name);

}  // namespace dbfs::core
