// Environment-variable driven knobs shared by benches and examples, so a
// single binary can be re-run at larger scale without a rebuild:
//
//   DISTBFS_SCALE=20 ./bench/fig5_strong_scaling_franklin
//   DISTBFS_FAST=1   ctest          (shrinks everything for smoke runs)
//
// The project prefix is DISTBFS_ (matching the DISTBFS_SANITIZE CMake
// option).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dbfs::util {

/// Read an integer environment variable, returning `fallback` when the
/// variable is unset or unparsable.
std::int64_t env_int(const char* name, std::int64_t fallback);

/// True when the variable is set to anything other than "", "0", "false".
bool env_flag(const char* name);

/// Problem scale for benches: log2 of the vertex count. Honors
/// DISTBFS_SCALE; `dflt` applies otherwise, halved-ish under
/// DISTBFS_FAST.
int bench_scale(int dflt);

/// Parse "rank:factor[,rank:factor...]" lists — the spelling of the
/// --straggler / --degrade-nic CLI flags. Empty input yields an empty
/// list; malformed entries throw std::invalid_argument naming the
/// offending piece.
std::vector<std::pair<int, double>> parse_rank_factors(
    const std::string& spec);

}  // namespace dbfs::util
