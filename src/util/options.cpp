#include "util/options.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace dbfs::util {

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(raw, &end, 10);
  if (end == raw) return fallback;
  return static_cast<std::int64_t>(value);
}

bool env_flag(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return false;
  const std::string_view v{raw};
  return !v.empty() && v != "0" && v != "false" && v != "FALSE";
}

int bench_scale(int dflt) {
  if (env_flag("DISTBFS_FAST")) dflt = std::max(10, dflt - 4);
  return static_cast<int>(env_int("DISTBFS_SCALE", dflt));
}

std::vector<std::pair<int, double>> parse_rank_factors(
    const std::string& spec) {
  std::vector<std::pair<int, double>> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= item.size()) {
      throw std::invalid_argument("expected rank:factor, got '" + item + "'");
    }
    char* end = nullptr;
    const std::string rank_text = item.substr(0, colon);
    const long rank = std::strtol(rank_text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      throw std::invalid_argument("bad rank in '" + item + "'");
    }
    const std::string factor_text = item.substr(colon + 1);
    end = nullptr;
    const double factor = std::strtod(factor_text.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      throw std::invalid_argument("bad factor in '" + item + "'");
    }
    out.emplace_back(static_cast<int>(rank), factor);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace dbfs::util
