#include "util/log.hpp"

#include <cstdio>
#include <mutex>

#include "util/options.hpp"

namespace dbfs::util {

LogLevel log_threshold() {
  static const LogLevel threshold = [] {
    if (env_flag("DISTBFS_QUIET")) return LogLevel::kError;
    if (env_flag("DISTBFS_VERBOSE")) return LogLevel::kDebug;
    return LogLevel::kInfo;
  }();
  return threshold;
}

void log_message(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(log_threshold())) return;
  static std::mutex mu;
  static const char* const kNames[] = {"DEBUG", "INFO", "WARN", "ERROR"};
  std::lock_guard<std::mutex> lock(mu);
  std::fprintf(stderr, "[distbfs %s] %s\n", kNames[static_cast<int>(level)],
               message.c_str());
}

}  // namespace dbfs::util
