// Minimal leveled logging to stderr. Benches keep stdout clean for table
// rows; diagnostics go through here and can be silenced with
// DISTBFS_QUIET=1 or amplified with DISTBFS_VERBOSE=1.
#pragma once

#include <sstream>
#include <string>

namespace dbfs::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Current threshold; messages below it are dropped.
LogLevel log_threshold();

void log_message(LogLevel level, const std::string& message);

namespace detail {

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { log_message(level_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace detail

inline detail::LogLine log_debug() { return detail::LogLine(LogLevel::kDebug); }
inline detail::LogLine log_info() { return detail::LogLine(LogLevel::kInfo); }
inline detail::LogLine log_warn() { return detail::LogLine(LogLevel::kWarn); }
inline detail::LogLine log_error() { return detail::LogLine(LogLevel::kError); }

}  // namespace dbfs::util
