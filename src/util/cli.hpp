// Minimal command-line flag parser for the example tools: supports
// "--key value", "--key=value", "--flag" booleans, and positional
// arguments, with typed accessors and generated usage text.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dbfs::util {

/// Parse all of `text` as a T (int, std::int64_t, std::uint64_t or
/// double). An empty string, trailing characters or a value out of T's
/// range throw std::invalid_argument; the message starts with `what` (the
/// flag or positional the text came from) when it is not empty.
template <typename T>
T parse_number(const std::string& text, const std::string& what = "");

/// `value` when it is at least 1; otherwise std::invalid_argument
/// "<what>: expected at least 1, got <value>". For the counts no run can
/// have zero of: cores, sources, repetitions.
int require_positive(int value, const std::string& what);

class ArgParser {
 public:
  /// `argv`-style input; argv[0] is taken as the program name.
  ArgParser(int argc, const char* const* argv);

  /// Declare an option (for usage text); returns *this for chaining.
  ArgParser& describe(const std::string& key, const std::string& help,
                      const std::string& default_text = "");

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  /// Typed accessors: `fallback` when the key is absent, else the value
  /// parsed by parse_number, which throws naming "--key" when the value
  /// is empty or malformed.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_flag(const std::string& key) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Keys that were passed but never `describe`d (likely typos).
  std::vector<std::string> unknown_keys() const;

  std::string usage() const;
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;

  struct Description {
    std::string key;
    std::string help;
    std::string default_text;
  };
  std::vector<Description> descriptions_;
};

}  // namespace dbfs::util
