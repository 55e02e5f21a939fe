#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace dbfs::util {

template <typename T>
T parse_number(const std::string& text, const std::string& what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) {
    throw std::invalid_argument(
        (what.empty() ? "" : what + ": ") + "expected " +
        (std::is_integral_v<T> ? "an integer" : "a number") + ", got '" +
        text + "'");
  }
  return value;
}

template int parse_number<int>(const std::string&, const std::string&);
template std::int64_t parse_number<std::int64_t>(const std::string&,
                                                 const std::string&);
template std::uint64_t parse_number<std::uint64_t>(const std::string&,
                                                   const std::string&);
template double parse_number<double>(const std::string&, const std::string&);

int require_positive(int value, const std::string& what) {
  if (value < 1) {
    throw std::invalid_argument(what + ": expected at least 1, got " +
                                std::to_string(value));
  }
  return value;
}

ArgParser::ArgParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "";  // bare flag
    }
  }
}

ArgParser& ArgParser::describe(const std::string& key, const std::string& help,
                               const std::string& default_text) {
  descriptions_.push_back({key, help, default_text});
  return *this;
}

bool ArgParser::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string ArgParser::get(const std::string& key,
                           const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t ArgParser::get_int(const std::string& key,
                                std::int64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end()
             ? fallback
             : parse_number<std::int64_t>(it->second, "--" + key);
}

double ArgParser::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : parse_number<double>(it->second, "--" + key);
}

bool ArgParser::get_flag(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return false;
  return it->second.empty() || (it->second != "0" && it->second != "false");
}

std::vector<std::string> ArgParser::unknown_keys() const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : values_) {
    (void)value;
    const bool described =
        std::any_of(descriptions_.begin(), descriptions_.end(),
                    [&](const Description& d) { return d.key == key; });
    if (!described) unknown.push_back(key);
  }
  return unknown;
}

std::string ArgParser::usage() const {
  std::ostringstream out;
  out << "usage: " << program_ << " [options]\n";
  for (const auto& d : descriptions_) {
    out << "  --" << d.key;
    if (!d.default_text.empty()) out << " (default: " << d.default_text << ")";
    out << "\n      " << d.help << "\n";
  }
  return out.str();
}

}  // namespace dbfs::util
