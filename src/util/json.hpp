// JSON for the machine-readable artifacts the project itself emits (run
// reports, BENCH_*.json records, doctor reports, Chrome traces, flight,
// atlas and metrics dumps, fault plans): a streaming writer that every
// one of them is serialized with, plus a minimal document model and
// recursive-descent parser that reads them back. Not a general-purpose
// JSON library: numbers are doubles, objects are ordered maps, and
// errors throw JsonError naming the byte offset.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace dbfs::util {

struct JsonError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;               ///< kArray
  std::map<std::string, JsonValue> members;   ///< kObject

  bool is_object() const noexcept { return kind == Kind::kObject; }
  bool is_array() const noexcept { return kind == Kind::kArray; }
  bool is_number() const noexcept { return kind == Kind::kNumber; }
  bool is_string() const noexcept { return kind == Kind::kString; }

  bool has(const std::string& key) const {
    return members.find(key) != members.end();
  }
  /// Member access; throws JsonError when the key is absent or this is
  /// not an object.
  const JsonValue& at(const std::string& key) const;

  /// Typed accessors; throw JsonError on kind mismatch.
  double as_number() const;
  std::int64_t as_int() const;  ///< number, truncated toward zero
  bool as_bool() const;
  const std::string& as_string() const;

  /// at(key) with a fallback when the key is absent (kind mismatch on a
  /// present key still throws — a wrong type is a schema bug, not an
  /// optional field).
  double number_or(const std::string& key, double fallback) const;
  std::int64_t int_or(const std::string& key, std::int64_t fallback) const;
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;
};

/// Parse one JSON document; trailing non-whitespace content is an error,
/// as are a raw byte below 0x20 inside a string and a \u escape that is
/// not exactly four hex digits.
JsonValue parse_json(const std::string& text);

/// Streaming writer for one JSON document. Commas between members and
/// items are added automatically; keys and strings go through one
/// escaper (`"`, `\`, and bytes below 0x20 as \n, \t or \u00XX); numbers
/// print exactly as `operator<<` prints them at the stream's precision,
/// so a document's bytes depend only on its values and that precision.
///   JsonWriter json(out);
///   json.object().field("ranks", 16).field("per_rank", seconds)
///       .array("levels");
///   for (...) json.object().field("level", l).end();
///   json.end().end();
class JsonWriter {
 public:
  /// Precision that round-trips every double (BENCH records, doctor
  /// reports, flight dumps and fault plans are written at it).
  static constexpr int kExact = std::numeric_limits<double>::max_digits10;

  /// `precision` > 0 sets the stream's precision until the writer is
  /// destroyed; 0 writes at the caller's.
  explicit JsonWriter(std::ostream& out, int precision = 0);
  ~JsonWriter();
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  /// Open an object or array (as the next value); end() closes the
  /// innermost one.
  JsonWriter& object();
  JsonWriter& array();
  JsonWriter& end();
  /// A member name; the next value, object or array is its value.
  JsonWriter& key(std::string_view name);
  JsonWriter& object(std::string_view name) { return key(name).object(); }
  JsonWriter& array(std::string_view name) { return key(name).array(); }

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(bool flag);
  template <typename T>
    requires std::is_arithmetic_v<T>
  JsonWriter& value(T number) {
    separate();
    *out_ << number;
    return *this;
  }
  /// A vector is an array of its items, a pair a two-item array, a
  /// string-keyed map an object.
  template <typename T>
  JsonWriter& value(const std::vector<T>& items) {
    array();
    for (const T& item : items) value(item);
    return end();
  }
  template <typename A, typename B>
  JsonWriter& value(const std::pair<A, B>& items) {
    return array().value(items.first).value(items.second).end();
  }
  template <typename T>
  JsonWriter& value(const std::map<std::string, T>& members) {
    object();
    for (const auto& [name, member] : members) field(name, member);
    return end();
  }

  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

 private:
  void separate();

  std::ostream* out_;
  std::streamsize saved_precision_;
  std::string closers_;  ///< closing bracket of each open container
  bool first_ = true;    ///< no member or item yet at the current depth
};

}  // namespace dbfs::util
