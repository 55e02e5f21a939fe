#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <ostream>

namespace dbfs::util {

const JsonValue& JsonValue::at(const std::string& key) const {
  if (kind != Kind::kObject) {
    throw JsonError("json: member lookup '" + key + "' on a non-object");
  }
  auto it = members.find(key);
  if (it == members.end()) throw JsonError("json: missing key '" + key + "'");
  return it->second;
}

double JsonValue::as_number() const {
  if (kind != Kind::kNumber) throw JsonError("json: expected a number");
  return number;
}

std::int64_t JsonValue::as_int() const {
  return static_cast<std::int64_t>(as_number());
}

bool JsonValue::as_bool() const {
  if (kind != Kind::kBool) throw JsonError("json: expected a bool");
  return boolean;
}

const std::string& JsonValue::as_string() const {
  if (kind != Kind::kString) throw JsonError("json: expected a string");
  return text;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  return has(key) ? at(key).as_number() : fallback;
}

std::int64_t JsonValue::int_or(const std::string& key,
                               std::int64_t fallback) const {
  return has(key) ? at(key).as_int() : fallback;
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  return has(key) ? at(key).as_string() : fallback;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError("json: " + why + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.text = string();
        return v;
      }
      case 't':
      case 'f':
        return boolean();
      case 'n':
        literal("null");
        return JsonValue{};
      default:
        return number();
    }
  }

  void literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) expect(*p);
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (peek() == 't') {
      literal("true");
      v.boolean = true;
    } else {
      literal("false");
      v.boolean = false;
    }
    return v;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("malformed number '" + token + "'");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = parsed;
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            // Exactly four hex digits: no sign, prefix or short read.
            unsigned code = 0;
            const char* hex = text_.data() + pos_;
            const auto [end, ec] = std::from_chars(hex, hex + 4, code, 16);
            if (ec != std::errc{} || end != hex + 4) fail("bad \\u escape");
            pos_ += 4;
            // JsonWriter \u-escapes only control characters; anything in
            // the BMP below 0x80 maps straight to one byte, the rest is
            // kept as a replacement '?' (we never emit it).
            out += code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default:
            fail("unknown escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;  // name the control byte's own offset
        fail("raw control byte in string");
      } else {
        out += c;
      }
    }
    return out;
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (consume(']')) return v;
    while (true) {
      v.items.push_back(value());
      skip_ws();
      if (consume(']')) break;
      expect(',');
    }
    return v;
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.members[std::move(key)] = value();
      skip_ws();
      if (consume('}')) break;
      expect(',');
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) { return Parser(text).parse(); }

JsonWriter::JsonWriter(std::ostream& out, int precision)
    : out_(&out), saved_precision_(out.precision()) {
  if (precision > 0) out.precision(precision);
}

JsonWriter::~JsonWriter() { out_->precision(saved_precision_); }

void JsonWriter::separate() {
  if (!first_) *out_ << ',';
  first_ = false;
}

JsonWriter& JsonWriter::object() {
  separate();
  *out_ << '{';
  closers_ += '}';
  first_ = true;
  return *this;
}

JsonWriter& JsonWriter::array() {
  separate();
  *out_ << '[';
  closers_ += ']';
  first_ = true;
  return *this;
}

JsonWriter& JsonWriter::end() {
  *out_ << closers_.back();
  closers_.pop_back();
  first_ = false;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  value(name);
  *out_ << ':';
  first_ = true;  // the member's value takes no comma
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  separate();
  *out_ << (flag ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  separate();
  std::ostream& out = *out_;
  out << '"';
  std::size_t plain = 0;  // start of the run of bytes that need no escape
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.write(text.data() + plain, static_cast<std::streamsize>(i - plain));
    plain = i + 1;
    if (c == '"' || c == '\\') {
      out << '\\' << static_cast<char>(c);
    } else if (c == '\n') {
      out << "\\n";
    } else if (c == '\t') {
      out << "\\t";
    } else {
      out << "\\u00" << "0123456789abcdef"[c >> 4]
          << "0123456789abcdef"[c & 0xf];
    }
  }
  out.write(text.data() + plain,
            static_cast<std::streamsize>(text.size() - plain));
  out << '"';
  return *this;
}

}  // namespace dbfs::util
