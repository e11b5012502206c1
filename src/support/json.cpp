#include "support/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/error.hpp"

namespace plin::json {
namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw Error("json: " + what + " at offset " + std::to_string(pos));
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing garbage");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(pos_, std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail(pos_, "bad literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail(pos_, "bad literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail(pos_, "bad literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value(std::move(members));
    }
  }

  Value parse_array() {
    expect('[');
    Array elements;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(elements));
    }
    while (true) {
      elements.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value(std::move(elements));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail(pos_, "bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail(pos_, "bad \\u escape");
          }
          // UTF-8 encode the code point (surrogate pairs are not needed by
          // any writer in this repository, so a lone unit is emitted as-is).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail(pos_ - 1, "bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      eat_digits();
    }
    if (!digits) fail(start, "bad number");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail(start, "bad number");
    return Value(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_value(std::string& out, const Value& value) {
  switch (value.kind()) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += value.as_bool() ? "true" : "false"; break;
    case Kind::kNumber: out += format_number(value.as_number()); break;
    case Kind::kString: append_escaped(out, value.as_string()); break;
    case Kind::kArray: {
      out.push_back('[');
      const Array& a = value.as_array();
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i > 0) out.push_back(',');
        append_value(out, a[i]);
      }
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      out.push_back('{');
      const Object& o = value.as_object();
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (i > 0) out.push_back(',');
        append_escaped(out, o[i].first);
        out.push_back(':');
        append_value(out, o[i].second);
      }
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

bool Value::as_bool() const {
  PLIN_CHECK_MSG(kind_ == Kind::kBool, "json: value is not a bool");
  return bool_;
}

double Value::as_number() const {
  PLIN_CHECK_MSG(kind_ == Kind::kNumber, "json: value is not a number");
  return number_;
}

const std::string& Value::as_string() const {
  PLIN_CHECK_MSG(kind_ == Kind::kString, "json: value is not a string");
  return string_;
}

const Array& Value::as_array() const {
  PLIN_CHECK_MSG(kind_ == Kind::kArray, "json: value is not an array");
  return array_;
}

const Object& Value::as_object() const {
  PLIN_CHECK_MSG(kind_ == Kind::kObject, "json: value is not an object");
  return object_;
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* found = find(key);
  PLIN_CHECK_MSG(found != nullptr,
                 "json: missing object key: " + std::string(key));
  return *found;
}

void Value::set(std::string key, Value value) {
  PLIN_CHECK_MSG(kind_ == Kind::kObject, "json: set() on a non-object");
  for (auto& member : object_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

Value make_object() { return Value(Object{}); }

Value parse(std::string_view text) { return Parser(text).parse_document(); }

double checked_integer(const Value& value, double min, double limit) {
  const double v = value.as_number();
  if (!(v >= min && v < limit) || std::floor(v) != v) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "expected an integer in [%.17g, %.17g), got %.17g", min,
                  limit, v);
    throw InvalidArgument(buf);
  }
  return v;
}

std::string format_number(double value) {
  PLIN_CHECK_MSG(std::isfinite(value), "json: non-finite number");
  // 2^53: largest range where every integer is exactly representable.
  if (value == std::floor(value) && std::fabs(value) < 9007199254740992.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    return buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string serialize(const Value& value) {
  std::string out;
  append_value(out, value);
  return out;
}

}  // namespace plin::json
