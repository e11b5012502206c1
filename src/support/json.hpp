// Minimal JSON value model for the batch result store. Supports the full
// JSON grammar; objects preserve insertion order so that
// serialize(parse(serialize(v))) is byte-identical — the property the
// store's resume path relies on for deterministic reports. Numbers are
// emitted with 17 significant digits, so doubles round-trip exactly.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace plin::json {

class Value;

using Array = std::vector<Value>;
/// Ordered key/value list (no hashing: order is part of the byte format).
using Object = std::vector<std::pair<std::string, Value>>;

enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

class Value {
 public:
  Value() = default;
  Value(std::nullptr_t) {}  // NOLINT(runtime/explicit) - mirrors JSON null
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  Value(double d) : kind_(Kind::kNumber), number_(d) {}
  Value(int i) : kind_(Kind::kNumber), number_(i) {}
  Value(long l) : kind_(Kind::kNumber), number_(static_cast<double>(l)) {}
  Value(unsigned long u)
      : kind_(Kind::kNumber), number_(static_cast<double>(u)) {}
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  Value(const char* s) : kind_(Kind::kString), string_(s) {}
  Value(Array a) : kind_(Kind::kArray), array_(std::move(a)) {}
  Value(Object o) : kind_(Kind::kObject), object_(std::move(o)) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  /// Typed accessors; throw plin::Error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup; throws if not an object or the key is missing.
  const Value& at(std::string_view key) const;
  /// Object member lookup; returns nullptr when absent.
  const Value* find(std::string_view key) const;

  /// Sets a member on an object value (must be an object); replaces the
  /// existing member in place when the key is already present.
  void set(std::string key, Value value);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// as_integer's check: `value` is an integral number in [min, limit);
/// throws InvalidArgument otherwise.
double checked_integer(const Value& value, double min, double limit);

/// Reads `value` as an integer of type T no smaller than `min`. Outside
/// input gets this instead of a cast: a fraction, a negative count or a
/// value T cannot hold is an InvalidArgument, not undefined behaviour.
template <typename T>
T as_integer(const Value& value, T min = 0) {
  // max() + 1 is a power of two, so exact in a double; every integral
  // double below it fits T.
  return static_cast<T>(checked_integer(
      value, static_cast<double>(min),
      static_cast<double>(std::numeric_limits<T>::max()) + 1.0));
}

/// Makes an empty object (clearer than Value(Object{}) at call sites).
Value make_object();

/// Parses one JSON document; throws plin::Error with position context on
/// malformed input. Trailing whitespace is allowed, trailing garbage is not.
Value parse(std::string_view text);

/// Compact serialization (no whitespace). Integral doubles in the exactly-
/// representable range print without a decimal point; everything else uses
/// %.17g, which strtod round-trips exactly.
std::string serialize(const Value& value);

/// Formats one double the way serialize() does (for tests and key strings).
std::string format_number(double value);

}  // namespace plin::json
