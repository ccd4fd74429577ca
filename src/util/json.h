#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mlck::util {

/// Error with position information raised by Json::parse and by typed
/// accessors on mismatching values.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Minimal JSON document model used for system/plan configuration files
/// and machine-readable experiment output.
///
/// Scope: full JSON syntax (RFC 8259) with doubles for all numbers and
/// BMP \uXXXX escapes decoded to UTF-8. Objects keep keys sorted
/// (std::map), so dump() is deterministic — convenient for golden tests
/// and diffable experiment artifacts.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() = default;  // null
  Json(std::nullptr_t) {}
  Json(bool value) : type_(Type::kBool), bool_(value) {}
  Json(double value) : type_(Type::kNumber), number_(value) {}
  Json(int value) : type_(Type::kNumber), number_(value) {}
  Json(long long value)
      : type_(Type::kNumber), number_(static_cast<double>(value)) {}
  Json(const char* value) : type_(Type::kString), string_(value) {}
  Json(std::string value) : type_(Type::kString), string_(std::move(value)) {}
  Json(Array value) : type_(Type::kArray), array_(std::move(value)) {}
  Json(Object value) : type_(Type::kObject), object_(std::move(value)) {}

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  /// Typed accessors; throw JsonError naming the expected type.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Mutable containers (create the container type on a null value).
  Array& make_array();
  Object& make_object();

  /// Object member access. at() throws JsonError naming the missing key;
  /// find() returns nullptr.
  const Json& at(const std::string& key) const;
  const Json* find(const std::string& key) const;

  /// Array element access with bounds checking.
  const Json& at(std::size_t index) const;

  /// Elements in an array / members in an object; 0 otherwise.
  std::size_t size() const noexcept;

  /// Parses a complete JSON document; trailing non-whitespace is an
  /// error. Throws JsonError with 1-based line:column on bad input.
  static Json parse(std::string_view text);

  /// Serializes. indent == 0 emits compact one-line JSON; indent > 0
  /// pretty-prints with that many spaces per level. Non-finite numbers
  /// (inf, nan) have no JSON form and are written as null.
  std::string dump(int indent = 0) const;

  bool operator==(const Json& other) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Reads the number @p value as an Int. JSON numbers are doubles, and a
/// bare cast of a fraction, a negative count or 1e300 to an integer type
/// truncates or is undefined behaviour; this throws std::invalid_argument
/// naming @p key unless the value is integral and within Int's range.
template <typename Int>
Int json_integer(const Json& value, const std::string& key) {
  static_assert(std::is_integral_v<Int> && !std::is_same_v<Int, bool>);
  using Limits = std::numeric_limits<Int>;
  const double v = value.as_number();
  // Both edges are exact doubles: lowest() is 0 or -2^digits, and
  // 2^digits is one past max().
  if (!(v >= static_cast<double>(Limits::lowest()) &&
        v < std::ldexp(1.0, Limits::digits) && v == std::floor(v))) {
    throw std::invalid_argument(
        "\"" + key + "\" must be an integer in [" +
        std::to_string(Limits::lowest()) + ", " +
        std::to_string(Limits::max()) + "] (got " + value.dump() + ")");
  }
  return static_cast<Int>(v);
}

}  // namespace mlck::util
