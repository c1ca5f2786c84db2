// Minimal JSON value model for the metrics exporters (obs/metrics.hpp).
//
// Self-contained writer + parser so metric reports can round-trip without an
// external dependency. Integers are kept exact (separate int64/uint64 states
// rather than double) because counter values routinely exceed 2^53.
//
// Thread-safety: JsonValue is a plain value type — concurrent reads of one
// value are safe, any mutation requires external synchronization (the usual
// container rules). Parsing and dumping allocate; none of this is meant for
// hot counting loops, only for report assembly at run boundaries.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lotus::obs {

/// One JSON document node: null, bool, exact integer, double, string, array,
/// or insertion-ordered object (order is preserved so exported reports are
/// stable and diffable).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kInt, kUInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;  // null
  JsonValue(bool value) : type_(Type::kBool), bool_(value) {}            // NOLINT(google-explicit-constructor)
  JsonValue(std::int64_t value) : type_(Type::kInt), int_(value) {}      // NOLINT(google-explicit-constructor)
  JsonValue(std::uint64_t value) : type_(Type::kUInt), uint_(value) {}   // NOLINT(google-explicit-constructor)
  JsonValue(int value) : JsonValue(static_cast<std::int64_t>(value)) {}  // NOLINT(google-explicit-constructor)
  JsonValue(unsigned value) : JsonValue(static_cast<std::uint64_t>(value)) {}  // NOLINT(google-explicit-constructor)
  JsonValue(double value) : type_(Type::kDouble), double_(value) {}      // NOLINT(google-explicit-constructor)
  JsonValue(const char* value) : type_(Type::kString), string_(value) {}  // NOLINT(google-explicit-constructor)
  JsonValue(std::string value) : type_(Type::kString), string_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  JsonValue(Array value) : type_(Type::kArray), array_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  JsonValue(Object value) : type_(Type::kObject), object_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  /// Numeric value as double (converting from the integer states).
  [[nodiscard]] double as_double() const;
  /// Numeric value as uint64; throws std::runtime_error on negatives or
  /// non-integral doubles.
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const Array& array() const { return array_; }
  [[nodiscard]] Array& array() { return array_; }
  [[nodiscard]] const Object& object() const { return object_; }
  [[nodiscard]] Object& object() { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Append/overwrite an object member (container must be object or null).
  void set(std::string key, JsonValue value);
  /// Append an array element (container must be array or null).
  void push_back(JsonValue value);

  /// Serialize. `indent` < 0 → single line; otherwise pretty-print with that
  /// many spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parse a complete document; throws std::runtime_error with an offset on
  /// malformed input or trailing garbage.
  static JsonValue parse(std::string_view text);

  /// Deep structural equality. Same-valued kInt/kUInt compare equal (they
  /// are one JSON number space); integers never equal doubles (2 != 2.0).
  friend bool operator==(const JsonValue& a, const JsonValue& b);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace lotus::obs
