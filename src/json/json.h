#ifndef CFNET_JSON_JSON_H_
#define CFNET_JSON_JSON_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace cfnet::json {

/// JSON document value — the interchange format of the crawl pipeline
/// (every simulated API returns JSON; MiniDFS snapshots store JSON lines).
///
/// Objects preserve insertion order (fields of API payloads are small, so
/// lookup is linear); integers are kept distinct from doubles so 64-bit IDs
/// round-trip exactly.
class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  /// Null by default.
  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}                      // NOLINT
  Json(bool b) : type_(Type::kBool), bool_(b) {}                    // NOLINT
  Json(int v) : type_(Type::kInt), int_(v) {}                       // NOLINT
  Json(int64_t v) : type_(Type::kInt), int_(v) {}                   // NOLINT
  Json(uint32_t v) : type_(Type::kInt), int_(v) {}                  // NOLINT
  Json(double v) : type_(Type::kDouble), double_(v) {}              // NOLINT
  Json(const char* s) : type_(Type::kString), string_(s) {}         // NOLINT
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  Json(std::string_view s) : type_(Type::kString), string_(s) {}    // NOLINT

  static Json MakeArray() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json MakeObject() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Json(const Json&) = default;
  Json& operator=(const Json&) = default;
  Json(Json&&) noexcept = default;
  Json& operator=(Json&&) noexcept = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_number() const { return type_ == Type::kInt || type_ == Type::kDouble; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; type mismatches return neutral defaults
  /// (false / 0 / "" / empty) so optional-field extraction stays terse.
  bool AsBool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  int64_t AsInt(int64_t fallback = 0) const {
    if (type_ == Type::kInt) return int_;
    if (type_ == Type::kDouble) return static_cast<int64_t>(double_);
    return fallback;
  }
  double AsDouble(double fallback = 0.0) const {
    if (type_ == Type::kDouble) return double_;
    if (type_ == Type::kInt) return static_cast<double>(int_);
    return fallback;
  }
  const std::string& AsString() const {
    static const std::string empty;
    return is_string() ? string_ : empty;
  }

  /// Array access. `at(i)` on non-array or out of range returns Null.
  size_t size() const;
  const Json& at(size_t i) const;
  /// Appends to an array (converts a null value into an array first).
  void Append(Json v);

  /// Object access. `Get(key)` returns Null when missing.
  bool Has(std::string_view key) const;
  const Json& Get(std::string_view key) const;
  /// Sets/overwrites a member (converts a null value into an object first).
  void Set(std::string_view key, Json v);

  const Array& array() const {
    static const Array empty;
    return is_array() ? array_ : empty;
  }
  const Object& object() const {
    static const Object empty;
    return is_object() ? object_ : empty;
  }

  /// Compact serialization ("{"a":1}"); `indent >= 0` pretty-prints.
  std::string Dump(int indent = -1) const;

  /// Appends the compact serialization to `out` — the allocation-free path
  /// snapshot writers use (one shared buffer instead of a string per record).
  void AppendTo(std::string& out) const { DumpTo(out, -1, 0); }

  friend bool operator==(const Json& a, const Json& b);

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses a JSON document into a DOM by driving a JsonReader over `text`:
/// the grammar, depth limit and "JSON parse error at offset N" verdicts are
/// the reader's. Trailing non-whitespace is an error.
Result<Json> Parse(std::string_view text);

/// Appends `s` as an escaped JSON string literal (with surrounding quotes).
void AppendEscapedString(std::string& out, std::string_view s);

}  // namespace cfnet::json

#endif  // CFNET_JSON_JSON_H_
