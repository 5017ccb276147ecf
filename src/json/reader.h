#ifndef CFNET_JSON_READER_H_
#define CFNET_JSON_READER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace cfnet::json {

/// Single-pass, pull-style reader over one JSON document held in memory —
/// cfnet's one JSON grammar. Record decoders drive it directly; `json::Parse`
/// drives it to build a DOM.
///
/// The reader yields values on demand: callers step through containers with
/// `ForEachMember` / `ForEachElement` and pull scalars with `ReadScalar`.
/// Strings are zero-copy `string_view`s into the input buffer whenever they
/// contain no escapes; escaped strings are lazily unescaped into a per-reader
/// scratch buffer (so a view is valid only until the next reader call).
/// Numbers are parsed in place with `std::from_chars`.
///
/// The grammar is RFC 8259 with these rules (json_reader_test pins a verdict
/// or value for each): leading zeros are accepted ("01" is 1); raw control
/// bytes inside strings are kept; a lone surrogate escape is encoded as-is;
/// an integer that overflows int64 becomes a double, and an out-of-range
/// double saturates to ±inf or underflows to 0; a value nested inside more
/// than 256 containers fails "nesting too deep". Every failure is a
/// Corruption "JSON parse error at offset N: <what>".
///
/// Typical record decode (no DOM, no per-field allocation):
///
///   JsonReader r(line);
///   Record rec;
///   CFNET_RETURN_IF_ERROR(r.ForEachMember([&](std::string_view key) {
///     if (key == "id") {
///       CFNET_ASSIGN_OR_RETURN(auto v, r.ReadScalar());
///       rec.id = v.AsInt();
///       return Status::OK();
///     }
///     return r.SkipValue();   // uninteresting member
///   }));
///   CFNET_RETURN_IF_ERROR(r.Finish());
class JsonReader {
 public:
  /// A scalar pulled from the stream. Coercion helpers mirror the DOM
  /// accessors (`Json::AsInt` etc.): wrong types yield neutral defaults
  /// instead of errors.
  struct Scalar {
    enum class Kind { kNull, kBool, kInt, kDouble, kString, kComposite };

    Kind kind = Kind::kNull;
    bool b = false;
    int64_t i = 0;
    double d = 0.0;
    /// Valid until the next reader call (may alias the scratch buffer).
    std::string_view s;

    bool is_null() const { return kind == Kind::kNull; }
    bool AsBool(bool fallback = false) const {
      return kind == Kind::kBool ? b : fallback;
    }
    int64_t AsInt(int64_t fallback = 0) const {
      if (kind == Kind::kInt) return i;
      if (kind == Kind::kDouble) return static_cast<int64_t>(d);
      return fallback;
    }
    double AsDouble(double fallback = 0.0) const {
      if (kind == Kind::kDouble) return d;
      if (kind == Kind::kInt) return static_cast<double>(i);
      return fallback;
    }
    std::string_view AsString() const {
      return kind == Kind::kString ? s : std::string_view();
    }
  };

  /// The reader borrows `text`; it must outlive the reader.
  explicit JsonReader(std::string_view text) : text_(text) {}

  JsonReader(const JsonReader&) = delete;
  JsonReader& operator=(const JsonReader&) = delete;

  /// --- typed extraction -----------------------------------------------

  /// Reads the value at the cursor as a scalar, consuming it entirely.
  /// Arrays and objects are skipped (after validation) and yield
  /// `Kind::kComposite`, mirroring what the DOM accessors return for them.
  Result<Scalar> ReadScalar();

  /// Iterates the members of the object at the cursor: `fn(key)` runs once
  /// per member and must consume the member's value (ReadScalar /
  /// ForEach* / SkipValue). A non-object value is consumed with zero calls,
  /// mirroring `Json::Get` on a non-object.
  template <typename Fn>
  Status ForEachMember(Fn&& fn) {
    CFNET_ASSIGN_OR_RETURN(bool is_object, EnterObject());
    if (!is_object) return SkipValue();
    std::string_view key;
    for (;;) {
      CFNET_ASSIGN_OR_RETURN(bool more, NextMember(key));
      if (!more) return Status::OK();
      CFNET_RETURN_IF_ERROR(fn(key));
    }
  }

  /// Iterates the elements of the array at the cursor: `fn()` runs once per
  /// element and must consume it. A non-array value is consumed with zero
  /// calls, mirroring iteration over `Json::array()` of a non-array.
  template <typename Fn>
  Status ForEachElement(Fn&& fn) {
    CFNET_ASSIGN_OR_RETURN(bool is_array, EnterArray());
    if (!is_array) return SkipValue();
    for (;;) {
      CFNET_ASSIGN_OR_RETURN(bool more, NextElement());
      if (!more) return Status::OK();
      CFNET_RETURN_IF_ERROR(fn());
    }
  }

  /// Consumes and validates the value at the cursor without decoding it —
  /// a fast path over the same grammar that yields the same verdicts
  /// (json_reader_test checks it on every document of its tables).
  Status SkipValue();

  /// Verifies nothing but whitespace follows the top-level value ("trailing
  /// characters after JSON document" otherwise). Call after that value.
  Status Finish();

  /// --- low-level stepping (used by the helpers and generic consumers) ---

  /// If the value at the cursor is an object, enters it and returns true;
  /// otherwise returns false without consuming anything.
  Result<bool> EnterObject();
  /// If the value at the cursor is an array, enters it and returns true;
  /// otherwise returns false without consuming anything.
  Result<bool> EnterArray();
  /// Inside an object: advances to the next member. On true, `key` holds
  /// the member key and the cursor sits on its value; on false the object's
  /// closing '}' was consumed. `key` is valid until the next reader call.
  Result<bool> NextMember(std::string_view& key);
  /// Inside an array: on true the cursor sits on the next element; on false
  /// the closing ']' was consumed.
  Result<bool> NextElement();

 private:
  /// Most containers a value may be nested inside. Checked before
  /// end-of-input, so a truncated deep document reports its depth.
  static constexpr size_t kMaxDepth = 256;

  enum class Frame : uint8_t { kObjectFirst, kObject, kArrayFirst, kArray };

  Status Error(const std::string& what) const;
  void SkipWs();
  bool Consume(char c);
  bool ConsumeLiteral(std::string_view lit);
  /// Errors when a value nested `extra` levels below the open containers
  /// would exceed the depth limit.
  Status CheckValueDepth(size_t extra) const;
  /// Parses the string literal at the cursor (opening quote included) into
  /// `out` — zero-copy when escape-free, else unescaped into `scratch`.
  Status ParseStringToken(std::string& scratch, std::string_view& out);
  Status ParseNumberToken(Scalar& out);
  Status SkipValueAt(size_t extra);

  std::string_view text_;
  size_t pos_ = 0;
  std::vector<Frame> stack_;
  std::string key_scratch_;
  std::string str_scratch_;
};

}  // namespace cfnet::json

#endif  // CFNET_JSON_READER_H_
