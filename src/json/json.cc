#include "json/json.h"

#include <charconv>
#include <cmath>

#include "json/reader.h"
#include "util/string_util.h"

namespace cfnet::json {

size_t Json::size() const {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  return 0;
}

const Json& Json::at(size_t i) const {
  static const Json null_json;
  if (!is_array() || i >= array_.size()) return null_json;
  return array_[i];
}

void Json::Append(Json v) {
  if (is_null()) type_ = Type::kArray;
  if (!is_array()) return;
  array_.push_back(std::move(v));
}

bool Json::Has(std::string_view key) const {
  if (!is_object()) return false;
  for (const auto& [k, v] : object_) {
    if (k == key) return true;
  }
  return false;
}

const Json& Json::Get(std::string_view key) const {
  static const Json null_json;
  if (!is_object()) return null_json;
  for (const auto& [k, v] : object_) {
    if (k == key) return v;
  }
  return null_json;
}

void Json::Set(std::string_view key, Json v) {
  if (is_null()) type_ = Type::kObject;
  if (!is_object()) return;
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  object_.emplace_back(std::string(key), std::move(v));
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) {
    // Cross-type numeric equality (1 == 1.0) keeps round-trip checks sane.
    if (a.is_number() && b.is_number()) return a.AsDouble() == b.AsDouble();
    return false;
  }
  switch (a.type_) {
    case Json::Type::kNull:
      return true;
    case Json::Type::kBool:
      return a.bool_ == b.bool_;
    case Json::Type::kInt:
      return a.int_ == b.int_;
    case Json::Type::kDouble:
      return a.double_ == b.double_;
    case Json::Type::kString:
      return a.string_ == b.string_;
    case Json::Type::kArray:
      return a.array_ == b.array_;
    case Json::Type::kObject:
      return a.object_ == b.object_;
  }
  return false;
}

void AppendEscapedString(std::string& out, std::string_view s) {
  out.push_back('"');
  size_t plain = 0;  // start of the pending run of escape-free bytes
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    const char* esc = nullptr;
    switch (c) {
      case '"':
        esc = "\\\"";
        break;
      case '\\':
        esc = "\\\\";
        break;
      case '\n':
        esc = "\\n";
        break;
      case '\r':
        esc = "\\r";
        break;
      case '\t':
        esc = "\\t";
        break;
      case '\b':
        esc = "\\b";
        break;
      case '\f':
        esc = "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out.append(s, plain, i - plain);
    if (esc != nullptr) {
      out.append(esc);
    } else {
      out += StrFormat("\\u%04x", c);
    }
    plain = i + 1;
  }
  out.append(s, plain, s.size() - plain);
  out.push_back('"');
}

void Json::DumpTo(std::string& out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent >= 0) {
      out.push_back('\n');
      out.append(static_cast<size_t>(indent) * d, ' ');
    }
  };
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kInt: {
      char buf[24];
      auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), int_);
      out.append(buf, p);
      break;
    }
    case Type::kDouble: {
      if (std::isfinite(double_)) {
        // Shortest round-trip form (to_chars), not %.17g: "0.1" instead of
        // "0.10000000000000001" — smaller output and an exact reparse.
        char buf[32];
        auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), double_);
        out.append(buf, p);
      } else {
        out += "null";  // JSON has no Inf/NaN
      }
      break;
    }
    case Type::kString:
      AppendEscapedString(out, string_);
      break;
    case Type::kArray: {
      out.push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline(depth + 1);
        array_[i].DumpTo(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline(depth + 1);
        AppendEscapedString(out, object_[i].first);
        out.push_back(':');
        if (indent >= 0) out.push_back(' ');
        object_[i].second.DumpTo(out, indent, depth + 1);
      }
      if (!object_.empty()) newline(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

namespace {

/// Builds the value at the reader's cursor. The grammar, the depth limit and
/// every verdict belong to JsonReader; this only assembles the tree.
Status BuildValue(JsonReader& reader, Json& out) {
  CFNET_ASSIGN_OR_RETURN(bool is_object, reader.EnterObject());
  if (is_object) {
    out = Json::MakeObject();
    std::string_view key;
    for (;;) {
      CFNET_ASSIGN_OR_RETURN(bool more, reader.NextMember(key));
      if (!more) return Status::OK();
      std::string name(key);  // `key` dies at the next reader call
      Json value;
      CFNET_RETURN_IF_ERROR(BuildValue(reader, value));
      out.Set(name, std::move(value));  // a duplicate key keeps the last value
    }
  }
  CFNET_ASSIGN_OR_RETURN(bool is_array, reader.EnterArray());
  if (is_array) {
    out = Json::MakeArray();
    for (;;) {
      CFNET_ASSIGN_OR_RETURN(bool more, reader.NextElement());
      if (!more) return Status::OK();
      Json value;
      CFNET_RETURN_IF_ERROR(BuildValue(reader, value));
      out.Append(std::move(value));
    }
  }
  CFNET_ASSIGN_OR_RETURN(JsonReader::Scalar scalar, reader.ReadScalar());
  switch (scalar.kind) {
    case JsonReader::Scalar::Kind::kBool:
      out = Json(scalar.b);
      break;
    case JsonReader::Scalar::Kind::kInt:
      out = Json(scalar.i);
      break;
    case JsonReader::Scalar::Kind::kDouble:
      out = Json(scalar.d);
      break;
    case JsonReader::Scalar::Kind::kString:
      out = Json(scalar.s);
      break;
    case JsonReader::Scalar::Kind::kNull:
    case JsonReader::Scalar::Kind::kComposite:  // containers were entered above
      break;  // `out` stays null
  }
  return Status::OK();
}

}  // namespace

Result<Json> Parse(std::string_view text) {
  JsonReader reader(text);
  Json out;
  CFNET_RETURN_IF_ERROR(BuildValue(reader, out));
  CFNET_RETURN_IF_ERROR(reader.Finish());
  return out;
}

}  // namespace cfnet::json
