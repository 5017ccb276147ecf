#include "json/reader.h"

#include <charconv>
#include <cstdlib>

namespace cfnet::json {

namespace {

/// UTF-8 encoder for \u escapes. A lone surrogate is encoded as-is (three
/// bytes), neither rejected nor replaced.
void AppendUtf8(std::string& out, uint32_t cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

bool HexNibble(char h, uint32_t& acc) {
  acc <<= 4;
  if (h >= '0' && h <= '9') {
    acc |= static_cast<uint32_t>(h - '0');
  } else if (h >= 'a' && h <= 'f') {
    acc |= static_cast<uint32_t>(h - 'a' + 10);
  } else if (h >= 'A' && h <= 'F') {
    acc |= static_cast<uint32_t>(h - 'A' + 10);
  } else {
    return false;
  }
  return true;
}

}  // namespace

Status JsonReader::Error(const std::string& what) const {
  return Status::Corruption("JSON parse error at offset " +
                            std::to_string(pos_) + ": " + what);
}

void JsonReader::SkipWs() {
  while (pos_ < text_.size()) {
    char c = text_[pos_];
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      ++pos_;
    } else {
      break;
    }
  }
}

bool JsonReader::Consume(char c) {
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

bool JsonReader::ConsumeLiteral(std::string_view lit) {
  if (text_.substr(pos_, lit.size()) == lit) {
    pos_ += lit.size();
    return true;
  }
  return false;
}

Status JsonReader::CheckValueDepth(size_t extra) const {
  if (stack_.size() + extra > kMaxDepth) return Error("nesting too deep");
  return Status::OK();
}

Status JsonReader::ParseStringToken(std::string& scratch,
                                    std::string_view& out) {
  ++pos_;  // opening quote, verified by the caller
  const size_t start = pos_;
  // Fast path: scan for the closing quote; any escape drops to the slow path.
  while (pos_ < text_.size()) {
    char c = text_[pos_];
    if (c == '"') {
      out = text_.substr(start, pos_ - start);
      ++pos_;
      return Status::OK();
    }
    if (c == '\\') break;
    ++pos_;
  }
  if (pos_ >= text_.size()) return Error("unterminated string");
  // Slow path: copy the escape-free prefix, then unescape the rest.
  scratch.assign(text_.data() + start, pos_ - start);
  while (pos_ < text_.size()) {
    char c = text_[pos_++];
    if (c == '"') {
      out = scratch;
      return Status::OK();
    }
    if (c != '\\') {
      scratch.push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) return Error("unterminated escape");
    char e = text_[pos_++];
    switch (e) {
      case '"':
        scratch.push_back('"');
        break;
      case '\\':
        scratch.push_back('\\');
        break;
      case '/':
        scratch.push_back('/');
        break;
      case 'n':
        scratch.push_back('\n');
        break;
      case 'r':
        scratch.push_back('\r');
        break;
      case 't':
        scratch.push_back('\t');
        break;
      case 'b':
        scratch.push_back('\b');
        break;
      case 'f':
        scratch.push_back('\f');
        break;
      case 'u': {
        if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
        uint32_t cp = 0;
        for (int i = 0; i < 4; ++i) {
          if (!HexNibble(text_[pos_++], cp)) {
            return Error("invalid hex digit in \\u escape");
          }
        }
        if (cp >= 0xD800 && cp <= 0xDBFF && pos_ + 6 <= text_.size() &&
            text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
          uint32_t lo = 0;
          bool valid = true;
          for (int i = 0; i < 4; ++i) {
            if (!HexNibble(text_[pos_ + 2 + i], lo)) {
              valid = false;
              break;
            }
          }
          if (valid && lo >= 0xDC00 && lo <= 0xDFFF) {
            pos_ += 6;
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          }
        }
        AppendUtf8(scratch, cp);
        break;
      }
      default:
        return Error("invalid escape character");
    }
  }
  return Error("unterminated string");
}

Status JsonReader::ParseNumberToken(Scalar& out) {
  const size_t start = pos_;
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  bool has_digits = false;
  while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
    ++pos_;
    has_digits = true;
  }
  if (!has_digits) return Error("invalid number");
  bool is_double = false;
  if (pos_ < text_.size() && text_[pos_] == '.') {
    is_double = true;
    ++pos_;
    bool frac_digits = false;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      frac_digits = true;
    }
    if (!frac_digits) return Error("invalid number: missing fraction digits");
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    is_double = true;
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    bool exp_digits = false;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      exp_digits = true;
    }
    if (!exp_digits) return Error("invalid number: missing exponent digits");
  }
  const char* b = text_.data() + start;
  const char* e = text_.data() + pos_;
  if (!is_double) {
    int64_t v = 0;
    auto [p, ec] = std::from_chars(b, e, v, 10);
    if (ec == std::errc() && p == e) {
      out.kind = Scalar::Kind::kInt;
      out.i = v;
      return Status::OK();
    }
    // int64 overflow falls through to double.
  }
  double d = 0.0;
  auto [p, ec] = std::from_chars(b, e, d);
  if (ec != std::errc() || p != e) {
    // Out of double range: from_chars reports an error without a value, and
    // the grammar's rule is to saturate to ±inf or underflow to 0, which is
    // what strtod returns.
    std::string token(b, e);
    d = std::strtod(token.c_str(), nullptr);
  }
  out.kind = Scalar::Kind::kDouble;
  out.d = d;
  return Status::OK();
}

Result<bool> JsonReader::EnterObject() {
  SkipWs();
  // Depth is checked before end-of-input at every value, so a truncated
  // deep document reports its depth, not its truncation.
  CFNET_RETURN_IF_ERROR(CheckValueDepth(0));
  if (pos_ >= text_.size()) return Error("unexpected end of input");
  if (text_[pos_] != '{') return false;
  ++pos_;
  stack_.push_back(Frame::kObjectFirst);
  return true;
}

Result<bool> JsonReader::EnterArray() {
  SkipWs();
  CFNET_RETURN_IF_ERROR(CheckValueDepth(0));
  if (pos_ >= text_.size()) return Error("unexpected end of input");
  if (text_[pos_] != '[') return false;
  ++pos_;
  stack_.push_back(Frame::kArrayFirst);
  return true;
}

Result<bool> JsonReader::NextMember(std::string_view& key) {
  SkipWs();
  if (stack_.back() == Frame::kObjectFirst) {
    if (Consume('}')) {
      stack_.pop_back();
      return false;
    }
    stack_.back() = Frame::kObject;
  } else {
    if (Consume('}')) {
      stack_.pop_back();
      return false;
    }
    if (!Consume(',')) return Error("expected ',' or '}' in object");
    SkipWs();
  }
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return Error("expected object key string");
  }
  CFNET_RETURN_IF_ERROR(ParseStringToken(key_scratch_, key));
  SkipWs();
  if (!Consume(':')) return Error("expected ':' in object");
  SkipWs();
  return true;
}

Result<bool> JsonReader::NextElement() {
  SkipWs();
  if (stack_.back() == Frame::kArrayFirst) {
    if (Consume(']')) {
      stack_.pop_back();
      return false;
    }
    stack_.back() = Frame::kArray;
    return true;
  }
  if (Consume(']')) {
    stack_.pop_back();
    return false;
  }
  if (!Consume(',')) return Error("expected ',' or ']' in array");
  SkipWs();
  return true;
}

Result<JsonReader::Scalar> JsonReader::ReadScalar() {
  SkipWs();
  CFNET_RETURN_IF_ERROR(CheckValueDepth(0));
  if (pos_ >= text_.size()) return Error("unexpected end of input");
  Scalar out;
  switch (text_[pos_]) {
    case '{':
    case '[':
      CFNET_RETURN_IF_ERROR(SkipValue());
      out.kind = Scalar::Kind::kComposite;
      return out;
    case '"':
      CFNET_RETURN_IF_ERROR(ParseStringToken(str_scratch_, out.s));
      out.kind = Scalar::Kind::kString;
      return out;
    case 't':
      if (ConsumeLiteral("true")) {
        out.kind = Scalar::Kind::kBool;
        out.b = true;
        return out;
      }
      return Error("invalid literal");
    case 'f':
      if (ConsumeLiteral("false")) {
        out.kind = Scalar::Kind::kBool;
        out.b = false;
        return out;
      }
      return Error("invalid literal");
    case 'n':
      if (ConsumeLiteral("null")) {
        out.kind = Scalar::Kind::kNull;
        return out;
      }
      return Error("invalid literal");
    default:
      CFNET_RETURN_IF_ERROR(ParseNumberToken(out));
      return out;
  }
}

Status JsonReader::SkipValue() { return SkipValueAt(0); }

Status JsonReader::SkipValueAt(size_t extra) {
  SkipWs();
  CFNET_RETURN_IF_ERROR(CheckValueDepth(extra));
  if (pos_ >= text_.size()) return Error("unexpected end of input");
  switch (text_[pos_]) {
    case '{': {
      ++pos_;
      SkipWs();
      if (Consume('}')) return Status::OK();
      for (;;) {
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_] != '"') {
          return Error("expected object key string");
        }
        std::string_view ignored;
        CFNET_RETURN_IF_ERROR(ParseStringToken(key_scratch_, ignored));
        SkipWs();
        if (!Consume(':')) return Error("expected ':' in object");
        SkipWs();
        CFNET_RETURN_IF_ERROR(SkipValueAt(extra + 1));
        SkipWs();
        if (Consume(',')) continue;
        if (Consume('}')) return Status::OK();
        return Error("expected ',' or '}' in object");
      }
    }
    case '[': {
      ++pos_;
      SkipWs();
      if (Consume(']')) return Status::OK();
      for (;;) {
        SkipWs();
        CFNET_RETURN_IF_ERROR(SkipValueAt(extra + 1));
        SkipWs();
        if (Consume(',')) continue;
        if (Consume(']')) return Status::OK();
        return Error("expected ',' or ']' in array");
      }
    }
    case '"': {
      std::string_view ignored;
      return ParseStringToken(str_scratch_, ignored);
    }
    case 't':
      if (ConsumeLiteral("true")) return Status::OK();
      return Error("invalid literal");
    case 'f':
      if (ConsumeLiteral("false")) return Status::OK();
      return Error("invalid literal");
    case 'n':
      if (ConsumeLiteral("null")) return Status::OK();
      return Error("invalid literal");
    default: {
      Scalar ignored;
      return ParseNumberToken(ignored);
    }
  }
}

Status JsonReader::Finish() {
  SkipWs();
  if (pos_ != text_.size()) {
    return Error("trailing characters after JSON document");
  }
  return Status::OK();
}

}  // namespace cfnet::json
