#include "json/reader.h"

#include <charconv>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json/json.h"

namespace cfnet::json {
namespace {

/// Type-strict rendering of a parsed value: Dump(), except that a double
/// prints as its shortest round-trip form plus a 'd' suffix. An int and a
/// double therefore never render alike, and because the shortest form reads
/// back to the same bits, equal renderings mean bit-identical doubles
/// (including the sign of zero).
void AppendStrict(std::string& out, const Json& v) {
  switch (v.type()) {
    case Json::Type::kDouble: {
      char buf[32];
      auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v.AsDouble());
      out.append(buf, end);
      out.push_back('d');
      return;
    }
    case Json::Type::kArray:
      out.push_back('[');
      for (size_t i = 0; i < v.size(); ++i) {
        if (i > 0) out.push_back(',');
        AppendStrict(out, v.at(i));
      }
      out.push_back(']');
      return;
    case Json::Type::kObject:
      out.push_back('{');
      for (size_t i = 0; i < v.size(); ++i) {
        if (i > 0) out.push_back(',');
        AppendEscapedString(out, v.object()[i].first);
        out.push_back(':');
        AppendStrict(out, v.object()[i].second);
      }
      out.push_back('}');
      return;
    default:
      v.AppendTo(out);
  }
}

/// What the grammar makes of `doc`: the verdict when it is rejected, else
/// the type-strict rendering of its value.
std::string Outcome(std::string_view doc) {
  Result<Json> parsed = Parse(doc);
  if (!parsed.ok()) return parsed.status().ToString();
  std::string out;
  AppendStrict(out, *parsed);
  return out;
}

/// SkipValue validates containers without building anything; it accepts
/// and rejects exactly the documents Parse does, with the same verdict.
std::string SkipVerdict(std::string_view doc) {
  JsonReader reader(doc);
  Status status = reader.SkipValue();
  if (status.ok()) status = reader.Finish();
  return status.ToString();
}

std::string Rejected(size_t offset, std::string_view what) {
  return "Corruption: JSON parse error at offset " + std::to_string(offset) +
         ": " + std::string(what);
}

struct Case {
  std::string doc;
  std::string want;  // Outcome(doc)
};

void ExpectOutcomes(const std::vector<Case>& cases) {
  for (const Case& c : cases) {
    EXPECT_EQ(Outcome(c.doc), c.want) << "doc: " << c.doc;
    const bool rejected = c.want.rfind("Corruption: ", 0) == 0;
    EXPECT_EQ(SkipVerdict(c.doc), rejected ? c.want : "OK") << "doc: " << c.doc;
  }
}

TEST(JsonGrammarTest, ValidDocuments) {
  ExpectOutcomes({
      {"null", "null"},
      {"true", "true"},
      {"false", "false"},
      {"0", "0"},
      {"-0", "0"},
      {"42", "42"},
      {"-7", "-7"},
      {"01", "1"},
      {"2.5", "2.5d"},
      {"-0.125", "-0.125d"},
      {"1e5", "1e+05d"},
      {"1E+5", "1e+05d"},
      {"1e-5", "1e-05d"},
      {"3.14159e0", "3.14159d"},
      {R"("")", R"("")"},
      {R"("hello")", R"("hello")"},
      {"[]", "[]"},
      {"[1,2,3]", "[1,2,3]"},
      {R"([1, "two", null, true, 2.5])", R"([1,"two",null,true,2.5d])"},
      {"{}", "{}"},
      {R"({"a":1})", R"({"a":1})"},
      {R"({"a":{"b":[1,{"c":null}]},"d":"e"})",
       R"({"a":{"b":[1,{"c":null}]},"d":"e"})"},
      {R"(  {  "a" : [ 1 , 2 ] , "b" : "c" }  )", R"({"a":[1,2],"b":"c"})"},
      {"[[[[[]]]]]", "[[[[[]]]]]"},
      {"[{},{},[],[{}]]", "[{},{},[],[{}]]"},
      {R"({"nested":{"deep":{"deeper":{"value":42}}}})",
       R"({"nested":{"deep":{"deeper":{"value":42}}}})"},
  });
}

TEST(JsonGrammarTest, EscapedAndUnicodeStrings) {
  // A lone surrogate is encoded as-is; raw control bytes are kept (and
  // re-escaped by the writer).
  ExpectOutcomes({
      {R"("a\nb\tc\rd\be\ff")", R"("a\nb\tc\rd\be\ff")"},
      {R"("quote \" backslash \\ slash \/")",
       R"("quote \" backslash \\ slash /")"},
      {R"("\u0041\u00e9\u4e2d\u0001")", "\"A\xc3\xa9\xe4\xb8\xad\\u0001\""},
      {R"("\ud83d\ude00")", "\"\xf0\x9f\x98\x80\""},
      {R"("\ud800")", "\"\xed\xa0\x80\""},
      {R"("\udc00")", "\"\xed\xb0\x80\""},
      {R"("\ud800x")", "\"\xed\xa0\x80x\""},
      {R"("\ud800\u0041")", "\"\xed\xa0\x80""A\""},
      {R"("\u0000")", R"("\u0000")"},
      {R"("prefix no escape then \u00e9 suffix")",
       "\"prefix no escape then \xc3\xa9 suffix\""},
      {R"("\u00E9 upper and lower \u00e9")",
       "\"\xc3\xa9 upper and lower \xc3\xa9\""},
      {R"({"ke\ny":"va\tlue"})", R"({"ke\ny":"va\tlue"})"},
      {"\"raw control \x01 char\"", R"("raw control \u0001 char")"},
  });
}

TEST(JsonGrammarTest, NumericEdgeCases) {
  // int64 overflow becomes a double; out-of-range doubles saturate to ±inf
  // or underflow to 0.
  ExpectOutcomes({
      {"9007199254740993", "9007199254740993"},
      {"9223372036854775807", "9223372036854775807"},
      {"-9223372036854775808", "-9223372036854775808"},
      {"9223372036854775808", "9223372036854775808d"},
      {"-9223372036854775809", "-9223372036854775808d"},
      {"18446744073709551616", "18446744073709551616d"},
      {"1e308", "1e+308d"},
      {"1e400", "infd"},
      {"-1e400", "-infd"},
      {"1e-400", "0d"},
      {"4.9e-324", "5e-324d"},
      {"0.1", "0.1d"},
      {"123456789.123456789", "123456789.12345679d"},
      {"0.000000000000000000001", "1e-21d"},
      {"1e-0", "1d"},
      {"-0.0", "-0d"},
  });
}

TEST(JsonGrammarTest, MalformedDocuments) {
  ExpectOutcomes({
      {"", Rejected(0, "unexpected end of input")},
      {"{", Rejected(1, "expected object key string")},
      {"}", Rejected(0, "invalid number")},
      {"[", Rejected(1, "unexpected end of input")},
      {"]", Rejected(0, "invalid number")},
      {"[1,]", Rejected(3, "invalid number")},
      {R"({"a":})", Rejected(5, "invalid number")},
      {R"({"a" 1})", Rejected(5, "expected ':' in object")},
      {"{a:1}", Rejected(1, "expected object key string")},
      {"tru", Rejected(0, "invalid literal")},
      {"nul", Rejected(0, "invalid literal")},
      {"falsee", Rejected(5, "trailing characters after JSON document")},
      {"01x", Rejected(2, "trailing characters after JSON document")},
      {"1.e5", Rejected(2, "invalid number: missing fraction digits")},
      {"1.", Rejected(2, "invalid number: missing fraction digits")},
      {"--3", Rejected(1, "invalid number")},
      {"+5", Rejected(0, "invalid number")},
      {R"("unterminated)", Rejected(13, "unterminated string")},
      {R"("bad\escape\q")", Rejected(6, "invalid escape character")},
      {R"("trunc\)", Rejected(7, "unterminated escape")},
      {R"("\u12")", Rejected(3, R"(truncated \u escape)")},
      {R"("\u12g4")", Rejected(6, R"(invalid hex digit in \u escape)")},
      {"[1] trailing", Rejected(4, "trailing characters after JSON document")},
      {R"({"a":1,})", Rejected(7, "expected object key string")},
      {"[1 2]", Rejected(3, "expected ',' or ']' in array")},
      {R"({"a":1 "b":2})", Rejected(7, "expected ',' or '}' in object")},
      {"[1,", Rejected(3, "unexpected end of input")},
      {R"({"a":)", Rejected(5, "unexpected end of input")},
      {R"({"a")", Rejected(4, "expected ':' in object")},
      {"{,}", Rejected(1, "expected object key string")},
      {"[,]", Rejected(1, "invalid number")},
      {"nan", Rejected(0, "invalid literal")},
      {"inf", Rejected(0, "invalid number")},
      {".5", Rejected(0, "invalid number")},
  });
}

TEST(JsonGrammarTest, DuplicateKeysLastWins) {
  ExpectOutcomes({
      {R"({"a":1,"a":2})", R"({"a":2})"},
      {R"({"a":1,"b":2,"a":3})", R"({"a":3,"b":2})"},
      {R"({"a":[1,2],"a":"x"})", R"({"a":"x"})"},
      {R"({"a":{"b":1},"a":{"c":2}})", R"({"a":{"c":2}})"},
  });
}

TEST(JsonGrammarTest, DepthLimitBoundary) {
  auto nested = [](size_t depth, const char* inner) {
    std::string doc;
    for (size_t i = 0; i < depth; ++i) doc += '[';
    doc += inner;
    for (size_t i = 0; i < depth; ++i) doc += ']';
    return doc;
  };
  const std::string too_deep = Rejected(257, "nesting too deep");
  ExpectOutcomes({
      {nested(100, "1"), nested(100, "1")},
      {nested(256, "1"), nested(256, "1")},
      {nested(257, "1"), too_deep},  // scalar one level too deep
      {nested(300, "1"), too_deep},
      {nested(257, ""), nested(257, "")},  // innermost array at depth 256
      {nested(258, ""), too_deep},
      // Truncated deep documents: the depth verdict beats end-of-input.
      {std::string(257, '['), too_deep},
      {std::string(300, '['), too_deep},
      {nested(100, ""), nested(100, "")},
      {nested(300, ""), too_deep},
  });
}

TEST(JsonReaderTest, ZeroCopyStringsAliasTheInput) {
  const std::string doc = "{\"key\":\"plain value\"}";
  JsonReader r(doc);
  bool saw = false;
  ASSERT_TRUE(r.ForEachMember([&](std::string_view key) -> Status {
                 EXPECT_GE(key.data(), doc.data());
                 EXPECT_LT(key.data(), doc.data() + doc.size());
                 auto v = r.ReadScalar();
                 EXPECT_TRUE(v.ok());
                 EXPECT_EQ(v->AsString(), "plain value");
                 EXPECT_GE(v->s.data(), doc.data());
                 EXPECT_LT(v->s.data(), doc.data() + doc.size());
                 saw = true;
                 return Status::OK();
               }).ok());
  EXPECT_TRUE(saw);
}

TEST(JsonReaderTest, EscapedStringsUseScratchNotInput) {
  const std::string doc = "\"a\\nb\"";
  JsonReader r(doc);
  auto v = r.ReadScalar();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "a\nb");
  // Unescaped form cannot alias the raw input.
  EXPECT_TRUE(v->s.data() < doc.data() || v->s.data() >= doc.data() + doc.size());
}

TEST(JsonReaderTest, ScalarCoercionsMirrorDomAccessors) {
  {
    JsonReader r("42");
    auto v = r.ReadScalar();
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->AsInt(), 42);
    EXPECT_DOUBLE_EQ(v->AsDouble(), 42.0);
    EXPECT_EQ(v->AsString(), "");
    EXPECT_FALSE(v->AsBool());
  }
  {
    JsonReader r("2.9");
    auto v = r.ReadScalar();
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->AsInt(), 2);  // double truncates, as Json::AsInt does
  }
  {
    JsonReader r("\"x\"");
    auto v = r.ReadScalar();
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->AsInt(9), 9);
  }
  {
    JsonReader r("[1,2]");
    auto v = r.ReadScalar();
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->kind, JsonReader::Scalar::Kind::kComposite);
    EXPECT_EQ(v->AsInt(), 0);
    EXPECT_FALSE(v->is_null());
  }
}

TEST(JsonReaderTest, ForEachMemberOnNonObjectConsumesValue) {
  JsonReader r("[1,2,3]");
  size_t calls = 0;
  ASSERT_TRUE(r.ForEachMember([&](std::string_view) -> Status {
                 ++calls;
                 return r.SkipValue();
               }).ok());
  EXPECT_EQ(calls, 0u);
  EXPECT_TRUE(r.Finish().ok());  // the array was consumed
}

TEST(JsonReaderTest, ForEachElementOnNonArrayConsumesValue) {
  JsonReader r("{\"a\":1}");
  size_t calls = 0;
  ASSERT_TRUE(r.ForEachElement([&]() -> Status {
                 ++calls;
                 return r.SkipValue();
               }).ok());
  EXPECT_EQ(calls, 0u);
  EXPECT_TRUE(r.Finish().ok());
}

TEST(JsonReaderTest, FinishRejectsTrailingGarbage) {
  JsonReader r("{} x");
  ASSERT_TRUE(r.SkipValue().ok());
  Status s = r.Finish();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("trailing characters"), std::string::npos);
}

TEST(JsonReaderTest, DumpRoundTripsThroughParse) {
  // to_chars-based Dump output reads back to the same types and bits.
  Json doc = Json::MakeObject();
  doc.Set("int", int64_t{9007199254740993});
  doc.Set("neg", int64_t{-42});
  doc.Set("pi", 3.141592653589793);
  doc.Set("tenth", 0.1);
  doc.Set("half", 2.5);
  doc.Set("esc", "line\nbreak \"quoted\" \x01");
  Json arr = Json::MakeArray();
  arr.Append(1);
  arr.Append(0.25);
  doc.Set("arr", arr);
  const std::string text = doc.Dump();
  EXPECT_EQ(Outcome(text),
            R"({"int":9007199254740993,"neg":-42,"pi":3.141592653589793d,)"
            R"("tenth":0.1d,"half":2.5d,"esc":"line\nbreak \"quoted\" \u0001",)"
            R"("arr":[1,0.25d]})");
  auto parsed = Parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Dump(), text);
}

}  // namespace
}  // namespace cfnet::json
