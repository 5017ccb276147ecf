#include "json/json.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace cfnet::json {
namespace {

TEST(JsonValueTest, DefaultIsNull) {
  Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_EQ(j.Dump(), "null");
}

TEST(JsonValueTest, Scalars) {
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(false).Dump(), "false");
  EXPECT_EQ(Json(42).Dump(), "42");
  EXPECT_EQ(Json(int64_t{-7}).Dump(), "-7");
  EXPECT_EQ(Json(2.5).Dump(), "2.5");
  EXPECT_EQ(Json("hi").Dump(), "\"hi\"");
}

TEST(JsonValueTest, TypedAccessorsWithFallbacks) {
  Json j(42);
  EXPECT_EQ(j.AsInt(), 42);
  EXPECT_DOUBLE_EQ(j.AsDouble(), 42.0);
  EXPECT_EQ(j.AsString(), "");     // wrong type -> neutral default
  EXPECT_FALSE(j.AsBool());
  EXPECT_EQ(Json("x").AsInt(9), 9);
  EXPECT_EQ(Json(2.9).AsInt(), 2);  // double truncates
}

TEST(JsonValueTest, ObjectSetGetPreservesOrder) {
  Json j = Json::MakeObject();
  j.Set("b", 1);
  j.Set("a", 2);
  j.Set("b", 3);  // overwrite in place
  EXPECT_EQ(j.size(), 2u);
  EXPECT_TRUE(j.Has("a"));
  EXPECT_FALSE(j.Has("c"));
  EXPECT_EQ(j.Get("b").AsInt(), 3);
  EXPECT_TRUE(j.Get("missing").is_null());
  EXPECT_EQ(j.Dump(), "{\"b\":3,\"a\":2}");
}

TEST(JsonValueTest, ArrayAppendAndAt) {
  Json j = Json::MakeArray();
  j.Append(1);
  j.Append("two");
  j.Append(Json::MakeObject());
  EXPECT_EQ(j.size(), 3u);
  EXPECT_EQ(j.at(0).AsInt(), 1);
  EXPECT_EQ(j.at(1).AsString(), "two");
  EXPECT_TRUE(j.at(99).is_null());
}

TEST(JsonValueTest, NullPromotesToContainerOnMutation) {
  Json obj;
  obj.Set("k", 1);
  EXPECT_TRUE(obj.is_object());
  Json arr;
  arr.Append(1);
  EXPECT_TRUE(arr.is_array());
}

TEST(JsonValueTest, EqualityIncludingCrossNumeric) {
  EXPECT_EQ(Json(1), Json(1.0));
  EXPECT_FALSE(Json(1) == Json(2));
  EXPECT_EQ(Json("a"), Json("a"));
  Json a = Json::MakeObject();
  a.Set("x", 1);
  Json b = Json::MakeObject();
  b.Set("x", 1);
  EXPECT_EQ(a, b);
}

TEST(JsonParseTest, RoundTripsComplexDocument) {
  const char* doc = R"({
    "id": 744036,
    "name": "Planetary Resources",
    "raising": true,
    "score": -1.25e2,
    "tags": ["space", "mining"],
    "nested": {"a": [1, 2, {"b": null}]}
  })";
  auto parsed = Parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const Json& j = *parsed;
  EXPECT_EQ(j.Get("id").AsInt(), 744036);
  EXPECT_EQ(j.Get("name").AsString(), "Planetary Resources");
  EXPECT_TRUE(j.Get("raising").AsBool());
  EXPECT_DOUBLE_EQ(j.Get("score").AsDouble(), -125.0);
  EXPECT_EQ(j.Get("tags").size(), 2u);
  EXPECT_TRUE(j.Get("nested").Get("a").at(2).Get("b").is_null());

  // Dump -> reparse -> equal.
  auto reparsed = Parse(j.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*reparsed, j);
}

TEST(JsonParseTest, StringEscapes) {
  auto parsed = Parse(R"("line\nbreak \"quoted\" back\\slash \t tab A")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "line\nbreak \"quoted\" back\\slash \t tab A");
}

TEST(JsonParseTest, UnicodeEscapesAndSurrogates) {
  auto bmp = Parse(R"("\u00e9")");  // é
  ASSERT_TRUE(bmp.ok());
  EXPECT_EQ(bmp->AsString(), "\xc3\xa9");
  auto astral = Parse(R"("\ud83d\ude00")");  // U+1F600 via surrogate pair
  ASSERT_TRUE(astral.ok());
  EXPECT_EQ(astral->AsString(), "\xf0\x9f\x98\x80");
}

TEST(JsonParseTest, EscapeRoundTripThroughDump) {
  Json j("tab\t\"quote\" \x01 control");
  auto reparsed = Parse(j.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->AsString(), j.AsString());
}

TEST(JsonParseTest, IntegerPrecisionPreserved) {
  auto parsed = Parse("9007199254740993");  // 2^53 + 1: doubles can't hold it
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->is_int());
  EXPECT_EQ(parsed->AsInt(), 9007199254740993ll);
}

TEST(JsonParseTest, WhitespaceTolerant) {
  auto parsed = Parse("  \n\t { \"a\" :  [ 1 , 2 ]  }  \r\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("a").size(), 2u);
}

TEST(JsonDumpTest, PrettyPrinting) {
  Json j = Json::MakeObject();
  j.Set("a", 1);
  Json arr = Json::MakeArray();
  arr.Append(2);
  j.Set("b", arr);
  std::string pretty = j.Dump(2);
  EXPECT_NE(pretty.find("{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}"),
            std::string::npos);
}

TEST(JsonDumpTest, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).Dump(), "null");
  EXPECT_EQ(Json(std::nan("")).Dump(), "null");
}

}  // namespace
}  // namespace cfnet::json
