// common/json: the parser, the minified writer with sorted keys and
// round-trip numbers, and string escaping.
#include <gtest/gtest.h>

#include <string>

#include "common/json.hpp"

namespace esca {
namespace {

json::Value parsed(const std::string& text) {
  json::Value v;
  std::string error;
  EXPECT_TRUE(json::parse(text, v, error)) << error;
  return v;
}

TEST(JsonTest, ParsesNestedDocument) {
  const json::Value v = parsed(
      R"({"a":[1,2,[3,{"b":true}]],"s":"x\ny","neg":-0.5,"exp":1e3,"null":null})");
  ASSERT_TRUE(v.is_object());
  const json::Value* a = v.get("a");
  ASSERT_TRUE(a != nullptr && a->is_array());
  ASSERT_EQ(a->array.size(), 3U);
  EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
  ASSERT_TRUE(a->array[2].is_array());
  EXPECT_TRUE(a->array[2].array[1].get("b")->boolean);
  EXPECT_EQ(v.get("s")->string, "x\ny");
  EXPECT_DOUBLE_EQ(v.get("neg")->number, -0.5);
  EXPECT_DOUBLE_EQ(v.get("exp")->number, 1000.0);
  EXPECT_TRUE(v.get("null")->is_null());
}

TEST(JsonTest, ParsesStringEscapes) {
  const json::Value v = parsed(R"({"s":"q\" b\\ s\/ n\n t\t uAé"})");
  EXPECT_EQ(v.get("s")->string, "q\" b\\ s/ n\n t\t uAé");
}

TEST(JsonTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",                 // empty
      "{",                // unterminated object
      "[1,]",             // trailing comma
      R"({"a" 1})",       // missing colon
      R"({"a":1} x)",     // trailing content
      R"("unterminated)", // unterminated string
      "tru",              // bad literal
      "{1:2}",            // non-string key
  };
  for (const char* text : bad) {
    json::Value v;
    std::string error;
    EXPECT_FALSE(json::parse(text, v, error)) << "accepted: " << text;
    EXPECT_FALSE(error.empty());
  }
}

TEST(JsonTest, DumpRoundTripsAndSortsKeys) {
  const std::string text = R"({"z":1,"a":{"k":[true,null,"s"]},"m":2.5})";
  const json::Value v = parsed(text);
  const std::string dumped = v.dump();
  EXPECT_EQ(dumped, R"({"a":{"k":[true,null,"s"]},"m":2.5,"z":1})");
  EXPECT_EQ(parsed(dumped).dump(), dumped);  // dump(parse(x)) is a fixpoint
}

TEST(JsonTest, DumpNumberIsExactForCountersAndRoundTripsDoubles) {
  EXPECT_EQ(json::dump_number(0), "0");
  EXPECT_EQ(json::dump_number(-17), "-17");
  EXPECT_EQ(json::dump_number(9007199254740991.0), "9007199254740991");
  for (const double v : {0.1, 1.0 / 3.0, 2.5e-8, 1.7976931348623157e308}) {
    EXPECT_DOUBLE_EQ(std::stod(json::dump_number(v)), v);
  }
}

TEST(JsonTest, EscapeHandlesQuotesAndControlChars) {
  EXPECT_EQ(json::escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(json::escape(std::string_view("\x01", 1)), "\\u0001");
}

}  // namespace
}  // namespace esca
