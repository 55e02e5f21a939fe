#include "util/json.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace dbfs::util {
namespace {

TEST(Json, ParsesScalarsAndNesting) {
  const JsonValue v = parse_json(
      R"({"a": 1.5, "b": "text", "c": true, "d": null,
          "e": [1, 2, 3], "f": {"g": -7}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.at("a").as_number(), 1.5);
  EXPECT_EQ(v.at("b").as_string(), "text");
  EXPECT_TRUE(v.at("c").as_bool());
  EXPECT_EQ(v.at("d").kind, JsonValue::Kind::kNull);
  ASSERT_TRUE(v.at("e").is_array());
  ASSERT_EQ(v.at("e").items.size(), 3u);
  EXPECT_EQ(v.at("e").items[2].as_int(), 3);
  EXPECT_EQ(v.at("f").at("g").as_int(), -7);
}

TEST(Json, ParsesScientificNotationAndBigIntegers) {
  const JsonValue v = parse_json(R"({"teps": 7.17225e8, "n": 8589934592})");
  EXPECT_DOUBLE_EQ(v.at("teps").as_number(), 7.17225e8);
  EXPECT_EQ(v.at("n").as_int(), 8589934592ll);
}

TEST(Json, StringEscapes) {
  const JsonValue v =
      parse_json(R"({"s": "a\"b\\c\nd\tA"})");
  EXPECT_EQ(v.at("s").as_string(), "a\"b\\c\nd\tA");
}

TEST(Json, FallbackAccessors) {
  const JsonValue v = parse_json(R"({"x": 2})");
  EXPECT_DOUBLE_EQ(v.number_or("x", 9.0), 2.0);
  EXPECT_DOUBLE_EQ(v.number_or("missing", 9.0), 9.0);
  EXPECT_EQ(v.int_or("missing", 4), 4);
  EXPECT_EQ(v.string_or("missing", "dflt"), "dflt");
  // Present key of the wrong kind is a schema bug, not an optional field.
  EXPECT_THROW(v.string_or("x", "dflt"), JsonError);
}

TEST(Json, ErrorsNameTheProblem) {
  EXPECT_THROW(parse_json(""), JsonError);
  EXPECT_THROW(parse_json("{"), JsonError);
  EXPECT_THROW(parse_json("{\"a\": }"), JsonError);
  EXPECT_THROW(parse_json("[1, 2,]"), JsonError);
  EXPECT_THROW(parse_json("{} trailing"), JsonError);
  EXPECT_THROW(parse_json("nul"), JsonError);
}

TEST(Json, TypedAccessMismatchThrows) {
  const JsonValue v = parse_json(R"({"a": "str"})");
  EXPECT_THROW(v.at("a").as_number(), JsonError);
  EXPECT_THROW(v.at("missing"), JsonError);
  EXPECT_THROW(v.at("a").at("b"), JsonError);
}

TEST(Json, WriterNestsAndSeparates) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.object()
        .field("n", 3)
        .field("ok", true)
        .field("name", "x")
        .object("empty")
        .end()
        .array("rows");
    for (int i = 0; i < 2; ++i) json.object().field("i", i).end();
    json.end()
        .field("grid", std::vector<std::vector<int>>{{1, 2}, {}})
        .field("pair", std::pair<int, double>{4, 0.5})
        .field("map", std::map<std::string, int>{{"a", 1}, {"b", 2}})
        .end();
  }
  EXPECT_EQ(out.str(),
            R"({"n":3,"ok":true,"name":"x","empty":{},"rows":[{"i":0},)"
            R"({"i":1}],"grid":[[1,2],[]],"pair":[4,0.5],)"
            R"("map":{"a":1,"b":2}})");
}

TEST(Json, WriterEscapesWhatTheReaderReadsBack) {
  const std::string odd = std::string("q\"b\\n\nt\tc\x01\x1f") + '\0' + "z";
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.object().field(odd, odd).end();
  }
  EXPECT_EQ(out.str(),
            R"({"q\"b\\n\nt\tc\u0001\u001f\u0000z":)"
            R"("q\"b\\n\nt\tc\u0001\u001f\u0000z"})");
  EXPECT_EQ(parse_json(out.str()).at(odd).as_string(), odd);
}

TEST(Json, WriterPrecisionLastsOnlyAsLongAsTheWriter) {
  std::ostringstream out;
  out.precision(4);
  {
    JsonWriter json(out, JsonWriter::kExact);
    json.array().value(0.1).value(2.0 / 3.0).end();
  }
  out << ' ' << 2.0 / 3.0;
  {
    JsonWriter json(out);
    json.array().value(2.0 / 3.0).end();
  }
  EXPECT_EQ(out.str(), "[0.10000000000000001,0.66666666666666663] 0.6667"
                       "[0.6667]");
}

}  // namespace
}  // namespace dbfs::util
