/// \file test_record.cpp
/// \brief The record codec (obs/record.hpp) row by row: the exact number
///        readers at their edges, bitwise %.17g round-trips, the JSON
///        string escape, the JSON reader's rejections, and the line grammar
///        with its line- and column-numbered errors.
#include "obs/record.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace cim::obs::record {
namespace {

TEST(RecordCodec, U64AcceptsDigitsOnly) {
  EXPECT_EQ(u64("0"), 0u);
  EXPECT_EQ(u64("007"), 7u);
  EXPECT_EQ(u64("18446744073709551615"), kU64Max);
  EXPECT_EQ(u64("4", 4), 4u);
  for (const char* bad : {"", "-1", "-0", "+5", " 5", "5 ", "0x10", "1.5",
                          "1e3", "18446744073709551616", "9x"})
    EXPECT_EQ(u64(bad), std::nullopt) << bad;
  EXPECT_EQ(u64("5", 4), std::nullopt);
}

TEST(RecordCodec, I64TakesOneLeadingMinus) {
  EXPECT_EQ(i64("-1"), -1);
  EXPECT_EQ(i64("-0"), 0);
  EXPECT_EQ(i64("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(i64("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  for (const char* bad :
       {"", "-", "+1", "--1", "1e10", "1.0", "9223372036854775808"})
    EXPECT_EQ(i64(bad), std::nullopt) << bad;
}

TEST(RecordCodec, F64ReadsThePrintfLanguage) {
  EXPECT_EQ(f64("0"), 0.0);
  EXPECT_EQ(f64("412.5"), 412.5);
  EXPECT_EQ(f64("1e3"), 1000.0);
  EXPECT_EQ(f64("-1.5e-05"), -1.5e-05);
  EXPECT_EQ(f64(".5"), 0.5);
  EXPECT_EQ(f64("inf"), std::numeric_limits<double>::infinity());
  EXPECT_EQ(f64("-inf"), -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(*f64("nan")));
  EXPECT_TRUE(std::signbit(*f64("-nan")));
  for (const char* bad :
       {"", "-", ".", "+5", "0x10", "0x1p3", " 1", "1 ", "1e", "1.5x",
        "1e999", "-1e999", "1e-400", "infinity", "INF", "NaN", "nan(1)"})
    EXPECT_EQ(f64(bad), std::nullopt) << bad;
}

TEST(RecordCodec, G17RoundTripsBitwise) {
  for (const double v :
       {-0.0, 0.0, 4.9406564584124654e-324, 2.2250738585072014e-308,
        1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0,
        9007199254740993.0, 123456.789})
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*f64(g17(v))),
              std::bit_cast<std::uint64_t>(v))
        << g17(v);
  EXPECT_EQ(g17(-0.0), "-0");
  EXPECT_EQ(g17(4.9406564584124654e-324), "4.9406564584124654e-324");
  EXPECT_EQ(g17(1.7976931348623157e308), "1.7976931348623157e+308");
  EXPECT_EQ(hex16(0x2d22df72b139702cULL), "2d22df72b139702c");
  EXPECT_EQ(hex64("2D22df72b139702c"), 0x2d22df72b139702cULL);
  EXPECT_EQ(hex64("0x10"), std::nullopt);
  EXPECT_EQ(hex64("10000000000000000"), std::nullopt);
}

TEST(RecordCodec, JsonNumbersAreFiniteOrZero) {
  EXPECT_EQ(json_num(1.5e308), "1.5e+308");
  EXPECT_EQ(json_num(-0.0), "-0");
  EXPECT_EQ(json_num(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_num(std::numeric_limits<double>::quiet_NaN()), "0");
}

TEST(RecordCodec, JsonStringEscapesControlBytes) {
  EXPECT_EQ(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_string("\n\t\r"), "\"\\n\\t\\r\"");
  EXPECT_EQ(json_string(std::string("\0\x01\x1f\x7f", 4)),
            "\"\\u0000\\u0001\\u001f\x7f\"");
  // Every byte value survives write -> parse.
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  EXPECT_EQ(json::parse(json_string(all)).as_string(), all);
  // \u escapes decode to UTF-8.
  EXPECT_EQ(json::parse("\"\\u00e9\\u20ac\"").as_string(),
            "\xc3\xa9\xe2\x82\xac");
}

TEST(RecordCodec, JsonRejectsDuplicatesNonFiniteAndDeepNesting) {
  EXPECT_THROW(json::parse(R"({"a":1,"a":2})"), ParseError);
  EXPECT_THROW(json::parse("1e999"), ParseError);
  EXPECT_THROW(json::parse("[+5]"), ParseError);
  EXPECT_THROW(json::parse("nan"), ParseError);
  EXPECT_THROW(json::parse(std::string(100000, '[')), ParseError);
  EXPECT_NO_THROW(json::parse(std::string(200, '[') + std::string(200, ']')));
  try {
    json::parse("{\n  \"a\": }");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.col(), 8u);
    EXPECT_STREQ(e.what(),
                 "json parse error: line 2: expected a value (col 8)");
  }
}

TEST(RecordCodec, JsonIntegersAreExact) {
  const json::Value v = json::parse(
      "[9007199254740993,18446744073709551615,-9223372036854775808,1.5,1e2,"
      "-1,18446744073709551616]");
  const json::Array& a = v.as_array();
  EXPECT_EQ(a[0].as_u64(), 9007199254740993ULL);
  EXPECT_EQ(a[1].as_u64(), kU64Max);
  EXPECT_EQ(a[2].as_i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW(a[3].as_u64(), std::runtime_error);
  EXPECT_THROW(a[4].as_i64(), std::runtime_error);
  EXPECT_THROW(a[5].as_u64(), std::runtime_error);
  EXPECT_EQ(a[5].as_i64(), -1);
  EXPECT_THROW(a[6].as_u64(), std::runtime_error);
  EXPECT_EQ(a[6].as_number(), 18446744073709551616.0);
}

TEST(RecordCodec, ReaderLineGrammar) {
  std::istringstream is(
      "# leading comment\r\n"
      "\n"
      "magic-v1 \t\r\n"
      "  key 12\t# trailing comment\r\n"
      "   # indented comment\n"
      "pair 1.5 -0\n"
      "last 7");
  Reader r(is, "fmt");
  r.header("magic-v1");
  r.end();
  ASSERT_TRUE(r.next());
  r.expect("key");
  EXPECT_EQ(r.tokens_left(), 1u);
  EXPECT_EQ(r.u64("value"), 12u);
  EXPECT_TRUE(r.at_end());
  ASSERT_TRUE(r.next());
  EXPECT_EQ(r.token("key"), "pair");
  EXPECT_EQ(r.f64("x"), 1.5);
  EXPECT_TRUE(std::signbit(r.f64("y")));
  ASSERT_TRUE(r.next());
  EXPECT_EQ(r.token("key"), "last");
  try {
    r.u64("count", 5);
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 7u);
    EXPECT_EQ(e.col(), 6u);
    EXPECT_STREQ(e.what(),
                 "fmt parse error: line 7: count '7' is not an unsigned "
                 "integer <= 5 (col 6)");
  }
  EXPECT_FALSE(r.next());
  // Failing past the last line names the line after it.
  try {
    r.fail("missing trailer");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 8u);
  }
}

TEST(RecordCodec, ReaderHeaderAndTrailingTokens) {
  const auto error_of = [](std::string_view text, auto&& read) {
    Reader r(text, "fmt");
    try {
      read(r);
    } catch (const ParseError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const auto header = [](Reader& r) { r.header("magic-v1"); };
  EXPECT_EQ(error_of("", header),
            "fmt parse error: line 1: empty stream: no header (missing "
            "'magic-v1') (col 1)");
  EXPECT_EQ(error_of("\n# only a comment\n", header),
            "fmt parse error: line 3: empty stream: no header (missing "
            "'magic-v1') (col 1)");
  EXPECT_EQ(error_of("magic-v2\n", header),
            "fmt parse error: line 1: expected header 'magic-v1', got "
            "'magic-v2' (col 1)");
  EXPECT_EQ(error_of("magic-v1 extra\n",
                     [](Reader& r) {
                       r.header("magic-v1");
                       r.end();
                     }),
            "fmt parse error: line 1: trailing tokens (col 10)");
  EXPECT_EQ(error_of("magic-v1\nkey\n",
                     [](Reader& r) {
                       r.header("magic-v1");
                       r.next();
                       r.expect("key");
                       r.u64("value");
                     }),
            "fmt parse error: line 2: missing value (col 4)");
}

TEST(RecordCodec, JsonLinesNameTheFailingLine) {
  const auto decode_all = [](std::string_view text) {
    std::istringstream is{std::string(text)};
    Reader r(is, "fmt");
    std::uint64_t sum = 0;
    r.json_lines("fmt-v1", [&](const json::Value& v) {
      sum += v.at("n").as_u64();
    });
    return sum;
  };
  EXPECT_EQ(decode_all("{\"format\":\"fmt-v1\"}\n{\"n\":1}\n\n{\"n\":2}\r\n"),
            3u);
  for (const auto& [text, want] : {
           std::pair{"", "line 1: empty stream"},
           std::pair{"{\"format\":\"fmt-v2\"}\n", "line 1: expected header"},
           std::pair{"{\"format\":\"fmt-v1\"}\n{\"m\":1}\n",
                     "line 2: json: missing 'n' (col 1)"},
           std::pair{"{\"format\":\"fmt-v1\"}\n{\"n\":1}\n{\"n\":1.5}\n",
                     "line 3: json: number 1.5 is not an unsigned integer"},
           std::pair{"{\"format\":\"fmt-v1\"}\n{\"n\":1}\n{\"n\":}\n",
                     "line 3: expected a value (col 6)"},
       }) {
    try {
      decode_all(text);
      FAIL() << text;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what() << " lacks " << want;
    }
  }
}

}  // namespace
}  // namespace cim::obs::record
