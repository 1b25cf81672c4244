// Tests for the shared JSON codec (src/common/json): writer escaping and
// number formatting, the strict reader's grammar, \u decoding to UTF-8,
// the nesting-depth cap, typed conversions, and write/parse round trips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/json.hpp"

namespace pasta::json {
namespace {

std::string
nested(std::size_t depth)
{
    return std::string(depth, '[') + std::string(depth, ']');
}

TEST(JsonWriter, EscapesAndPlacesCommas)
{
    std::string out;
    Writer(out)
        .begin_object()
        .key("s").str("q\"b\\n\nr\rt\tc\x01\x1f/\xc3\xa9")
        .key("b").boolean(false)
        .key("a").begin_array().u64(1).i64(-2).begin_array().end_array()
        .begin_object().end_object().end_array()
        .key("o").begin_object().key("x").boolean(true).end_object()
        .end_object();
    EXPECT_EQ(out,
              "{\"s\":\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001\\u001f/\xc3\xa9\","
              "\"b\":false,\"a\":[1,-2,[],{}],\"o\":{\"x\":true}}");
}

TEST(JsonWriter, FormatsNumbers)
{
    std::string out;
    Writer(out)
        .begin_array()
        .num(0.1)
        .num(1.25e-4)
        .num(4.2e6)
        .num(-0.0)
        .num(std::numeric_limits<double>::quiet_NaN())
        .num(std::numeric_limits<double>::infinity())
        .u64(std::numeric_limits<std::uint64_t>::max())
        .i64(std::numeric_limits<std::int64_t>::min())
        .fixed(12.3456, 3)
        .fixed(1e20, 1)
        .end_array();
    EXPECT_EQ(out,
              "[0.10000000000000001,0.000125,4200000,-0,0,0,"
              "18446744073709551615,-9223372036854775808,12.346,"
              "100000000000000000000.0]");
}

TEST(JsonReader, AcceptsTheGrammar)
{
    Value v;
    for (const char* ok :
         {"0", "-0", "1", "-12", "1.5", "0.25e3", "1E+2", "2e-7", "true",
          "false", "null", "\"\"", "[]", "{}", " [1, 2 ,3] ",
          "{\"a\":{\"b\":[null,true,\"x\"]}}", "\"\\/\\b\\f\\n\\r\\t\""})
        EXPECT_TRUE(parse(ok, v)) << ok;
}

TEST(JsonReader, RejectsEverythingElse)
{
    Value v;
    for (const char* bad :
         {"", " ", "nan", "NaN", "inf", "-inf", "Infinity", "0x10", "+1",
          ".5", "5.", "01", "-", "1e", "1e+", "tru", "nul", "[1,]", "[,1]",
          "{\"a\":1,}", "{\"a\" 1}", "{a:1}", "{\"a\":1", "[1", "\"abc",
          "\"bad\\q\"", "\"\\u12\"", "\"\\uZZZZ\"", "1 2", "{} x",
          "\"raw\ttab\"", "\"raw\nnewline\"", "'single'"})
        EXPECT_FALSE(parse(bad, v)) << bad;
}

TEST(JsonReader, DecodesUnicodeEscapesToUtf8)
{
    Value v;
    ASSERT_TRUE(parse("\"caf\\u00e9 \\u20AC \\ud83d\\ude00 \\u0041\"", v));
    EXPECT_EQ(v.text(), "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80 A");
    // Lone or mismatched surrogates are rejected.
    for (const char* bad :
         {"\"\\ud83d\"", "\"\\ud83dx\"", "\"\\ude00\"",
          "\"\\ud83d\\u0041\"", "\"\\ud83d\\ud83d\""})
        EXPECT_FALSE(parse(bad, v)) << bad;
}

TEST(JsonReader, CapsNestingDepth)
{
    Value v;
    EXPECT_TRUE(parse(nested(kMaxDepth), v));
    EXPECT_FALSE(parse(nested(kMaxDepth + 1), v));
    EXPECT_FALSE(parse(nested(2000000), v));
    std::string objects;
    for (std::size_t i = 0; i < kMaxDepth + 1; ++i)
        objects += "{\"k\":";
    objects += "1" + std::string(kMaxDepth + 1, '}');
    EXPECT_FALSE(parse(objects, v));
}

TEST(JsonReader, ObjectLookupAndTypedConversions)
{
    Value doc;
    ASSERT_TRUE(parse("{\"i\":42,\"i\":7,\"neg\":-3,\"f\":2.9,\"big\":1e300,"
                      "\"u\":18446744073709551615,\"over\":18446744073709551616,"
                      "\"s\":\"x\",\"b\":true,\"n\":null}",
                      doc));
    ASSERT_TRUE(doc.is_object());
    int i = 0;
    EXPECT_TRUE(doc.get("i", i));
    EXPECT_EQ(i, 7);  // the last duplicate wins
    EXPECT_TRUE(doc.get("f", i));
    EXPECT_EQ(i, 2);  // truncates like a cast
    EXPECT_FALSE(doc.get("big", i));
    EXPECT_FALSE(doc.get("s", i));
    EXPECT_FALSE(doc.get("missing", i));
    EXPECT_TRUE(doc.get_optional("missing", i));
    EXPECT_FALSE(doc.get_optional("s", i));

    std::uint64_t u = 0;
    EXPECT_TRUE(doc.get("u", u));
    EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
    EXPECT_FALSE(doc.get("over", u));
    EXPECT_FALSE(doc.get("neg", u));
    EXPECT_TRUE(doc.get("f", u));
    EXPECT_EQ(u, 2u);

    std::int64_t s64 = 0;
    EXPECT_TRUE(doc.get("neg", s64));
    EXPECT_EQ(s64, -3);
    EXPECT_FALSE(doc.get("u", s64));

    double d = 0;
    EXPECT_TRUE(doc.get("big", d));
    EXPECT_EQ(d, 1e300);
    EXPECT_FALSE(doc.get("s", d));

    Value overflow;
    ASSERT_TRUE(parse("1e999", overflow));
    EXPECT_FALSE(overflow.get(d));  // not finite

    std::string str;
    EXPECT_TRUE(doc.get("s", str));
    EXPECT_EQ(str, "x");
    bool b = false;
    EXPECT_TRUE(doc.get("b", b));
    EXPECT_TRUE(b);
    EXPECT_FALSE(doc.get("n", b));
    EXPECT_EQ(doc.find("n")->type(), Value::Type::kNull);
}

TEST(JsonRoundTrip, WriterOutputParsesBackAndReserializesIdentically)
{
    const std::string text =
        "{\"name\":\"a\\tb\\\"c\\\\\",\"ts\":12.500,\"pid\":1,"
        "\"args\":{\"depth\":0,\"list\":[1,-2.5e-7,true,null,\"\"]}}";
    Value v;
    ASSERT_TRUE(parse(text, v));
    std::string again;
    Writer(again).value(v);
    EXPECT_EQ(again, text);  // numbers keep their original tokens
    std::string name;
    ASSERT_TRUE(v.get("name", name));
    EXPECT_EQ(name, "a\tb\"c\\");

    std::string all_bytes;
    for (int c = 1; c < 256; ++c)
        all_bytes += static_cast<char>(c);
    std::string written;
    Writer(written).str(all_bytes);
    Value back;
    ASSERT_TRUE(parse(written, back));
    EXPECT_EQ(back.text(), all_bytes);

    for (const double x : {0.1, 1.0 / 3.0, 6.02214076e23, -4.9e-324,
                           1.7976931348623157e308}) {
        std::string num;
        Writer(num).num(x);
        Value parsed;
        double y = 0;
        ASSERT_TRUE(parse(num, parsed) && parsed.get(y)) << num;
        EXPECT_EQ(y, x) << num;
    }
}

}  // namespace
}  // namespace pasta::json
