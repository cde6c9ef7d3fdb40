// Statistics and table formatting used by the experiment harnesses, plus
// the JSON layer (writer hardening + the recursive-descent reader).
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "analysis/json.hpp"
#include "analysis/stats.hpp"
#include "analysis/table.hpp"

namespace protest {
namespace {

TEST(Stats, PerfectCorrelation) {
  const double x[] = {0.1, 0.2, 0.3, 0.9};
  const double y[] = {0.2, 0.4, 0.6, 1.8};
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
  const double z[] = {-0.1, -0.2, -0.3, -0.9};
  EXPECT_NEAR(pearson_correlation(x, z), -1.0, 1e-12);
}

TEST(Stats, ZeroForConstantSeries) {
  const double x[] = {0.5, 0.5, 0.5};
  const double y[] = {0.1, 0.9, 0.3};
  EXPECT_DOUBLE_EQ(pearson_correlation(x, y), 0.0);
}

TEST(Stats, UncorrelatedNearZero) {
  std::vector<double> x, y;
  // A deterministic "checkerboard" with zero linear relation.
  for (int i = 0; i < 1000; ++i) {
    x.push_back(i % 2);
    y.push_back((i / 2) % 2);
  }
  EXPECT_NEAR(pearson_correlation(x, y), 0.0, 0.01);
}

TEST(Stats, CompareEstimatesFields) {
  const double est[] = {0.5, 0.2, 0.9};
  const double ref[] = {0.4, 0.2, 1.0};
  const ErrorStats s = compare_estimates(est, ref);
  EXPECT_NEAR(s.max_abs_error, 0.1, 1e-12);
  EXPECT_NEAR(s.mean_abs_error, 0.2 / 3, 1e-12);
  EXPECT_NEAR(s.mean_signed_error, 0.0, 1e-12);
  EXPECT_EQ(s.count, 3u);
}

TEST(Stats, SignedErrorShowsUnderestimationBias) {
  // est systematically below ref, like fig. 6 (P_SIM > P_PROT).
  const double est[] = {0.1, 0.2, 0.3};
  const double ref[] = {0.3, 0.4, 0.5};
  EXPECT_NEAR(compare_estimates(est, ref).mean_signed_error, -0.2, 1e-12);
}

TEST(Stats, ScatterSeriesFormat) {
  const double x[] = {0.25};
  const double y[] = {0.75};
  EXPECT_EQ(scatter_series(x, y), "0.25 0.75\n");
}

TEST(Stats, AsciiScatterMarksPoints) {
  const double x[] = {0.0, 1.0};
  const double y[] = {0.0, 1.0};
  const std::string plot = ascii_scatter(x, y, 11, 5);
  EXPECT_NE(plot.find('.'), std::string::npos);
  EXPECT_NE(plot.find("P_PROT"), std::string::npos);
}

TEST(Stats, Validation) {
  const double x[] = {0.1};
  const double y2[] = {0.1, 0.2};
  EXPECT_THROW(pearson_correlation(x, y2), std::invalid_argument);
  EXPECT_THROW(compare_estimates(x, y2), std::invalid_argument);
}

TEST(Table, AlignsColumns) {
  TextTable t({"circuit", "N"});
  t.add_row({"ALU", "212"});
  t.add_row({"MULT", "607"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| circuit | N   |"), std::string::npos);
  EXPECT_NE(s.find("| ALU     | 212 |"), std::string::npos);
}

TEST(Table, RejectsBadRows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt(0.12345, 3), "0.123");
  EXPECT_EQ(fmt(2.0, 1), "2.0");
  EXPECT_EQ(fmt_int(1234567), "1 234 567");
  EXPECT_EQ(fmt_int(42), "42");
}

// --- JsonWriter hardening ---------------------------------------------------

TEST(JsonWriter, EscapesControlCharacters) {
  // Every control character < 0x20 must come out escaped — either as the
  // short form or as \u00XX — so NDJSON consumers never see a raw
  // control byte inside a string.
  EXPECT_EQ(JsonWriter::quote("a\nb\tc\rd"), "\"a\\nb\\tc\\rd\"");
  EXPECT_EQ(JsonWriter::quote(std::string_view("x\x01y\x1f", 4)),
            "\"x\\u0001y\\u001f\"");
  EXPECT_EQ(JsonWriter::quote("quote\" back\\slash"),
            "\"quote\\\" back\\\\slash\"");
}

TEST(JsonWriter, NonFiniteDoublesEmitNull) {
  JsonWriter w(0);
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.value(1.5);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null,null,1.5]");
}

TEST(JsonWriter, DoublesRoundTripShortest) {
  JsonWriter w(0);
  w.begin_array();
  w.value(0.1);
  w.value(1.0 / 3.0);
  w.value(1e-300);
  w.end_array();
  const JsonValue doc = parse_json(w.str());
  const JsonValue::Array& a = doc.as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].as_number(), 0.1);
  EXPECT_EQ(a[1].as_number(), 1.0 / 3.0);
  EXPECT_EQ(a[2].as_number(), 1e-300);
}

TEST(JsonWriter, RawSplicesVerbatim) {
  JsonWriter w(0);
  w.begin_object();
  w.key("result").raw("{\"p\":0.25}");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"result\":{\"p\":0.25}}");
}

// --- number format differential ---------------------------------------------
//
// The writer's number format is part of the wire contract: integral
// doubles below 1e15 print like integers, everything else in the shortest
// "%.*g" form that reads back to the same double.  The oracle is the
// writer's original formatter, kept here verbatim: probe snprintf at
// precision 1..17 and keep the first string strtod reads back exactly.

std::string oracle_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  if (v == std::trunc(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    for (int prec = 1; prec <= 17; ++prec) {
      std::snprintf(buf, sizeof buf, "%.*g", prec, v);
      if (std::strtod(buf, nullptr) == v) break;
    }
  }
  return buf;
}

/// Checks `values` against the oracle byte for byte: one writer array per
/// call, and on a mismatch the first differing value by its bits.
void expect_oracle_format(const std::vector<double>& values) {
  JsonWriter w(0);
  w.begin_array();
  std::string expected = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    w.value(values[i]);
    if (i > 0) expected += ',';
    expected += oracle_double(values[i]);
  }
  w.end_array();
  expected += ']';
  if (w.str() == expected) return;
  for (const double v : values) {
    JsonWriter one(0);
    one.value(v);
    ASSERT_EQ(one.str(), oracle_double(v))
        << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v);
  }
  FAIL() << "array output differs but no single value does";
}

/// v, its neighbours one ulp away, and the negations of all three.
void add_with_neighbours(std::vector<double>& out, double v) {
  for (const double x : {v, std::nextafter(v, 0.0),
                         std::nextafter(v, std::numeric_limits<double>::infinity())}) {
    out.push_back(x);
    out.push_back(-x);
  }
}

TEST(JsonNumberFormat, EdgeSetsMatchTheProbeLoop) {
  std::vector<double> v;
  for (int e = -1074; e <= 1023; ++e) add_with_neighbours(v, std::ldexp(1.0, e));
  for (int e = -323; e <= 308; ++e) {
    char text[16];
    std::snprintf(text, sizeof text, "1e%d", e);
    add_with_neighbours(v, std::strtod(text, nullptr));
  }
  for (const double x :
       {DBL_TRUE_MIN, DBL_MIN, DBL_MAX, 1e15, 1e15 - 1, 1e15 + 1,
        999999999999999.5, 1e15 - 0.25, 9007199254740992.0, 0.5, 0.1, 1.0,
        1.0 / 3.0, 2.0 / 3.0, 1e-5, 1e-4, 1e16, 1e17, 123456789012345678.0})
    add_with_neighbours(v, x);
  v.push_back(0.0);
  v.push_back(-0.0);
  v.push_back(std::numeric_limits<double>::quiet_NaN());
  v.push_back(std::numeric_limits<double>::infinity());
  v.push_back(-std::numeric_limits<double>::infinity());
  expect_oracle_format(v);
  // Spot checks of the layout itself, so the oracle cannot drift unseen.
  JsonWriter w(0);
  w.begin_array();
  for (const double x : {-0.0, 1e15 - 1, 1e15, 0.1, 1e-5, DBL_TRUE_MIN})
    w.value(x);
  w.end_array();
  EXPECT_EQ(w.str(), "[-0,999999999999999,1e+15,0.1,1e-05,5e-324]");
}

TEST(JsonNumberFormat, SeededDoublesMatchTheProbeLoop) {
  // The engine's output sequence is fixed by the standard (distributions
  // are not), so values are derived from raw 64-bit draws.
  std::mt19937_64 rng(20261017);
  constexpr std::size_t kChunk = 4096;
  constexpr std::size_t kChunks = 256;  // 1'048'576 values
  std::vector<double> v;
  v.reserve(kChunk);
  for (std::size_t c = 0; c < kChunks; ++c) {
    v.clear();
    for (std::size_t i = 0; i < kChunk; ++i) {
      const std::uint64_t r = rng();
      const double unit = static_cast<double>(r >> 11) * 0x1p-53;
      switch (i % 5) {
        case 0: v.push_back(unit); break;  // a probability
        case 1: v.push_back(std::bit_cast<double>(r)); break;  // any bits
        case 2: v.push_back(unit * unit * unit); break;  // product of three
        case 3:  // a short decimal, k / 10^j
          v.push_back(static_cast<double>(r % 100000) /
                      std::pow(10.0, static_cast<double>((r >> 32) % 12)));
          break;
        default:  // log-uniform over the whole exponent range
          v.push_back(std::ldexp(0.5 + unit / 2,
                                 static_cast<int>((r >> 53) % 2098) - 1074));
      }
    }
    expect_oracle_format(v);
    if (HasFatalFailure()) return;
  }
}

TEST(JsonNumberFormat, IntegerWritersMatchPrintf) {
  std::mt19937_64 rng(7);
  JsonWriter w(0);
  std::string expected;
  char buf[32];
  auto add_u = [&](unsigned long long u) {
    w.value(u);
    std::snprintf(buf, sizeof buf, "%llu", u);
    expected += buf;
  };
  auto add_i = [&](long long i) {
    w.value(i);
    std::snprintf(buf, sizeof buf, "%lld", i);
    expected += buf;
  };
  w.begin_array();
  expected = "[";
  bool first = true;
  auto sep = [&] {
    if (!first) expected += ',';
    first = false;
  };
  for (const unsigned long long u :
       {0ull, 1ull, 9ull, 10ull, 99ull, 100ull, 4294967295ull, 4294967296ull,
        std::numeric_limits<unsigned long long>::max()}) {
    sep();
    add_u(u);
  }
  for (const long long i :
       {0ll, -1ll, 1ll, -10ll, std::numeric_limits<long long>::min(),
        std::numeric_limits<long long>::max()}) {
    sep();
    add_i(i);
  }
  for (int k = 0; k < 10000; ++k) {
    const std::uint64_t r = rng();
    sep();
    add_u(r >> (r % 64));
    sep();
    add_i(static_cast<long long>(r) >> (r % 64));
  }
  w.end_array();
  expected += ']';
  EXPECT_EQ(w.str(), expected);
  // Narrow integer types take the same path.
  JsonWriter small(0);
  small.begin_array();
  small.value(std::uint8_t{255});
  small.value(std::int16_t{-32768});
  small.value(std::size_t{42});
  small.end_array();
  EXPECT_EQ(small.str(), "[255,-32768,42]");
}

// --- JsonValue / parse_json -------------------------------------------------

TEST(JsonReader, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_EQ(parse_json("42").as_number(), 42.0);
  EXPECT_EQ(parse_json("-0.5e2").as_number(), -50.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
  EXPECT_TRUE(parse_json("  [ ]\n").as_array().empty());
  EXPECT_TRUE(parse_json("{}").as_object().empty());
}

TEST(JsonReader, ParsesNestedAndPreservesOrder) {
  const JsonValue doc =
      parse_json("{\"b\":[1,2,{\"c\":null}],\"a\":{\"x\":true}}");
  const JsonValue::Object& o = doc.as_object();
  ASSERT_EQ(o.size(), 2u);
  EXPECT_EQ(o[0].first, "b");  // insertion order, not sorted
  EXPECT_EQ(o[1].first, "a");
  EXPECT_EQ(doc.at("b").as_array()[1].as_number(), 2.0);
  EXPECT_TRUE(doc.at("b").as_array()[2].at("c").is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), std::runtime_error);
}

TEST(JsonReader, DecodesEscapes) {
  EXPECT_EQ(parse_json("\"a\\n\\t\\\\\\\"\\/\"").as_string(), "a\n\t\\\"/");
  EXPECT_EQ(parse_json("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
  // Surrogate pair U+1F600 -> 4-byte UTF-8.
  EXPECT_EQ(parse_json("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
  // Writer's control-character form decodes back.
  EXPECT_EQ(parse_json(JsonWriter::quote("x\x01y")).as_string(), "x\x01y");
}

TEST(JsonReader, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), JsonParseError);
  EXPECT_THROW(parse_json("{\"a\":1,}"), JsonParseError);   // trailing comma
  EXPECT_THROW(parse_json("{\"a\" 1}"), JsonParseError);    // missing colon
  EXPECT_THROW(parse_json("[1 2]"), JsonParseError);
  EXPECT_THROW(parse_json("\"unterminated"), JsonParseError);
  EXPECT_THROW(parse_json("\"bad\\q\""), JsonParseError);
  EXPECT_THROW(parse_json("\"\\ud83d\""), JsonParseError);  // lone surrogate
  EXPECT_THROW(parse_json("\"raw\ntab\""), JsonParseError); // bare control
  EXPECT_THROW(parse_json("01"), JsonParseError);           // leading zero
  EXPECT_THROW(parse_json("1."), JsonParseError);
  EXPECT_THROW(parse_json("nul"), JsonParseError);
  EXPECT_THROW(parse_json("{} trailing"), JsonParseError);
  try {
    parse_json("[1,");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.offset(), 3u);  // failure position is reported
  }
}

TEST(JsonReader, DepthBombFailsCleanly) {
  // 100k unclosed arrays must raise JsonParseError, not overflow the
  // stack — the parser caps nesting.
  const std::string bomb(100'000, '[');
  EXPECT_THROW(parse_json(bomb), JsonParseError);
}

TEST(JsonReader, TypeMismatchesThrowDescriptively) {
  const JsonValue v = parse_json("[1]");
  EXPECT_THROW(v.as_bool(), std::runtime_error);
  EXPECT_THROW(v.as_string(), std::runtime_error);
  EXPECT_THROW(v.as_object(), std::runtime_error);
  EXPECT_THROW(v.find("k"), std::runtime_error);  // not an object
  try {
    v.as_number();
    FAIL() << "expected type error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("array"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("number"), std::string::npos);
  }
}

TEST(JsonReader, ParseWriteRoundTripIsByteIdentical) {
  // Writer output -> parse -> write must reproduce the exact bytes (the
  // property the service protocol's embedded payloads rely on).
  JsonWriter w(0);
  w.begin_object();
  w.key("engine").value("protest");
  w.key("probs").begin_array();
  w.value(0.1);
  w.value(1.0 / 3.0);
  w.value(true);
  w.null();
  w.end_array();
  w.key("count").value(std::uint64_t{123456789});
  w.key("text").value("line\nbreak \x01 end");
  w.end_object();
  const std::string original = w.str();
  EXPECT_EQ(to_json(parse_json(original), 0), original);
  // Indented output parses to the same tree as compact.
  JsonWriter wi(2);
  write_value(wi, parse_json(original));
  EXPECT_EQ(to_json(parse_json(wi.str()), 0), original);
}

}  // namespace
}  // namespace protest
