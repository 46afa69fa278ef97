// util_test.cpp - utility layer: deterministic RNG, the ASCII table
// writer used by the benchmark harnesses, the JSON reader/writer and the
// width-packed integer array behind cached schedule payloads.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "util/check.h"
#include "util/json.h"
#include "util/json_parse.h"
#include "util/packed_ints.h"
#include "util/rng.h"
#include "util/table.h"

using softsched::packed_ints;
using softsched::rng;
using softsched::table;

TEST(Rng, DeterministicAcrossInstances) {
  rng a(42);
  rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  rng a(1);
  rng b(2);
  bool differed = false;
  for (int i = 0; i < 10 && !differed; ++i) differed = a.next() != b.next();
  EXPECT_TRUE(differed);
}

TEST(Rng, BelowStaysInRange) {
  rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  rng r(8);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t x = r.range(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= x == -3;
    saw_hi |= x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  rng r(10);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ShufflePreservesElements) {
  rng r(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  r.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Table, AlignsColumns) {
  table t;
  t.set_header({"a", "long-header", "c"});
  t.add_row({"xxxxxx", "1", "2"});
  t.add_separator();
  t.add_row({"y", "22", "333"});
  std::ostringstream ss;
  t.print(ss);
  const std::string text = ss.str();
  // All rule lines identical -> columns aligned.
  std::istringstream lines(text);
  std::string line;
  std::string rule;
  std::size_t rule_count = 0;
  while (std::getline(lines, line)) {
    if (!line.empty() && line[0] == '+') {
      if (rule.empty()) rule = line;
      EXPECT_EQ(line, rule);
      ++rule_count;
    }
  }
  EXPECT_EQ(rule_count, 4u); // top, under-header, separator, bottom
  EXPECT_NE(text.find("long-header"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), softsched::precondition_error);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(softsched::cell(42), "42");
  EXPECT_EQ(softsched::cell(-7), "-7");
  EXPECT_EQ(softsched::cell(3.14159, 2), "3.14");
  EXPECT_EQ(softsched::cell(2.0, 1), "2.0");
}

TEST(Check, MacroThrowsWithContext) {
  try {
    SOFTSCHED_EXPECT(1 == 2, "one is not two");
    FAIL() << "expected precondition_error";
  } catch (const softsched::precondition_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
  }
}

// -- json_parse: the reader side of the serve engine's JSONL protocol ------

TEST(JsonParse, ParsesScalarsAndNesting) {
  const auto v = softsched::parse_json(
      R"({"name":"ewf","n":3,"neg":-2.5,"big":1e3,"ok":true,"off":false,"none":null,)"
      R"("list":[1,[2,3],{"k":"v"}]})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("name")->as_string(), "ewf");
  EXPECT_EQ(v.find("n")->as_integer(0, 10), 3);
  EXPECT_DOUBLE_EQ(v.find("neg")->as_number(), -2.5);
  EXPECT_DOUBLE_EQ(v.find("big")->as_number(), 1000.0);
  EXPECT_TRUE(v.find("ok")->as_bool());
  EXPECT_FALSE(v.find("off")->as_bool());
  EXPECT_TRUE(v.find("none")->is_null());
  const auto& list = v.find("list")->items();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[1].items()[1].as_integer(0, 10), 3);
  EXPECT_EQ(list[2].find("k")->as_string(), "v");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, DecodesEscapes) {
  const auto v = softsched::parse_json(R"("a\"b\\c\n\tAé€")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\n\tA\xc3\xa9\xe2\x82\xac");
  const auto pair = softsched::parse_json(R"("😀")"); // surrogate pair
  EXPECT_EQ(pair.as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParse, PreservesMemberOrderAndRejectsDuplicates) {
  const auto v = softsched::parse_json(R"({"z":1,"a":2})");
  ASSERT_EQ(v.members().size(), 2u);
  EXPECT_EQ(v.members()[0].first, "z");
  EXPECT_EQ(v.members()[1].first, "a");
  EXPECT_THROW(softsched::parse_json(R"({"a":1,"a":2})"), softsched::json_error);
}

TEST(JsonParse, RejectsMalformedDocuments) {
  using softsched::json_error;
  using softsched::parse_json;
  EXPECT_THROW(parse_json(""), json_error);
  EXPECT_THROW(parse_json("{"), json_error);
  EXPECT_THROW(parse_json("[1,]"), json_error);
  EXPECT_THROW(parse_json(R"({"a" 1})"), json_error);
  EXPECT_THROW(parse_json("{} trailing"), json_error);
  EXPECT_THROW(parse_json(R"("unterminated)"), json_error);
  EXPECT_THROW(parse_json(R"("bad \x escape")"), json_error);
  EXPECT_THROW(parse_json("01"), json_error);
  EXPECT_THROW(parse_json("1."), json_error);
  EXPECT_THROW(parse_json("tru"), json_error);
  EXPECT_THROW(parse_json("\"tab\tliteral\""), json_error);
  EXPECT_THROW(parse_json(R"("\ud800 lonely")"), json_error);
}

TEST(JsonParse, TypedAccessorsEnforceKinds) {
  const auto v = softsched::parse_json(R"({"s":"x","n":1.5})");
  EXPECT_THROW((void)v.find("s")->as_number(), softsched::json_error);
  EXPECT_THROW((void)v.find("n")->as_string(), softsched::json_error);
  EXPECT_THROW((void)v.find("n")->as_integer(0, 10), softsched::json_error);
  EXPECT_THROW((void)v.as_bool(), softsched::json_error);
  EXPECT_THROW((void)softsched::parse_json("[1]").members(), softsched::json_error);
}

TEST(JsonWriter, CompactModeIsSingleLine) {
  std::ostringstream os;
  softsched::json_writer j(os, /*compact=*/true);
  j.begin_object();
  j.member("a", 1);
  j.key("list");
  j.begin_array();
  j.value(2);
  j.value("x");
  j.end_array();
  j.end_object();
  EXPECT_TRUE(j.done());
  EXPECT_EQ(os.str(), R"({"a":1,"list":[2,"x"]})");
  // And the round trip through the parser holds.
  const auto v = softsched::parse_json(os.str());
  EXPECT_EQ(v.find("a")->as_integer(0, 10), 1);
}

// -- packed_ints --------------------------------------------------------------

TEST(PackedInts, WidthIsTheNarrowestThatHoldsMinAndMax) {
  struct boundary {
    long long lo, hi;
    unsigned width;
  };
  constexpr long long two31 = 1LL << 31;
  const boundary cases[] = {
      {-128, 127, 1},       {-129, 0, 2},       {0, 128, 2},
      {-32768, 32767, 2},   {-32769, 0, 4},     {0, 32768, 4},
      {-two31, two31 - 1, 4}, {-two31 - 1, 0, 8}, {0, two31, 8},
      {std::numeric_limits<long long>::min(), std::numeric_limits<long long>::max(), 8},
  };
  for (const boundary& c : cases) {
    const packed_ints p{c.lo, c.hi};
    EXPECT_EQ(p.width(), c.width) << c.lo << ".." << c.hi;
    EXPECT_EQ(p.raw().size(), 2 * c.width);
    ASSERT_EQ(p.size(), 2u);
    EXPECT_EQ(p[0], c.lo);
    EXPECT_EQ(p[1], c.hi);
  }
}

TEST(PackedInts, NegativeUnitsRoundTripAtOneByte) {
  // fds answers carry unit -1 (unbound) for every op.
  const std::vector<int> units = {-1, -1, 0, 3, -1};
  const packed_ints p = units;
  EXPECT_EQ(p.width(), 1u);
  EXPECT_EQ(std::vector<long long>(p.begin(), p.end()),
            std::vector<long long>(units.begin(), units.end()));
}

TEST(PackedInts, EmptyArraysAreEqualWhateverTheirSource) {
  const packed_ints none;
  const packed_ints from_vector = std::vector<long long>{};
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.begin(), none.end());
  EXPECT_EQ(none, from_vector);
  EXPECT_NE(none, (packed_ints{0}));
}

TEST(PackedInts, EqualityComparesValuesNotWidths) {
  const packed_ints narrow{1, 2, 3};
  const packed_ints wide = packed_ints::from_raw(
      8, std::string("\x01\0\0\0\0\0\0\0\x02\0\0\0\0\0\0\0\x03\0\0\0\0\0\0\0", 24));
  ASSERT_EQ(wide.width(), 8u);
  EXPECT_EQ(narrow, wide);
  EXPECT_NE(narrow, (packed_ints{1, 2}));
  EXPECT_NE(narrow, (packed_ints{1, 2, 4}));
  EXPECT_NE(narrow, (packed_ints{1, 2, 300}));
}

TEST(PackedInts, RawBytesRoundTripAndBadWidthsThrow) {
  const packed_ints p{-40000, 7, 40000};
  ASSERT_EQ(p.width(), 4u);
  EXPECT_EQ(packed_ints::from_raw(p.width(), p.raw()), p);
  EXPECT_THROW((void)packed_ints::from_raw(3, "abc"), softsched::precondition_error);
  EXPECT_THROW((void)packed_ints::from_raw(2, "abc"), softsched::precondition_error);
  for (const unsigned w : {0u, 3u, 5u, 16u}) EXPECT_FALSE(packed_ints::valid_width(w));
}

TEST(PackedInts, PermutedGathersAtTheSameWidth) {
  const packed_ints p{10, -20, 30};
  const packed_ints q = p.permuted({2, 0, 1});
  EXPECT_EQ(q, (packed_ints{30, 10, -20}));
  EXPECT_EQ(q.width(), p.width());
  EXPECT_THROW((void)p.permuted({0, 1}), softsched::precondition_error);
  EXPECT_THROW((void)p.permuted({0, 1, 3}), softsched::precondition_error);
}
