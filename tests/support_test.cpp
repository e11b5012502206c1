// Tests for the support utilities: formatting, tables, CSV, CLI, RNG.
#include <gtest/gtest.h>

#include <sstream>

#include <cstdlib>

#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/kvfile.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace plin {
namespace {

TEST(UnitsTest, EnergyAndPowerFormatting) {
  EXPECT_EQ(format_energy(1234.0), "1.23 kJ");
  EXPECT_EQ(format_energy(0.5), "500 mJ");
  EXPECT_EQ(format_energy(2.5e6), "2.50 MJ");
  EXPECT_EQ(format_power(150.0), "150 W");
  EXPECT_EQ(format_bytes(2048.0), "2.00 KiB");
}

TEST(UnitsTest, DurationFormatting) {
  EXPECT_EQ(format_duration(0.0123), "12.3 ms");
  EXPECT_EQ(format_duration(4.56), "4.56 s");
  EXPECT_EQ(format_duration(125.0), "2m 05.0s");
}

TEST(UnitsTest, RelDiffIsSymmetricAndSafe) {
  EXPECT_DOUBLE_EQ(rel_diff(10.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(rel_diff(10.0, 5.0), 0.5);
  EXPECT_DOUBLE_EQ(rel_diff(5.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(rel_diff(0.0, 0.0), 0.0);
}

TEST(UnitsTest, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-1.0, 0), "-1");
}

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1.5"});
  table.add_rule();
  table.add_row({"beta", "20"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Numeric cells are right-aligned: "  1.5" not "1.5  ".
  EXPECT_NE(out.find(" 1.5 |"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTableTest, RejectsRaggedRows) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(CsvTest, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvWriter::escape("with\"quote"), "\"with\"\"quote\"");
  std::ostringstream os;
  CsvWriter csv(os);
  csv.write_row({"a", "b,c", "d"});
  EXPECT_EQ(os.str(), "a,\"b,c\",d\n");
}

TEST(CliTest, ParsesFlagsAndPositionals) {
  // A bare flag followed by a non-flag token would consume it as a value
  // (the documented "--name value" form), so boolean flags go last or use
  // the = form.
  const char* argv[] = {"prog",      "--n=128",   "--ranks", "16",
                        "input.plm", "--verbose"};
  const CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("n", 0), 128);
  EXPECT_EQ(args.get_int("ranks", 0), 16);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("quiet", false));
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(args.get_double("n", 0.0), 128.0);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.plm");
  EXPECT_THROW(args.get_int("verbose", 0), Error);  // "true" is not an int
}

TEST(RngTest, DeterministicAndInRange) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  Rng c(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = c.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = c.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
    EXPECT_LT(c.next_below(10), 10u);
  }
  // Different seeds diverge.
  Rng d(8);
  EXPECT_NE(c.next_u64(), d.next_u64());
}

TEST(RngTest, RoughlyUniformMean) {
  Rng rng(99);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(StatsTest, HandComputedSample) {
  const double samples[] = {1.0, 2.0, 3.0, 4.0};
  const SampleStats s = compute_stats(samples);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  // Sample (n-1) standard deviation of {1,2,3,4} is sqrt(5/3).
  EXPECT_DOUBLE_EQ(s.stddev, 1.2909944487358056);
  EXPECT_DOUBLE_EQ(s.ci95_half, 1.96 * s.stddev / 2.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(StatsTest, SingleRepetitionHasNoSpread) {
  const double one[] = {7.25};
  const SampleStats s = compute_stats(one);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.25);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_half, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 7.25);
  EXPECT_DOUBLE_EQ(s.max, 7.25);
}

TEST(StatsTest, EmptySampleIsAllZeros) {
  const SampleStats s = compute_stats({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(CliTest, RequireKnownAcceptsKnownFlags) {
  const char* argv[] = {"prog", "--n", "4", "--verbose"};
  const CliArgs args(4, argv);
  EXPECT_NO_THROW(args.require_known({"n", "verbose"}));
}

TEST(CliTest, RequireKnownListsEveryOffender) {
  const char* argv[] = {"prog", "--n", "4", "--bogus", "--also-bad=1"};
  const CliArgs args(5, argv);
  try {
    args.require_known({"n"});
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--bogus"), std::string::npos) << what;
    EXPECT_NE(what.find("--also-bad"), std::string::npos) << what;
    EXPECT_NE(what.find("--help"), std::string::npos) << what;
  }
}

TEST(CliTest, NumbersRejectTrailingGarbageNamingTheFlag) {
  const char* argv[] = {"prog", "--n=12abc", "--tol=1e-3x", "--ranks=2000",
                        "--ratio=-0.5", "--empty="};
  const CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("ranks", 0), 2000);
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), -0.5);
  for (const char* flag : {"n", "empty"}) {
    try {
      args.get_int(flag, 0);
      FAIL() << "expected InvalidArgument for --" << flag;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + flag),
                std::string::npos)
          << e.what();
    }
  }
  for (const char* flag : {"tol", "n", "empty"}) {
    try {
      args.get_double(flag, 0.0);
      FAIL() << "expected InvalidArgument for --" << flag;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + flag),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(JsonTest, ParseSerializeRoundTripIsByteStable) {
  const std::string text =
      R"({"a":1,"b":[true,false,null],"c":{"nested":"str\"ing"},)"
      R"("d":0.001234567891234567})";
  const json::Value value = json::parse(text);
  EXPECT_EQ(json::serialize(value), text);
  EXPECT_DOUBLE_EQ(value.at("d").as_number(), 0.001234567891234567);
  EXPECT_EQ(value.at("c").at("nested").as_string(), "str\"ing");
}

TEST(JsonTest, NumberFormatting) {
  EXPECT_EQ(json::format_number(0.0), "0");
  EXPECT_EQ(json::format_number(42.0), "42");
  EXPECT_EQ(json::format_number(-3.0), "-3");
  EXPECT_EQ(json::format_number(0.5), "0.5");
  // Round-trips exactly through strtod.
  const double tricky = 0.1 + 0.2;
  EXPECT_EQ(std::strtod(json::format_number(tricky).c_str(), nullptr),
            tricky);
}

TEST(JsonTest, ErrorsNameTheOffset) {
  EXPECT_THROW(json::parse("{\"a\":}"), Error);
  EXPECT_THROW(json::parse("[1,2"), Error);
  EXPECT_THROW(json::parse("{} trailing"), Error);
}

TEST(KvFileTest, ParsesKeysValuesAndComments) {
  const auto lines = parse_kv_text(
      "# header comment\n"
      "campaign demo\n"
      "\n"
      "grid n 8640 17280   # trailing comment\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].line_no, 2);
  EXPECT_EQ(lines[0].key, "campaign");
  ASSERT_EQ(lines[0].values.size(), 1u);
  EXPECT_EQ(lines[0].values[0], "demo");
  EXPECT_EQ(lines[1].line_no, 4);
  EXPECT_EQ(lines[1].key, "grid");
  EXPECT_EQ(lines[1].values,
            (std::vector<std::string>{"n", "8640", "17280"}));
}

TEST(KvFileTest, TrailingWhitespaceAndTabsAreSeparators) {
  const auto lines = parse_kv_text(
      "key1 value1   \n"            // trailing spaces after last token
      "key2\tvalue2\tvalue3\t\n"    // tab-separated, trailing tab
      "  key3 value4\n"             // leading indentation
      "key4   \t  value5\n");       // mixed space/tab runs collapse
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].values, (std::vector<std::string>{"value1"}));
  EXPECT_EQ(lines[1].values, (std::vector<std::string>{"value2", "value3"}));
  EXPECT_EQ(lines[2].key, "key3");
  EXPECT_EQ(lines[3].values, (std::vector<std::string>{"value5"}));
}

TEST(KvFileTest, KeyOnlyLinesHaveEmptyValues) {
  // A bare key is legal syntax — semantics (is an empty value list allowed
  // for this key?) belong to the caller, which still gets the line number.
  const auto lines = parse_kv_text("flag\nflag2   # only a comment after\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].key, "flag");
  EXPECT_TRUE(lines[0].values.empty());
  EXPECT_EQ(lines[1].key, "flag2");
  EXPECT_TRUE(lines[1].values.empty());
  EXPECT_EQ(lines[1].line_no, 2);
}

TEST(KvFileTest, DuplicateKeysAreReportedInOrder) {
  // The parser must not merge or drop duplicates: manifest semantics
  // (last-wins vs grid accumulation) are decided by the caller per key.
  const auto lines = parse_kv_text(
      "grid ranks 144\n"
      "grid ranks 576\n"
      "grid ranks 1296\n");
  ASSERT_EQ(lines.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(lines[static_cast<std::size_t>(i)].key, "grid");
    EXPECT_EQ(lines[static_cast<std::size_t>(i)].line_no, i + 1);
  }
  EXPECT_EQ(lines[0].values[1], "144");
  EXPECT_EQ(lines[1].values[1], "576");
  EXPECT_EQ(lines[2].values[1], "1296");
}

TEST(KvFileTest, CommentOnlyAndBlankLinesProduceNothing) {
  EXPECT_TRUE(parse_kv_text("").empty());
  EXPECT_TRUE(parse_kv_text("\n\n   \n\t\n").empty());
  EXPECT_TRUE(parse_kv_text("# a\n   # b\n#\n").empty());
  // '#' mid-token still starts a comment (tokens never contain '#').
  const auto lines = parse_kv_text("key value#comment\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].values, (std::vector<std::string>{"value"}));
}

TEST(JsonTest, TraceDocumentRoundTripsByteExactly) {
  // A miniature trace summary assembled the way export.cpp does it:
  // ordered objects, nested arrays, doubles at full precision. The bytes
  // must survive serialize → parse → serialize unchanged, because the CI
  // trace-diff job compares summary.json files byte-for-byte.
  json::Value phase = json::make_object();
  phase.set("phase", "gepp:gemm");
  phase.set("seconds", 0.12345678901234567);
  phase.set("cpu_j", 42.5);
  json::Value doc = json::make_object();
  doc.set("schema", "powerlin-trace-summary/v1");
  doc.set("duration_s", 1e-9);
  doc.set("complete", true);
  doc.set("dropped_spans", 0);
  doc.set("phases", json::Array{phase});
  doc.set("end_rank", nullptr);

  const std::string text = json::serialize(doc);
  const json::Value reparsed = json::parse(text);
  EXPECT_EQ(json::serialize(reparsed), text);
  EXPECT_EQ(reparsed.at("phases").as_array().size(), 1u);
  EXPECT_EQ(reparsed.at("phases").as_array()[0].at("seconds").as_number(),
            0.12345678901234567);
  EXPECT_TRUE(reparsed.at("end_rank").is_null());
}

TEST(JsonTest, StringEscapingRoundTrips) {
  // Phase names and file paths end up inside trace JSON; every byte that
  // JSON requires escaped must round-trip, including embedded quotes,
  // backslashes (Windows-style paths) and control characters.
  const std::string hostile =
      "phase \"q\" \\ slash / tab\t newline\n cr\r bell\x07 nul-adjacent\x1f";
  json::Value doc = json::make_object();
  doc.set("name", hostile);
  const std::string text = json::serialize(doc);
  // The serialized form contains no raw control bytes.
  for (const char c : text) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  const json::Value reparsed = json::parse(text);
  EXPECT_EQ(reparsed.at("name").as_string(), hostile);
  EXPECT_EQ(json::serialize(reparsed), text);
}

TEST(ErrorTest, CheckMacrosThrowWithContext) {
  try {
    PLIN_CHECK_MSG(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom context"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("support_test.cpp"),
              std::string::npos);
  }
  EXPECT_NO_THROW(PLIN_CHECK(true));
}

}  // namespace
}  // namespace plin
