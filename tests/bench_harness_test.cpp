// The gated benches' shared harness (bench/harness.hpp): the baseline
// comparator's three rules at their boundaries, the failures it must name,
// an unwritable --out, and a document read back as its own baseline.
#include "bench/harness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace plin;
namespace fs = std::filesystem;

class HarnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("plin_bench_harness_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// A baseline document holding `records` (metric, value).
  std::string baseline(
      const std::vector<std::pair<std::string, double>>& records) const {
    json::Array list;
    for (const auto& [metric, value] : records) {
      json::Value r = json::make_object();
      r.set("metric", metric);
      r.set("value", value);
      list.push_back(std::move(r));
    }
    json::Value doc = json::make_object();
    doc.set("schema", bench::kSchema);
    doc.set("harness", "t");
    doc.set("records", std::move(list));
    const std::string file = path("baseline.json");
    std::ofstream(file) << json::serialize(doc);
    return file;
  }

  /// Runs harness "t" with `flags` plus --out=out.json; returns its exit
  /// status.
  int run(std::vector<std::string> flags,
          const std::function<void(bench::Harness&)>& body) const {
    flags.insert(flags.begin(), "bench_t");
    if (std::none_of(flags.begin(), flags.end(), [](const std::string& f) {
          return f.rfind("--out=", 0) == 0;
        })) {
      flags.push_back("--out=" + path("out.json"));
    }
    std::vector<const char*> argv;
    for (const std::string& f : flags) argv.push_back(f.c_str());
    bench::Harness h("t", static_cast<int>(argv.size()), argv.data());
    body(h);
    return h.finish();
  }

  json::Value output() const {
    std::ifstream in(path("out.json"));
    std::ostringstream text;
    text << in.rdbuf();
    return json::parse(text.str());
  }

  /// The detail of the first failed gate of the last run.
  std::string failure() const {
    const json::Value doc = output();
    for (const json::Value& g : doc.at("gates").as_array()) {
      if (!g.at("ok").as_bool()) return g.at("detail").as_string();
    }
    return "";
  }

  /// Exit status of one baselined record `value` under `rule` against a
  /// baseline value `base`.
  int compare(double value, bench::Rule rule, double base) const {
    const std::string file = baseline({{"m", base}});
    return run({"--check", "--baseline=" + file}, [&](bench::Harness& h) {
      h.record("m", value, "count", bench::Clock::kNone, rule);
    });
  }

  fs::path dir_;
};

TEST_F(HarnessTest, ExactPassesOnlyOnTheSameValue) {
  EXPECT_EQ(compare(24.0, bench::exact(), 24.0), 0);
  EXPECT_EQ(compare(std::nextafter(24.0, 25.0), bench::exact(), 24.0), 1);
  EXPECT_EQ(compare(25.0, bench::exact(), 24.0), 1);
}

TEST_F(HarnessTest, RelPassesAtTheToleranceAndFailsJustPast) {
  EXPECT_EQ(compare(1.5, bench::rel(0.5), 1.0), 0);
  EXPECT_EQ(compare(0.5, bench::rel(0.5), 1.0), 0);
  EXPECT_EQ(compare(std::nextafter(1.5, 2.0), bench::rel(0.5), 1.0), 1);
  // Below the base, 1 - nextafter(0.5, 0) rounds back to 0.5.
  EXPECT_EQ(compare(0.5 - 1e-15, bench::rel(0.5), 1.0), 1);
}

TEST_F(HarnessTest, AtMostPassesAtTheFactorAndFailsJustPast) {
  EXPECT_EQ(compare(3.0, bench::at_most(1.5), 2.0), 0);
  EXPECT_EQ(compare(0.0, bench::at_most(1.5), 2.0), 0);
  EXPECT_EQ(compare(std::nextafter(3.0, 4.0), bench::at_most(1.5), 2.0), 1);
}

TEST_F(HarnessTest, FailedComparisonNamesRuleAndBothValues) {
  EXPECT_EQ(compare(25.0, bench::exact(), 24.0), 1);
  EXPECT_EQ(failure(), "25 vs baseline 24 (exact)");
  const json::Value doc = output();
  const json::Value& record = doc.at("records").as_array().at(0);
  EXPECT_EQ(record.at("rule").as_string(), "exact");
  EXPECT_EQ(record.at("baseline").as_number(), 24.0);
}

TEST_F(HarnessTest, MissingRecordFailsNamingTheMetric) {
  const std::string file = baseline({{"other", 1.0}});
  EXPECT_EQ(run({"--check", "--baseline=" + file},
                [](bench::Harness& h) {
                  h.record("fused_iters", 24, "count", bench::Clock::kNone,
                           bench::exact());
                }),
            1);
  EXPECT_NE(failure().find("fused_iters"), std::string::npos) << failure();
}

TEST_F(HarnessTest, MissingBaselineFileFailsNamingThePath) {
  const std::string file = path("absent.json");
  EXPECT_EQ(run({"--check", "--baseline=" + file},
                [](bench::Harness& h) {
                  h.record("m", 1, "count", bench::Clock::kNone,
                           bench::exact());
                }),
            1);
  EXPECT_NE(failure().find(file), std::string::npos) << failure();
}

TEST_F(HarnessTest, MalformedBaselineFailsNamingThePath) {
  const std::string file = path("broken.json");
  std::ofstream(file) << "{\"schema\": \"powerlin-bench/v1\", \"records\": [";
  EXPECT_EQ(run({"--check", "--baseline=" + file},
                [](bench::Harness& h) {
                  h.record("m", 1, "count", bench::Clock::kNone,
                           bench::exact());
                }),
            1);
  EXPECT_NE(failure().find(file), std::string::npos) << failure();
}

TEST_F(HarnessTest, BaselineIsComparedOnlyUnderCheck) {
  const std::string file = baseline({{"m", 24.0}});
  EXPECT_EQ(run({"--baseline=" + file},
                [](bench::Harness& h) {
                  h.record("m", 25, "count", bench::Clock::kNone,
                           bench::exact());
                }),
            0);
  EXPECT_EQ(output().at("gates").as_array().size(), 0u);
}

TEST_F(HarnessTest, FailedGateFailsOnlyUnderCheck) {
  const auto body = [](bench::Harness& h) { h.gate("g", false, "why"); };
  EXPECT_EQ(run({}, body), 0);
  EXPECT_EQ(run({"--check"}, body), 1);
  EXPECT_EQ(failure(), "why");
}

TEST_F(HarnessTest, UnwritableOutFails) {
  EXPECT_EQ(run({"--out=" + path("no/such/dir/out.json")},
                [](bench::Harness& h) {
                  h.record("m", 1, "count", bench::Clock::kNone);
                }),
            1);
}

TEST_F(HarnessTest, DocumentPassesAsItsOwnBaseline) {
  const auto body = [](bench::Harness& h) {
    h.record("iters", 24, "count", bench::Clock::kNone, bench::exact());
    h.record("virtual", 0.000318958, "s", bench::Clock::kVirtual,
             bench::rel(1e-5));
    h.record("bytes", 1472.51, "bytes", bench::Clock::kNone,
             bench::at_most(1.2));
    h.record("wall", 0.25, "s", bench::Clock::kHost);
  };
  ASSERT_EQ(run({"--smoke", "--out=" + path("first.json")}, body), 0);
  ASSERT_EQ(
      run({"--smoke", "--check", "--baseline=" + path("first.json")}, body),
      0);

  const json::Value doc = output();
  EXPECT_EQ(doc.at("schema").as_string(), "powerlin-bench/v1");
  EXPECT_EQ(doc.at("harness").as_string(), "t");
  EXPECT_EQ(doc.at("mode").as_string(), "smoke");
  const json::Array& records = doc.at("records").as_array();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[1].at("clock").as_string(), "virtual_s");
  EXPECT_EQ(records[1].at("rule").as_string(), "rel(1e-05)");
  EXPECT_EQ(records[1].at("baseline").as_number(), 0.000318958);
  EXPECT_EQ(records[2].at("rule").as_string(), "at_most(1.2)");
  EXPECT_EQ(records[3].find("rule"), nullptr);
  EXPECT_EQ(doc.at("gates").as_array().size(), 3u);
}

}  // namespace
