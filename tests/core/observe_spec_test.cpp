// The one observer request: ObserveSpec's flag parser, its per-cell and
// per-shard path splicing, SidecarCounts' sum, and the strict number and
// geometry flag helpers every binary parses with (core/cli.h).
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cli.h"
#include "core/experiment.h"

namespace esp::core {
namespace {

/// argv for a parse call: the program name, then `args`.
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    strings.insert(strings.begin(), "prog");
    for (std::string& s : strings) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }

  std::vector<std::string> strings;
  std::vector<char*> ptrs;
};

/// Parses args[0] (and its value) with a fresh ObserveSpec at i = 1.
ObserveSpec parse(std::vector<std::string> args, int* end = nullptr) {
  Argv a(std::move(args));
  ObserveSpec spec;
  int i = 1;
  EXPECT_TRUE(spec.parse_flag(a.argc(), a.argv(), i));
  if (end) *end = i;
  return spec;
}

/// The message of the std::invalid_argument `fn` throws ("" if none).
std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ObserveSpec, EveryFlagSetsItsField) {
  struct Case {
    std::vector<std::string> args;
    std::function<bool(const ObserveSpec&)> set;
  };
  const std::vector<Case> cases = {
      {{"--journal-out", "j.jsonl"},
       [](const ObserveSpec& s) { return s.journal_path == "j.jsonl"; }},
      {{"--journal-max-events", "500000"},
       [](const ObserveSpec& s) { return s.journal_max_events == 500000; }},
      {{"--audit"}, [](const ObserveSpec& s) { return s.audit; }},
      {{"--health-out", "h.jsonl"},
       [](const ObserveSpec& s) { return s.health_path == "h.jsonl"; }},
      {{"--health-interval", "0.5"},
       [](const ObserveSpec& s) {
         return s.health_interval_us == 0.5 * sim_time::kSecond;
       }},
      {{"--health-rated-pe", "10000"},
       [](const ObserveSpec& s) { return s.health_rated_pe == 10000; }},
      {{"--forensics-out", "f.jsonl"},
       [](const ObserveSpec& s) { return s.forensics_path == "f.jsonl"; }},
      {{"--forensics-top", "8"},
       [](const ObserveSpec& s) { return s.forensics_top == 8; }},
  };
  ASSERT_EQ(cases.size(), 8u);  // one per ObserveSpec setting
  const ObserveSpec defaults;
  EXPECT_FALSE(defaults.any());
  for (const Case& c : cases) {
    SCOPED_TRACE(c.args[0]);
    EXPECT_FALSE(c.set(defaults));
    int end = 0;
    const ObserveSpec spec = parse(c.args, &end);
    EXPECT_TRUE(c.set(spec));
    EXPECT_EQ(end, static_cast<int>(c.args.size()));  // past the value
  }
  EXPECT_TRUE(parse({"--audit"}).any());
  EXPECT_TRUE(parse({"--journal-out", "j"}).any());
  EXPECT_TRUE(parse({"--health-out", "h"}).any());
  EXPECT_TRUE(parse({"--forensics-out", "f"}).any());
  EXPECT_FALSE(parse({"--forensics-top", "4"}).any());
}

TEST(ObserveSpec, OtherFlagsAreLeftAlone) {
  for (const char* flag : {"--jobs", "--json", "--geometry", "--audit-x"}) {
    Argv a({flag, "3"});
    ObserveSpec spec;
    int i = 1;
    EXPECT_FALSE(spec.parse_flag(a.argc(), a.argv(), i)) << flag;
    EXPECT_EQ(i, 1) << flag;
  }
}

TEST(ObserveSpec, BadValuesThrowNamingTheFlag) {
  const std::vector<std::vector<std::string>> bad = {
      {"--journal-out"},
      {"--journal-max-events", "-1"},
      {"--journal-max-events", "10k"},
      {"--health-out"},
      {"--health-interval", "x"},
      {"--health-interval", "0.5s"},
      {"--health-interval", "nan"},
      {"--health-rated-pe", "3000.5"},
      {"--health-rated-pe", "4294967296"},
      {"--forensics-out"},
      {"--forensics-top", ""},
      {"--forensics-top", "+8"},
  };
  for (const auto& args : bad) {
    SCOPED_TRACE(args[0] + (args.size() > 1 ? " " + args[1] : ""));
    Argv a(args);
    ObserveSpec spec;
    int i = 1;
    const std::string msg =
        error_of([&] { spec.parse_flag(a.argc(), a.argv(), i); });
    EXPECT_EQ(msg.rfind(args[0], 0), 0u) << msg;
  }
}

ObserveSpec all_streams() {
  ObserveSpec spec;
  spec.journal_path = "out/j.jsonl";
  spec.health_path = "h.jsonl";
  spec.forensics_path = "dir.v2/f";
  spec.forensics_top = 4;
  return spec;
}

TEST(ObserveSpec, CellAndShardSpliceEveryStreamPath) {
  const ObserveSpec cell = all_streams().for_cell("fig8/Varmail/subFTL");
  EXPECT_EQ(cell.journal_path, "out/j.fig8-Varmail-subFTL.jsonl");
  EXPECT_EQ(cell.health_path, "h.fig8-Varmail-subFTL.jsonl");
  EXPECT_EQ(cell.forensics_path, "dir.v2/f.fig8-Varmail-subFTL");
  EXPECT_EQ(cell.forensics_top, 4u);  // settings carry over

  const ObserveSpec shard = all_streams().for_shard(1);
  EXPECT_EQ(shard.journal_path, "out/j.shard1.jsonl");
  EXPECT_EQ(shard.health_path, "h.shard1.jsonl");
  EXPECT_EQ(shard.forensics_path, "dir.v2/f.shard1");

  // Off streams stay off.
  ObserveSpec health_only;
  health_only.health_path = "h.jsonl";
  for (const ObserveSpec& s :
       {health_only.for_cell("a/b"), health_only.for_shard(0)}) {
    EXPECT_TRUE(s.journal_path.empty());
    EXPECT_TRUE(s.forensics_path.empty());
  }
  EXPECT_EQ(health_only.for_cell("a/b").health_path, "h.a-b.jsonl");
  EXPECT_EQ(health_only.for_shard(0).health_path, "h.shard0.jsonl");
}

TEST(SidecarCounts, SumCoversEveryCounter) {
  SidecarCounts a;
  a.trace_dropped = 1;
  a.journal_events = 2;
  a.journal_truncated = 3;
  a.health_epochs = 4;
  a.health_lines = 5;
  a.forensics_requests = 6;
  a.forensics_exemplars = 7;
  a.forensics_truncated = 8;
  SidecarCounts sum = a;
  sum += a;
  EXPECT_EQ(sum.trace_dropped, 2u);
  EXPECT_EQ(sum.journal_events, 4u);
  EXPECT_EQ(sum.journal_truncated, 6u);
  EXPECT_EQ(sum.health_epochs, 8u);
  EXPECT_EQ(sum.health_lines, 10u);
  EXPECT_EQ(sum.forensics_requests, 12u);
  EXPECT_EQ(sum.forensics_exemplars, 14u);
  EXPECT_EQ(sum.forensics_truncated, 16u);
  EXPECT_FALSE(SidecarCounts{}.reported());
  EXPECT_TRUE(a.reported());
}

TEST(ParseNumber, WholeTokenOfTheFlagsType) {
  EXPECT_EQ(parse_number<std::uint32_t>("--n", "128"), 128u);
  EXPECT_EQ(parse_number<std::uint64_t>("--n", "18446744073709551615"),
            18446744073709551615ull);
  EXPECT_EQ(parse_number<double>("--x", "0.5"), 0.5);
  EXPECT_EQ(parse_number<double>("--x", "1e-3"), 1e-3);
  EXPECT_EQ(parse_number<double>("--x", "-2"), -2.0);
  for (const char* bad : {"", "-3", "+3", " 3", "3 ", "3x", "abc", "0x10",
                          "4294967296", "1.5"})
    EXPECT_EQ(error_of([&] { parse_number<std::uint32_t>("--n", bad); }),
              std::string("--n: '") + bad + "' is not an unsigned integer");
  for (const char* bad : {"", "x", "0.5s", "inf", "nan", "1e999"})
    EXPECT_EQ(error_of([&] { parse_number<double>("--x", bad); }),
              std::string("--x: '") + bad + "' is not a finite number");
}

TEST(GeometryOverrides, FlagsParseStrictly) {
  Argv a({"--geometry", "prod", "--blocks-per-chip", "64", "--json", "x"});
  GeometryOverrides geo;
  int i = 1;
  EXPECT_TRUE(geo.parse_flag(a.argc(), a.argv(), i));
  ++i;
  EXPECT_TRUE(geo.parse_flag(a.argc(), a.argv(), i));
  ++i;
  EXPECT_FALSE(geo.parse_flag(a.argc(), a.argv(), i));
  EXPECT_EQ(i, 5);
  EXPECT_EQ(geo.profile, "prod");
  EXPECT_EQ(geo.blocks_per_chip, 64u);
  EXPECT_EQ(geo.apply(nand::Geometry{}).blocks_per_chip, 64u);

  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"--blocks-per-chip", "abc"},
                                             {"--channels", "-8"},
                                             {"--geometry", "huge"},
                                             {"--pages-per-block"}}) {
    Argv bad(args);
    GeometryOverrides g;
    int j = 1;
    const std::string msg =
        error_of([&] { g.parse_flag(bad.argc(), bad.argv(), j); });
    EXPECT_EQ(msg.rfind(args[0], 0), 0u) << msg;
  }
}

}  // namespace
}  // namespace esp::core
