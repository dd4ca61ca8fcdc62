// Health-stream consistency against the causal-attribution journal (issue
// acceptance check): the SMART wear CoV/Gini must agree with an OFFLINE
// recomputation that starts from the health stream's epoch-0 baseline and
// replays the journal's erase events. Both artifacts come from the same
// run, so any disagreement means one of the two streams misreports wear.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "test_common.h"

namespace esp {
namespace {

// Flat field scanners (the streams are flat single-line objects; same
// idiom as tools/espreport.cpp).
bool find_raw(const std::string& line, const char* key, std::string* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  std::size_t start = pos + needle.size();
  std::size_t end = start;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  *out = line.substr(start, end - start);
  return true;
}

bool find_str(const std::string& line, const char* key, std::string* out) {
  std::string raw;
  if (!find_raw(line, key, &raw)) return false;
  if (raw.size() < 2 || raw.front() != '"' || raw.back() != '"') return false;
  *out = raw.substr(1, raw.size() - 2);
  return true;
}

std::uint64_t get_u64(const std::string& line, const char* key) {
  std::string raw;
  if (!find_raw(line, key, &raw)) return 0;
  return std::strtoull(raw.c_str(), nullptr, 10);
}

double get_double(const std::string& line, const char* key) {
  std::string raw;
  if (!find_raw(line, key, &raw)) return 0.0;
  return std::strtod(raw.c_str(), nullptr);
}

struct WearStats {
  double mean = 0.0, cov = 0.0, gini = 0.0;
};

WearStats wear_stats(const std::vector<std::uint32_t>& pe) {
  WearStats w;
  const double n = static_cast<double>(pe.size());
  if (pe.empty()) return w;
  double sum = 0.0;
  for (const auto v : pe) sum += v;
  w.mean = sum / n;
  double var = 0.0;
  for (const auto v : pe) var += (v - w.mean) * (v - w.mean);
  var /= n;
  w.cov = w.mean > 0.0 ? std::sqrt(var) / w.mean : 0.0;
  std::vector<std::uint32_t> sorted = pe;
  std::sort(sorted.begin(), sorted.end());
  if (sum > 0.0) {
    double weighted = 0.0;
    for (std::size_t i = 0; i < sorted.size(); ++i)
      weighted += static_cast<double>(i + 1) * sorted[i];
    w.gini = 2.0 * weighted / (n * sum) - (n + 1.0) / n;
  }
  return w;
}

TEST(HealthObservability, SmartWearAgreesWithJournalRecomputation) {
  core::ExperimentSpec spec;
  spec.ssd = test::tiny_config(core::FtlKind::kSub);
  spec.workload.request_count = 6000;
  spec.workload.r_small = 0.8;
  spec.workload.r_synch = 0.7;
  spec.workload.read_fraction = 0.1;
  spec.workload.seed = 5;
  spec.observe.audit = true;
  spec.observe.journal_path = ::testing::TempDir() + "ho-journal.jsonl";
  spec.observe.health_path = ::testing::TempDir() + "ho-health.jsonl";
  // Endpoint epochs only: epoch 0 = attach baseline, last = run end.
  spec.observe.health_interval_us = 0.0;
  const auto result = core::run_experiment(spec);
  ASSERT_GE(result.sidecars.health_epochs, 2u);
  ASSERT_GT(result.raw.erases_during_run, 0u)
      << "workload too light to wear blocks; cross-check is vacuous";

  // --- reconstruct per-block wear from the HEALTH stream --------------
  std::ifstream health(spec.observe.health_path);
  ASSERT_TRUE(health.good());
  std::vector<std::uint32_t> baseline, state;
  std::uint64_t blocks_per_chip = 0;
  double smart_cov = 0.0, smart_gini = 0.0, smart_mean = 0.0;
  std::uint64_t epochs_seen = 0;
  std::string line;
  while (std::getline(health, line)) {
    std::string t;
    if (!find_str(line, "t", &t)) continue;
    if (t == "hdr") {
      blocks_per_chip = get_u64(line, "blocks_per_chip");
      const std::uint64_t total = get_u64(line, "chips") * blocks_per_chip;
      baseline.assign(total, 0);
      state.assign(total, 0);
    } else if (t == "epoch") {
      ++epochs_seen;
      if (epochs_seen == 2) baseline = state;  // epoch 0 fully decoded
    } else if (t == "b") {
      const std::uint64_t i = get_u64(line, "i");
      ASSERT_LT(i, state.size());
      state[i] = static_cast<std::uint32_t>(get_u64(line, "pe"));
    } else if (t == "smart") {
      // Keep the LAST smart line's wear attributes.
      smart_cov = get_double(line, "wear_cov");
      smart_gini = get_double(line, "wear_gini");
      smart_mean = get_double(line, "pe_mean");
    }
  }
  ASSERT_GE(epochs_seen, 2u);

  // --- replay the JOURNAL's erases over the epoch-0 baseline ----------
  std::ifstream journal(spec.observe.journal_path);
  ASSERT_TRUE(journal.good());
  std::vector<std::uint32_t> replayed = baseline;
  std::uint64_t journal_erases = 0;
  while (std::getline(journal, line)) {
    std::string t, op;
    if (!find_str(line, "t", &t) || t != "op") continue;
    if (!find_str(line, "op", &op) || op != "erase") continue;
    const std::uint64_t idx =
        get_u64(line, "chip") * blocks_per_chip + get_u64(line, "block");
    ASSERT_LT(idx, replayed.size());
    // "pe" is the absolute cycle count after the erase: later events
    // overwrite earlier ones, so order only has to be per-block.
    replayed[idx] = static_cast<std::uint32_t>(get_u64(line, "pe"));
    ++journal_erases;
  }
  ASSERT_GT(journal_erases, 0u);

  // The two independent reconstructions must agree block for block...
  ASSERT_EQ(replayed.size(), state.size());
  for (std::size_t i = 0; i < replayed.size(); ++i)
    ASSERT_EQ(replayed[i], state[i]) << "block " << i;

  // ...and the SMART attributes must equal recomputation from them.
  // Tolerance covers the smart line's %.10g round-trip, nothing more.
  const WearStats w = wear_stats(replayed);
  EXPECT_NEAR(w.mean, smart_mean, 1e-7);
  EXPECT_NEAR(w.cov, smart_cov, 1e-7);
  EXPECT_NEAR(w.gini, smart_gini, 1e-7);
  EXPECT_GT(w.mean, 0.0);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// The health and forensics streams must not depend on which other
// observers share the facade. A journal or the auditor sends every op
// down the facade's detail path; health alone or forensics alone runs on
// the lean facade (no per-op latency detail), where health windows come
// purely from counters and the collector sees only the ops it reads. The
// compressed maintenance clock (maintenance_differential_test's) makes
// retention evictions and GC fire inside a few thousand requests.
TEST(HealthObservability, StreamIndependentOfOtherObservers) {
  for (const auto kind : {core::FtlKind::kCgm, core::FtlKind::kFgm,
                          core::FtlKind::kSub, core::FtlKind::kSectorLog}) {
    const std::string name = core::ftl_kind_name(kind);
    core::ExperimentSpec spec;
    spec.ssd = test::tiny_config(kind);
    spec.ssd.retention_scan_interval = 0.05 * sim_time::kSecond;
    spec.ssd.retention_evict_age = 0.20 * sim_time::kSecond;
    spec.ssd.wl_check_interval = 64;
    spec.ssd.wl_pe_threshold = 4;
    spec.workload.request_count = 6000;
    spec.workload.r_small = 0.8;
    spec.workload.r_synch = 0.7;
    spec.workload.read_fraction = 0.2;
    spec.workload.trim_fraction = 0.02;
    spec.workload.think_us = 200;
    spec.workload.seed = 11;
    spec.observe.health_interval_us = 0.1 * sim_time::kSecond;

    core::ExperimentSpec alone = spec;
    alone.observe.health_path =
        ::testing::TempDir() + "hi-alone-" + name + ".jsonl";
    core::run_experiment(alone);

    core::ExperimentSpec forensics_alone = spec;
    forensics_alone.observe.forensics_path =
        ::testing::TempDir() + "hi-alone-f-" + name + ".jsonl";
    const auto forensics_result = core::run_experiment(forensics_alone);
    EXPECT_GT(forensics_result.sidecars.forensics_exemplars, 0u) << name;

    core::ExperimentSpec all = spec;
    all.observe.health_path =
        ::testing::TempDir() + "hi-all-" + name + ".jsonl";
    all.observe.journal_path =
        ::testing::TempDir() + "hi-all-j-" + name + ".jsonl";
    all.observe.forensics_path =
        ::testing::TempDir() + "hi-all-f-" + name + ".jsonl";
    all.observe.audit = true;
    core::run_experiment(all);

    const std::string stream = slurp(alone.observe.health_path);
    ASSERT_FALSE(stream.empty()) << name;
    EXPECT_EQ(stream, slurp(all.observe.health_path)) << name;
    EXPECT_EQ(slurp(forensics_alone.observe.forensics_path),
              slurp(all.observe.forensics_path))
        << name;

    if (kind != core::FtlKind::kSub) continue;
    // Not vacuous: the windows carry retention evictions and the block
    // rows GC victims. gcv is cumulative per block, so its sum is taken
    // over each block's last emitted row.
    std::uint64_t evicted = 0;
    std::vector<std::uint64_t> gcv;
    std::istringstream lines(stream);
    std::string line;
    while (std::getline(lines, line)) {
      std::string t;
      if (!find_str(line, "t", &t)) continue;
      if (t == "smart") {
        evicted += get_u64(line, "retention_evict_sectors");
      } else if (t == "b") {
        const std::uint64_t i = get_u64(line, "i");
        if (i >= gcv.size()) gcv.resize(i + 1, 0);
        gcv[i] = get_u64(line, "gcv");
      }
    }
    std::uint64_t victims = 0;
    for (const std::uint64_t v : gcv) victims += v;
    EXPECT_GT(evicted, 0u);
    EXPECT_GT(victims, 0u);
  }
}

}  // namespace
}  // namespace esp
