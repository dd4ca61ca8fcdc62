// Health-snapshot determinism (issue satellite): the device-health stream
// a cell writes must be BYTE-IDENTICAL regardless of how many workers the
// parallel runner uses -- epochs are cut on simulated time and the rows
// snapshot deterministic simulator state, so --jobs must not leak in.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel_runner.h"
#include "test_common.h"

namespace esp {
namespace {

using core::FtlKind;

const FtlKind kKinds[] = {FtlKind::kCgm, FtlKind::kFgm, FtlKind::kSub,
                          FtlKind::kSectorLog};

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing health stream " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::vector<core::ExperimentCell> make_cells(const std::string& tag) {
  std::vector<core::ExperimentCell> cells;
  for (const auto kind : kKinds) {
    core::ExperimentCell cell;
    cell.key = "health_determinism/" + core::ftl_kind_name(kind);
    cell.spec.ssd = test::tiny_config(kind);
    cell.spec.workload.request_count = 4000;
    cell.spec.workload.r_small = 0.8;
    cell.spec.workload.r_synch = 0.7;
    cell.spec.workload.read_fraction = 0.2;
    cell.spec.workload.seed = 5;
    cell.spec.warmup_requests = 0;
    cell.spec.observe.audit = true;
    cell.spec.observe.health_path = ::testing::TempDir() + "hd-" + tag +
        "-" + core::ftl_kind_name(kind) + ".jsonl";
    // A short interval so several mid-run epochs land inside the window,
    // not just the attach + end-of-run endpoints.
    cell.spec.observe.health_interval_us = 50.0 * sim_time::kMillisecond;
    cells.push_back(std::move(cell));
  }
  return cells;
}

std::vector<core::CellResult> run_with_jobs(
    unsigned jobs, const std::vector<core::ExperimentCell>& cells) {
  core::ParallelRunner runner(jobs);
  return runner.run(cells);
}

TEST(HealthDeterminism, StreamsByteIdenticalAcrossJobCounts) {
  const auto cells1 = make_cells("j1");
  const auto cells2 = make_cells("j2");
  const auto r1 = run_with_jobs(1, cells1);
  const auto r2 = run_with_jobs(2, cells2);
  ASSERT_EQ(r1.size(), cells1.size());
  ASSERT_EQ(r2.size(), cells2.size());

  for (std::size_t i = 0; i < cells1.size(); ++i) {
    ASSERT_TRUE(r1[i].ok) << r1[i].key << ": " << r1[i].error;
    ASSERT_TRUE(r2[i].ok) << r2[i].key << ": " << r2[i].error;
    EXPECT_EQ(r1[i].result.sidecars.health_epochs,
              r2[i].result.sidecars.health_epochs);
    EXPECT_EQ(r1[i].result.sidecars.health_lines,
              r2[i].result.sidecars.health_lines);
    // Epoch 0 (attach baseline) + at least the end-of-run flush.
    EXPECT_GE(r1[i].result.sidecars.health_epochs, 2u) << r1[i].key;
    const std::string a = slurp(cells1[i].spec.observe.health_path);
    const std::string b = slurp(cells2[i].spec.observe.health_path);
    ASSERT_FALSE(a.empty()) << cells1[i].key;
    EXPECT_EQ(a, b) << "health stream for " << cells1[i].key
                    << " differs between --jobs 1 and --jobs 2";
  }
}

}  // namespace
}  // namespace esp
