// Parallel experiment runner: determinism across job counts, stable
// seeding, error isolation and the manifest.
#include "core/parallel_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "test_common.h"
#include "util/rng.h"

namespace esp::core {
namespace {

constexpr std::uint64_t kBaseSeed = 2017;

workload::SyntheticParams quick_workload() {
  workload::SyntheticParams params;
  params.request_count = 1500;
  params.sectors_per_page = 4;
  params.r_small = 0.7;
  params.r_synch = 0.5;
  params.read_fraction = 0.3;
  params.small_sectors_max = 3;
  return params;
}

ExperimentCell make_cell(const std::string& key, FtlKind kind) {
  ExperimentCell cell;
  cell.key = key;
  cell.spec.ssd = test::tiny_config(kind);
  cell.spec.workload = quick_workload();
  cell.spec.workload.seed = stable_cell_seed(key, kBaseSeed);
  cell.spec.precondition_fraction = 0.5;
  cell.spec.warmup_requests = 200;
  return cell;
}

std::vector<ExperimentCell> grid() {
  return {make_cell("grid/cgm", FtlKind::kCgm),
          make_cell("grid/fgm", FtlKind::kFgm),
          make_cell("grid/sub", FtlKind::kSub),
          make_cell("grid/sectorlog", FtlKind::kSectorLog)};
}

TEST(StableCellSeed, DependsOnlyOnKeyAndBase) {
  const auto a = stable_cell_seed("fig8/varmail/subFTL", 2017);
  EXPECT_EQ(a, stable_cell_seed("fig8/varmail/subFTL", 2017));
  EXPECT_NE(a, stable_cell_seed("fig8/varmail/cgmFTL", 2017));
  EXPECT_NE(a, stable_cell_seed("fig8/varmail/subFTL", 2018));
  EXPECT_NE(stable_cell_seed("", 0), 0u);  // never a zero RNG state
}

TEST(ParallelRunner, ResultsBitIdenticalAcrossJobCounts) {
  const auto cells = grid();
  ParallelRunner seq(1);
  const auto baseline = seq.run(cells);

  for (const unsigned jobs : {2u, 4u}) {
    ParallelRunner par(jobs);
    const auto got = par.run(cells);
    ASSERT_EQ(got.size(), baseline.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(cells[i].key + " jobs=" + std::to_string(jobs));
      ASSERT_TRUE(got[i].ok) << got[i].error;
      ASSERT_TRUE(baseline[i].ok);
      EXPECT_EQ(got[i].key, baseline[i].key);
      EXPECT_EQ(got[i].seed, baseline[i].seed);
      // Bit-identical, not approximately equal: the whole point.
      EXPECT_EQ(got[i].result.raw.iops(), baseline[i].result.raw.iops());
      EXPECT_EQ(got[i].result.raw.host_mb_per_sec,
                baseline[i].result.raw.host_mb_per_sec);
      EXPECT_EQ(got[i].result.raw.overall_waf,
                baseline[i].result.raw.overall_waf);
      EXPECT_EQ(got[i].result.raw.ftl_stats.gc_invocations,
                baseline[i].result.raw.ftl_stats.gc_invocations);
      EXPECT_EQ(got[i].result.raw.erases_during_run,
                baseline[i].result.raw.erases_during_run);
      EXPECT_EQ(got[i].result.raw.verify_failures, 0u);
      EXPECT_EQ(got[i].result.raw.latency_hist.total(),
                baseline[i].result.raw.latency_hist.total());
      EXPECT_EQ(got[i].result.raw.latency_hist.percentile(0.99),
                baseline[i].result.raw.latency_hist.percentile(0.99));
    }
  }
}

TEST(ParallelRunner, DerivedSeedsComeFromKeysNotOrder) {
  // The cells carry seeds derived from their keys; running them in the
  // reverse order must give each the same seed and the same result.
  auto cells = grid();
  ParallelRunner runner(2);
  const auto forward = runner.run(cells);

  std::vector<ExperimentCell> reversed(cells.rbegin(), cells.rend());
  const auto backward = runner.run(reversed);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& fwd = forward[i];
    const auto& bwd = backward[cells.size() - 1 - i];
    ASSERT_EQ(fwd.key, bwd.key);
    EXPECT_EQ(fwd.seed, stable_cell_seed(cells[i].key, kBaseSeed));
    EXPECT_EQ(fwd.seed, bwd.seed);
    EXPECT_EQ(fwd.result.raw.iops(), bwd.result.raw.iops());
    EXPECT_EQ(fwd.result.raw.erases_during_run,
              bwd.result.raw.erases_during_run);
  }
}

TEST(ParallelRunner, TenantCellsBitIdenticalAcrossJobCounts) {
  // Multi-tenant cells add a scheduler and per-tenant streams to the
  // pipeline; their per-tenant metrics must stay byte-identical across
  // job counts, like everything else.
  std::vector<ExperimentCell> cells;
  for (const auto policy : {sim::QosPolicy::kFifo, sim::QosPolicy::kRoundRobin,
                            sim::QosPolicy::kWeightedShare}) {
    ExperimentCell cell;
    cell.key = "grid/tenants/" + sim::qos_policy_name(policy);
    cell.spec.ssd = test::tiny_config(FtlKind::kSub);
    cell.spec.qos = policy;
    cell.spec.precondition_fraction = 0.3;
    cell.spec.warmup_requests = 100;
    TenantSpec reader;
    reader.name = "reader";
    reader.weight = 4.0;
    reader.workload = quick_workload();
    reader.workload.request_count = 600;
    reader.workload.read_fraction = 0.8;
    reader.workload.think_us = 50.0;
    reader.workload.seed = stable_cell_seed(cell.key + "/reader", kBaseSeed);
    TenantSpec writer;
    writer.name = "writer";
    writer.workload = quick_workload();
    writer.workload.request_count = 600;
    writer.workload.r_small = 0.0;
    writer.workload.seed = stable_cell_seed(cell.key + "/writer", kBaseSeed);
    cell.spec.tenants = {reader, writer};
    cells.push_back(std::move(cell));
  }

  ParallelRunner seq(1);
  const auto baseline = seq.run(cells);

  ParallelRunner par(3);
  const auto got = par.run(cells);
  ASSERT_EQ(got.size(), baseline.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(cells[i].key);
    ASSERT_TRUE(baseline[i].ok) << baseline[i].error;
    ASSERT_TRUE(got[i].ok) << got[i].error;
    ASSERT_EQ(got[i].result.tenants.size(), 2u);
    ASSERT_EQ(baseline[i].result.tenants.size(), 2u);
    for (std::size_t t = 0; t < 2; ++t) {
      const auto& a = baseline[i].result.tenants[t];
      const auto& b = got[i].result.tenants[t];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.requests, b.requests);
      EXPECT_EQ(a.host_write_sectors, b.host_write_sectors);
      EXPECT_EQ(a.host_read_sectors, b.host_read_sectors);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(a.service_p99_us, b.service_p99_us);
      EXPECT_EQ(a.response_p99_us, b.response_p99_us);
      EXPECT_EQ(a.response_hist.total(), b.response_hist.total());
    }
    // Each lane carries its own seed, so the two never replay the same
    // request sequence.
    EXPECT_NE(baseline[i].result.tenants[0].host_write_sectors,
              baseline[i].result.tenants[1].host_write_sectors);
  }
}

TEST(ParallelRunner, FailingCellIsIsolated) {
  auto cells = grid();
  ExperimentCell bad;
  bad.key = "grid/bad";
  bad.spec.ssd = test::tiny_config(FtlKind::kSub);
  bad.spec.ssd.logical_fraction = 0.999;  // infeasible with the 20% region
  bad.spec.workload = quick_workload();
  cells.insert(cells.begin() + 1, bad);

  ParallelRunner runner(3);
  const auto results = runner.run(cells);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_FALSE(results[1].ok);
  EXPECT_FALSE(results[1].error.empty());
  for (const std::size_t i : {0ul, 2ul, 3ul, 4ul})
    EXPECT_TRUE(results[i].ok) << results[i].error;
}

TEST(ParallelRunner, ManifestRecordsCellsInInputOrder) {
  const auto cells = grid();
  ParallelRunner runner(2);
  const auto results = runner.run(cells);
  const auto& m = runner.manifest();
  EXPECT_EQ(m.jobs_requested, 2u);
  EXPECT_EQ(m.jobs_used, 2u);
  ASSERT_EQ(results.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(results[i].key, cells[i].key);
    EXPECT_EQ(results[i].seed, cells[i].spec.workload.seed);
    EXPECT_TRUE(results[i].ok);
  }
  std::ostringstream os;
  ParallelRunner::write_manifest_json(m, results, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"cells\":"), std::string::npos);
  // Cells appear in input order; stream-less cells carry no sidecars.
  std::size_t at = 0;
  for (const auto& cell : cells) {
    const std::size_t next = json.find("\"" + cell.key + "\"", at);
    ASSERT_NE(next, std::string::npos) << cell.key;
    at = next;
  }
  EXPECT_EQ(json.find("\"sidecars\""), std::string::npos);
}

TEST(ParallelRunner, ManifestWritesSidecarCountsInKeyOrder) {
  CellResult cell;
  cell.key = "grid/sub";
  cell.seed = 3;
  cell.ok = true;
  SidecarCounts& c = cell.result.sidecars;
  c.trace_dropped = 1;
  c.journal_events = 2;
  c.journal_truncated = 3;
  c.health_epochs = 4;
  c.health_lines = 5;
  c.forensics_requests = 6;
  c.forensics_exemplars = 7;
  c.forensics_truncated = 8;
  std::ostringstream os;
  ParallelRunner::write_manifest_json(RunManifest{}, {cell}, os);
  EXPECT_NE(os.str().find(
                "\"sidecars\":{\"trace_dropped\":1,\"journal_events\":2,"
                "\"journal_truncated\":3,\"health_epochs\":4,"
                "\"health_lines\":5,\"forensics_requests\":6,"
                "\"forensics_exemplars\":7,\"forensics_truncated\":8}"),
            std::string::npos)
      << os.str();
}

TEST(RunTasks, EveryIndexRunsExactlyOnce) {
  constexpr std::size_t kCount = 97;  // not a multiple of any job count
  for (const unsigned jobs : {1u, 2u, 3u, 8u}) {
    std::vector<std::atomic<int>> hits(kCount);
    run_tasks(jobs, kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
  }
}

TEST(RunTasks, MoreJobsThanTasksAndZeroTasks) {
  std::vector<std::atomic<int>> hits(3);
  const unsigned used = run_tasks(16, 3, [&](std::size_t i) {
    hits[i].fetch_add(1);
  });
  EXPECT_LE(used, 3u);  // clamped to the task count
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  run_tasks(4, 0, [&](std::size_t) { FAIL() << "no tasks to run"; });
}

TEST(RunTasks, JobsZeroMeansHardwareConcurrency) {
  std::vector<std::atomic<int>> hits(8);
  const unsigned used = run_tasks(0, 8, [&](std::size_t i) {
    hits[i].fetch_add(1);
  });
  EXPECT_GE(used, 1u);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunTasks, FirstExceptionPropagatesAfterDrain) {
  std::atomic<int> ran{0};
  try {
    run_tasks(2, 50, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 7) throw std::runtime_error("task 7 failed");
    });
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7 failed");
  }
  // The pool drains instead of abandoning workers; most tasks still ran.
  EXPECT_GT(ran.load(), 1);
}

TEST(RunTasks, SingleJobRunsInline) {
  // jobs == 1 must execute on the calling thread (no pool), so thread-local
  // state set by the caller is visible to every task.
  const auto caller = std::this_thread::get_id();
  run_tasks(1, 5, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(RunTasks, DeterministicAggregationAcrossJobCounts) {
  // The intended fan-out pattern: stable per-task seeds, tasks write into
  // preallocated slots, aggregation in input order on the joining thread.
  const auto population = [](unsigned jobs) {
    std::vector<std::uint64_t> out(64);
    run_tasks(jobs, out.size(), [&](std::size_t i) {
      util::Xoshiro256 rng(
          stable_cell_seed("runner_test/wl" + std::to_string(i), 42));
      std::uint64_t acc = 0;
      for (int k = 0; k < 1000; ++k) acc ^= rng();
      out[i] = acc;
    });
    return out;
  };
  const auto seq = population(1);
  EXPECT_EQ(population(2), seq);
  EXPECT_EQ(population(5), seq);
}

}  // namespace
}  // namespace esp::core
