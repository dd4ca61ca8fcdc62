// Forensics-stream determinism (issue satellite): the exemplar/blame JSONL
// a cell writes is a function of (spec, seed) only -- byte-identical
// across --jobs 1 vs 2, and a shard's sidecar byte-identical whether the
// shard runs among its siblings or standalone. Every run here is audited,
// so the online phase-sum invariant (fold == response, bit-exact) is
// asserted on every request along the way.
#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel_runner.h"
#include "core/shard.h"
#include "test_common.h"
#include "workload/splitter.h"
#include "workload/synthetic.h"

namespace esp {
namespace {

using core::ExperimentSpec;
using core::FtlKind;
using core::RunResult;

const FtlKind kKinds[] = {FtlKind::kCgm, FtlKind::kFgm, FtlKind::kSub,
                          FtlKind::kSectorLog};

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing forensics stream " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::vector<core::ExperimentCell> make_cells(const std::string& tag) {
  std::vector<core::ExperimentCell> cells;
  for (const auto kind : kKinds) {
    core::ExperimentCell cell;
    cell.key = "forensics_determinism/" + core::ftl_kind_name(kind);
    cell.spec.ssd = test::tiny_config(kind);
    cell.spec.workload.request_count = 4000;
    cell.spec.workload.r_small = 0.8;
    cell.spec.workload.r_synch = 0.7;
    cell.spec.workload.read_fraction = 0.2;
    cell.spec.workload.seed = 5;
    cell.spec.warmup_requests = 0;
    cell.spec.observe.audit = true;
    cell.spec.observe.forensics_path = ::testing::TempDir() + "fd-" + tag +
        "-" + core::ftl_kind_name(kind) + ".jsonl";
    cell.spec.observe.forensics_top = 8;
    cells.push_back(std::move(cell));
  }
  return cells;
}

std::vector<core::CellResult> run_with_jobs(
    unsigned jobs, const std::vector<core::ExperimentCell>& cells) {
  core::ParallelRunner runner(jobs);
  return runner.run(cells);
}

TEST(ForensicsDeterminism, StreamsByteIdenticalAcrossJobCounts) {
  const auto cells1 = make_cells("j1");
  const auto cells2 = make_cells("j2");
  const auto r1 = run_with_jobs(1, cells1);
  const auto r2 = run_with_jobs(2, cells2);
  ASSERT_EQ(r1.size(), cells1.size());
  ASSERT_EQ(r2.size(), cells2.size());

  for (std::size_t i = 0; i < cells1.size(); ++i) {
    ASSERT_TRUE(r1[i].ok) << r1[i].key << ": " << r1[i].error;
    ASSERT_TRUE(r2[i].ok) << r2[i].key << ": " << r2[i].error;
    EXPECT_EQ(r1[i].result.sidecars.forensics_requests, 4000u) << r1[i].key;
    EXPECT_EQ(r1[i].result.sidecars.forensics_exemplars, 8u) << r1[i].key;
    EXPECT_EQ(r1[i].result.sidecars.forensics_requests,
              r2[i].result.sidecars.forensics_requests);
    EXPECT_EQ(r1[i].result.sidecars.forensics_truncated,
              r2[i].result.sidecars.forensics_truncated);
    const std::string a = slurp(cells1[i].spec.observe.forensics_path);
    const std::string b = slurp(cells2[i].spec.observe.forensics_path);
    ASSERT_FALSE(a.empty()) << cells1[i].key;
    EXPECT_EQ(a, b) << "forensics stream for " << cells1[i].key
                    << " differs between --jobs 1 and --jobs 2";
  }
}

/// Shard-capable spec: 8 whole channel groups (see shard_invariance_test).
ExperimentSpec make_sharded_spec(unsigned shards, unsigned jobs,
                                 const std::string& tag) {
  ExperimentSpec spec;
  nand::Geometry geo;
  geo.channels = 8;
  geo.chips_per_channel = 1;
  geo.blocks_per_chip = 16;
  geo.pages_per_block = 32;
  geo.page_bytes = 16 * 1024;
  geo.subpages_per_page = 4;
  spec.ssd.geometry = geo;
  spec.ssd.ftl = FtlKind::kSub;
  spec.ssd.logical_fraction = 0.60;
  spec.ssd.gc_reserve_blocks = 16;
  spec.ssd.buffer_sectors = 512;
  spec.ssd.queue_depth = 32;
  spec.workload.request_count = 3000;
  spec.workload.r_small = 0.8;
  spec.workload.r_synch = 0.7;
  spec.workload.read_fraction = 0.2;
  spec.workload.seed = 11;
  spec.warmup_requests = 200;
  spec.observe.audit = true;
  spec.shards = shards;
  spec.shard_jobs = jobs;
  spec.shard_stripe_pages = 4;
  spec.observe.forensics_path =
      ::testing::TempDir() + "fd-shard-" + tag + ".jsonl";
  return spec;
}

TEST(ForensicsDeterminism, ShardSidecarsMergeAndMatchStandalone) {
  const auto joint_spec = make_sharded_spec(2, 2, "joint");
  const RunResult joint = core::run_experiment(joint_spec);
  ASSERT_EQ(joint.shard_results.size(), 2u);
  // Merged counters are the sum over shards, and the merged stream is the
  // shard-index-order concatenation of the sidecars.
  std::uint64_t requests = 0, exemplars = 0;
  std::string concat;
  for (unsigned i = 0; i < 2; ++i) {
    requests += joint.shard_results[i].sidecars.forensics_requests;
    exemplars += joint.shard_results[i].sidecars.forensics_exemplars;
    concat +=
        slurp(core::shard_sidecar_path(joint_spec.observe.forensics_path, i));
  }
  EXPECT_EQ(joint.sidecars.forensics_requests, requests);
  EXPECT_EQ(joint.sidecars.forensics_exemplars, exemplars);
  ASSERT_FALSE(concat.empty());
  EXPECT_EQ(slurp(joint_spec.observe.forensics_path), concat);

  // Shard 0 re-run STANDALONE (the orchestrator's own leaf construction)
  // must write a byte-identical forensics sidecar.
  ExperimentSpec plan_spec = make_sharded_spec(2, 2, "alone");
  const core::ShardPlan plan = core::make_shard_plan(plan_spec);
  const workload::SyntheticParams params =
      core::sharded_workload_params(plan_spec, plan);
  workload::SyntheticWorkload generator(params);
  const workload::ShardSplitter splitter(
      plan.shards, plan.stripe_pages,
      plan_spec.ssd.geometry.subpages_per_page, plan.shard_sectors);
  auto streams = workload::partition_stream(generator, splitter, 0,
                                            plan_spec.warmup_requests);
  ASSERT_EQ(streams.size(), 2u);
  ExperimentSpec leaf = core::make_shard_spec(plan_spec, plan, 0);
  leaf.warmup_requests = streams[0].warmup_requests;
  leaf.workload.request_count = streams[0].requests.size();
  workload::VectorSource source(std::move(streams[0].requests));
  leaf.stream = &source;
  const RunResult alone = core::run_experiment(leaf);

  const std::string joint_side =
      slurp(core::shard_sidecar_path(joint_spec.observe.forensics_path, 0));
  const std::string alone_side = slurp(leaf.observe.forensics_path);
  ASSERT_FALSE(alone_side.empty());
  EXPECT_EQ(alone_side, joint_side)
      << "shard 0 forensics differs between standalone and joint runs";
  EXPECT_EQ(alone.sidecars.forensics_requests,
            joint.shard_results[0].sidecars.forensics_requests);
}

TEST(ForensicsDeterminism, RandomizedAuditedSweepsReconcileOnEveryFtl) {
  // Randomized workload shapes across all four FTLs, always audited with
  // a forensics stream attached: the collector's audit hook throws (and
  // fails the run) on the first request whose phase fold is not bit-exact.
  std::mt19937 rng(97u);
  std::uniform_real_distribution<double> frac(0.1, 0.9);
  std::uniform_int_distribution<std::uint64_t> seed_of(1, 1u << 20);
  for (const auto kind : kKinds) {
    for (int round = 0; round < 2; ++round) {
      ExperimentSpec spec;
      spec.ssd = test::tiny_config(kind);
      spec.workload.request_count = 2500;
      spec.workload.r_small = frac(rng);
      spec.workload.r_synch = frac(rng);
      spec.workload.read_fraction = frac(rng) * 0.5;
      spec.workload.seed = seed_of(rng);
      spec.warmup_requests = 100;
      spec.observe.audit = true;
      spec.observe.forensics_path = ::testing::TempDir() + "fd-rand-" +
                            std::string(core::ftl_kind_name(kind)) + "-" +
                            std::to_string(round) + ".jsonl";
      const std::string what = std::string(core::ftl_kind_name(kind)) +
                               " round " + std::to_string(round) + " seed " +
                               std::to_string(spec.workload.seed);
      RunResult result;
      ASSERT_NO_THROW(result = core::run_experiment(spec)) << what;
      EXPECT_EQ(result.sidecars.forensics_requests, 2500u) << what;
      EXPECT_GT(result.sidecars.forensics_exemplars, 0u) << what;
      ASSERT_EQ(result.tenant_blame.size(), 1u) << what;
      // The harvested blame totals cover every request, and its phase sums
      // are finite, non-negative times.
      EXPECT_EQ(result.tenant_blame[0].requests, 2500u) << what;
      for (const double us : result.tenant_blame[0].phase_us)
        EXPECT_GE(us, 0.0) << what;
    }
  }
}

}  // namespace
}  // namespace esp
