// Shard-invariance property test (issue satellite): a sharded cell is a
// deterministic function of (spec, shards, stripe) -- never of the thread
// schedule. Pins, over a seeded audited 4-FTL sweep:
//   * per-shard journals byte-identical between --jobs 1 and --jobs N runs
//     of the same sharded cell, at shards 2, 4 and 8;
//   * merged counters and merged latency/response histograms identical
//     across job counts (bucket-by-bucket);
//   * merged counters equal to the SUM over shard_results, merged
//     utilization to the shards' extremes and unit-weighted means, and
//     merged host MB/s to the summed host bytes over the slowest span;
//   * a shard re-run ALONE (make_shard_spec + partition_stream) writes a
//     journal byte-identical to the same shard inside the full run.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/shard.h"
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
  EXPECT_TRUE(is.good()) << "missing journal " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// 8 channels x 1 chip so the cell splits into up to 8 whole channel
/// groups; 16 blocks x 32 pages per chip keeps even a 1/8 slice big
/// enough for GC churn (2-block reserve, ~1.2k logical sectors).
nand::Geometry shard_geometry() {
  nand::Geometry geo;
  geo.channels = 8;
  geo.chips_per_channel = 1;
  geo.blocks_per_chip = 16;
  geo.pages_per_block = 32;
  geo.page_bytes = 16 * 1024;
  geo.subpages_per_page = 4;
  return geo;
}

ExperimentSpec make_spec(FtlKind kind, unsigned shards, unsigned jobs,
                         const std::string& tag) {
  ExperimentSpec spec;
  spec.ssd.geometry = shard_geometry();
  spec.ssd.ftl = kind;
  spec.ssd.logical_fraction = 0.60;
  spec.ssd.gc_reserve_blocks = 16;  // /8 shards -> the 2-block floor
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
  spec.observe.journal_path = ::testing::TempDir() + "shard-inv-" + tag +
      "-" + core::ftl_kind_name(kind) + ".jsonl";
  return spec;
}

void expect_same_merged(const RunResult& a, const RunResult& b,
                        const std::string& what) {
  const sim::RunMetrics& x = a.raw;
  const sim::RunMetrics& y = b.raw;
  EXPECT_EQ(x.requests, y.requests) << what;
  EXPECT_EQ(x.write_requests, y.write_requests) << what;
  EXPECT_EQ(x.read_requests, y.read_requests) << what;
  EXPECT_EQ(x.erases_during_run, y.erases_during_run) << what;
  EXPECT_EQ(x.ftl_stats.gc_invocations, y.ftl_stats.gc_invocations) << what;
  EXPECT_EQ(x.ftl_stats.rmw_ops, y.ftl_stats.rmw_ops) << what;
  EXPECT_EQ(a.sidecars.journal_events, b.sidecars.journal_events) << what;
  EXPECT_DOUBLE_EQ(x.overall_waf, y.overall_waf) << what;
  EXPECT_DOUBLE_EQ(x.small_request_waf, y.small_request_waf) << what;
  EXPECT_DOUBLE_EQ(x.latency_p99_us, y.latency_p99_us) << what;
  EXPECT_DOUBLE_EQ(x.response_p999_us, y.response_p999_us) << what;
  ASSERT_EQ(x.latency_hist.bucket_count(), y.latency_hist.bucket_count())
      << what;
  for (std::size_t i = 0; i < x.latency_hist.bucket_count(); ++i) {
    ASSERT_EQ(x.latency_hist.bucket(i), y.latency_hist.bucket(i))
        << what << ": latency bucket " << i;
    ASSERT_EQ(x.response_hist.bucket(i), y.response_hist.bucket(i))
        << what << ": response bucket " << i;
  }
}

void expect_merged_is_sum(const RunResult& merged, unsigned shards,
                          const std::string& what) {
  ASSERT_EQ(merged.shard_results.size(), shards) << what;
  const sim::RunMetrics& m = merged.raw;
  std::uint64_t requests = 0, erases = 0, gc = 0, rmw = 0, journal = 0;
  std::uint64_t host_writes = 0, flash_writes = 0, host_sectors = 0;
  std::uint32_t chips = 0, channels = 0;
  double chip_min = std::numeric_limits<double>::infinity(), chip_max = 0.0;
  double channel_min = chip_min, channel_max = 0.0;
  double chip_weighted = 0.0, channel_weighted = 0.0;
  SimTime slowest_span_us = 0.0;
  for (const RunResult& r : merged.shard_results) {
    const sim::RunMetrics& s = r.raw;
    requests += s.requests;
    erases += s.erases_during_run;
    gc += s.ftl_stats.gc_invocations;
    rmw += s.ftl_stats.rmw_ops;
    journal += r.sidecars.journal_events;
    host_writes += s.ftl_stats.host_write_sectors;
    flash_writes += s.ftl_stats.flash_prog_sub;
    host_sectors +=
        s.ftl_stats.host_write_sectors + s.ftl_stats.host_read_sectors;
    chips += s.chips;
    channels += s.channels;
    chip_min = std::min(chip_min, s.chip_util_min);
    chip_max = std::max(chip_max, s.chip_util_max);
    channel_min = std::min(channel_min, s.channel_util_min);
    channel_max = std::max(channel_max, s.channel_util_max);
    chip_weighted += s.chip_util_mean * s.chips;
    channel_weighted += s.channel_util_mean * s.channels;
    slowest_span_us = std::max(slowest_span_us, s.elapsed_us());
  }
  EXPECT_EQ(m.requests, requests) << what;
  EXPECT_EQ(m.erases_during_run, erases) << what;
  EXPECT_EQ(m.ftl_stats.gc_invocations, gc) << what;
  EXPECT_EQ(m.ftl_stats.rmw_ops, rmw) << what;
  EXPECT_EQ(merged.sidecars.journal_events, journal) << what;
  EXPECT_EQ(m.ftl_stats.host_write_sectors, host_writes) << what;
  EXPECT_EQ(m.ftl_stats.flash_prog_sub, flash_writes) << what;

  // Utilization: units add up, extremes are the shards' extremes, and the
  // means are weighted by each shard's chip (channel) count.
  EXPECT_EQ(m.chips, chips) << what;
  EXPECT_EQ(m.channels, channels) << what;
  EXPECT_EQ(m.chip_util_min, chip_min) << what;
  EXPECT_EQ(m.chip_util_max, chip_max) << what;
  EXPECT_EQ(m.channel_util_min, channel_min) << what;
  EXPECT_EQ(m.channel_util_max, channel_max) << what;
  EXPECT_GT(chip_max, 0.0) << what << ": no chip was busy";
  EXPECT_DOUBLE_EQ(m.chip_util_mean, chip_weighted / chips) << what;
  EXPECT_DOUBLE_EQ(m.channel_util_mean, channel_weighted / channels) << what;

  // Host MB/s: every shard's host bytes over the slowest shard's span.
  ASSERT_GT(slowest_span_us, 0.0) << what;
  const double host_bytes = static_cast<double>(
      host_sectors * shard_geometry().subpage_bytes());
  EXPECT_DOUBLE_EQ(m.host_mb_per_sec,
                   host_bytes / (1024.0 * 1024.0) /
                       sim_time::to_seconds(slowest_span_us))
      << what;
}

TEST(ShardInvariance, MergedResultsAndJournalsIdenticalAcrossJobCounts) {
  for (const auto kind : kKinds) {
    for (const unsigned shards : {2u, 4u, 8u}) {
      const std::string tag = std::to_string(shards);
      const auto spec1 = make_spec(kind, shards, 1, "j1-s" + tag);
      const auto specN = make_spec(kind, shards, 4, "jN-s" + tag);
      const RunResult r1 = core::run_experiment(spec1);
      const RunResult rN = core::run_experiment(specN);
      const std::string what =
          std::string(core::ftl_kind_name(kind)) + " shards=" + tag;

      ASSERT_GT(r1.raw.requests, 0u) << what;
      expect_same_merged(r1, rN, what);
      expect_merged_is_sum(r1, shards, what);
      expect_merged_is_sum(rN, shards, what);

      // Per-shard journals (and therefore every FTL decision each shard
      // made) are byte-identical regardless of worker count; the merged
      // journal is their shard-index-order concatenation.
      std::string concat;
      for (unsigned i = 0; i < shards; ++i) {
        const std::string a =
            slurp(core::shard_sidecar_path(spec1.observe.journal_path, i));
        const std::string b =
            slurp(core::shard_sidecar_path(specN.observe.journal_path, i));
        ASSERT_FALSE(a.empty()) << what << " shard " << i;
        ASSERT_EQ(a, b) << what << ": shard " << i
                        << " journal differs between job counts";
        concat += a;
      }
      EXPECT_EQ(slurp(spec1.observe.journal_path), concat) << what;
    }
  }
}

TEST(ShardInvariance, ShardAloneMatchesShardAmongSiblings) {
  // Re-run shard 0 of the kSub shards=2 cell STANDALONE, reproducing the
  // orchestrator's leaf construction, and byte-compare its journal with
  // the sidecar the full sharded run left behind.
  const auto joint_spec = make_spec(FtlKind::kSub, 2, 2, "joint");
  const RunResult joint = core::run_experiment(joint_spec);
  ASSERT_EQ(joint.shard_results.size(), 2u);

  ExperimentSpec plan_spec = joint_spec;  // same identity, fresh sidecars
  plan_spec.observe.journal_path =
      ::testing::TempDir() + "shard-inv-alone.jsonl";
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

  const std::string joint_journal =
      slurp(core::shard_sidecar_path(joint_spec.observe.journal_path, 0));
  const std::string alone_journal = slurp(leaf.observe.journal_path);
  ASSERT_FALSE(alone_journal.empty());
  EXPECT_EQ(alone_journal, joint_journal)
      << "shard 0 journal differs between standalone and joint runs";
  EXPECT_EQ(alone.raw.requests, joint.shard_results[0].raw.requests);
  EXPECT_EQ(alone.raw.erases_during_run,
            joint.shard_results[0].raw.erases_during_run);
  EXPECT_DOUBLE_EQ(alone.raw.overall_waf,
                   joint.shard_results[0].raw.overall_waf);
}

TEST(ShardInvariance, ShardingRequiresDivisibleChannels) {
  auto spec = make_spec(FtlKind::kCgm, 3, 1, "bad");
  EXPECT_THROW(core::run_experiment(spec), std::invalid_argument);
}

}  // namespace
}  // namespace esp
