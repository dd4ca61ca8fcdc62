// Snapshot round-trip (issue satellite): checkpointing a run mid-window
// must be invisible in every output byte, and restoring the checkpoint
// must regenerate exactly the bytes the uninterrupted run would have
// written. Three runs per FTL:
//
//   reference   -- straight through, journal + health + forensics sidecars
//   checkpoint  -- same spec, snapshot written mid-window, run continues
//                  to the end (sidecars must already match the reference)
//   resume      -- restore the checkpoint against COPIES of the
//                  checkpoint run's sidecars; the restore truncates them
//                  to the checkpoint offsets and regenerates the tail
//                  (copies must end up byte-identical to the reference)
//
// The resume grid runs under --jobs 2 while the reference ran under
// --jobs 1, so worker scheduling is also shown not to leak into the
// restored bytes.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel_runner.h"
#include "core/snapshot.h"
#include "core/ssd.h"
#include "test_common.h"

namespace esp {
namespace {

using core::FtlKind;

const FtlKind kKinds[] = {FtlKind::kCgm, FtlKind::kFgm, FtlKind::kSub,
                          FtlKind::kSectorLog};

constexpr std::uint64_t kRequests = 4000;
constexpr std::uint64_t kCheckpointAfter = 1500;

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing sidecar " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void copy_file(const std::string& from, const std::string& to) {
  std::ofstream os(to, std::ios::binary | std::ios::trunc);
  os << slurp(from);
  ASSERT_TRUE(os.good()) << "copy to " << to << " failed";
}

struct Sidecars {
  std::string journal, health, forensics;
};

Sidecars paths_for(const std::string& tag, FtlKind kind) {
  const std::string base =
      ::testing::TempDir() + "snap-" + tag + "-" + core::ftl_kind_name(kind);
  return {base + ".journal.jsonl", base + ".health.jsonl",
          base + ".forensics.jsonl"};
}

core::ExperimentCell make_cell(const std::string& tag, FtlKind kind) {
  core::ExperimentCell cell;
  cell.key = "snapshot_roundtrip/" + std::string(core::ftl_kind_name(kind));
  cell.spec.ssd = test::tiny_config(kind);
  cell.spec.workload.request_count = kRequests;
  cell.spec.workload.r_small = 0.8;
  cell.spec.workload.r_synch = 0.7;
  cell.spec.workload.read_fraction = 0.2;
  cell.spec.workload.seed = 11;
  cell.spec.warmup_requests = 500;
  cell.spec.observe.audit = true;
  const Sidecars s = paths_for(tag, kind);
  cell.spec.observe.journal_path = s.journal;
  cell.spec.observe.health_path = s.health;
  cell.spec.observe.health_interval_us = 0.2 * sim_time::kSecond;
  cell.spec.observe.forensics_path = s.forensics;
  return cell;
}

/// Number of buckets in which two histograms differ, or -1 on a shape or
/// total mismatch.
long histogram_diff(const util::Histogram& a, const util::Histogram& b) {
  if (a.bucket_count() != b.bucket_count() || a.total() != b.total() ||
      a.underflow() != b.underflow() || a.overflow() != b.overflow())
    return -1;
  long differ = 0;
  for (std::size_t i = 0; i < a.bucket_count(); ++i)
    differ += a.bucket(i) != b.bucket(i);
  return differ;
}

/// Every simulated field of a checkpointed run's result must equal the
/// straight run's: the checkpoint is invisible in what the window reports.
void expect_same_result(const core::RunResult& a, const core::RunResult& b,
                        const std::string& what) {
  const sim::RunMetrics& x = a.raw;
  const sim::RunMetrics& y = b.raw;
  EXPECT_EQ(x.requests, y.requests) << what;
  EXPECT_EQ(x.write_requests, y.write_requests) << what;
  EXPECT_EQ(x.read_requests, y.read_requests) << what;
  EXPECT_EQ(x.start_us, y.start_us) << what;
  EXPECT_EQ(x.end_us, y.end_us) << what;
  EXPECT_EQ(x.verify_failures, y.verify_failures) << what;
  EXPECT_EQ(x.io_errors, y.io_errors) << what;
  EXPECT_EQ(histogram_diff(x.latency_hist, y.latency_hist), 0) << what;
  EXPECT_EQ(histogram_diff(x.response_hist, y.response_hist), 0) << what;
  EXPECT_EQ(x.latency_p50_us, y.latency_p50_us) << what;
  EXPECT_EQ(x.latency_p99_us, y.latency_p99_us) << what;
  EXPECT_EQ(x.latency_p999_us, y.latency_p999_us) << what;
  EXPECT_EQ(x.response_p50_us, y.response_p50_us) << what;
  EXPECT_EQ(x.response_p99_us, y.response_p99_us) << what;
  EXPECT_EQ(x.response_p999_us, y.response_p999_us) << what;
  EXPECT_TRUE(ftl::same_simulated_stats(x.ftl_stats, y.ftl_stats)) << what;
  EXPECT_EQ(x.device_erases, y.device_erases) << what;
  EXPECT_EQ(x.erases_during_run, y.erases_during_run) << what;
  EXPECT_EQ(x.iops(), y.iops()) << what;
  EXPECT_EQ(x.host_mb_per_sec, y.host_mb_per_sec) << what;
  EXPECT_EQ(x.overall_waf, y.overall_waf) << what;
  EXPECT_EQ(x.small_request_waf, y.small_request_waf) << what;
  EXPECT_EQ(x.ftl_stats.gc_invocations, y.ftl_stats.gc_invocations) << what;
  EXPECT_EQ(x.ftl_stats.rmw_ops, y.ftl_stats.rmw_ops) << what;
  EXPECT_EQ(x.chip_util_min, y.chip_util_min) << what;
  EXPECT_EQ(x.chip_util_mean, y.chip_util_mean) << what;
  EXPECT_EQ(x.chip_util_max, y.chip_util_max) << what;
  EXPECT_EQ(x.channel_util_min, y.channel_util_min) << what;
  EXPECT_EQ(x.channel_util_mean, y.channel_util_mean) << what;
  EXPECT_EQ(x.channel_util_max, y.channel_util_max) << what;
}

std::vector<core::CellResult> run_with_jobs(
    unsigned jobs, const std::vector<core::ExperimentCell>& cells) {
  core::ParallelRunner runner(jobs);
  return runner.run(cells);
}

TEST(SnapshotRoundtrip, RestoreRegeneratesSidecarsByteIdentical) {
  // Reference grid, --jobs 1.
  std::vector<core::ExperimentCell> ref_cells;
  for (const auto kind : kKinds) ref_cells.push_back(make_cell("ref", kind));
  const auto ref = run_with_jobs(1, ref_cells);

  // Checkpointing grid: snapshot mid-window, keep running to the end.
  std::vector<core::ExperimentCell> ck_cells;
  for (const auto kind : kKinds) {
    auto cell = make_cell("ck", kind);
    cell.spec.snapshot_out = ::testing::TempDir() + "snap-ck-" +
                             core::ftl_kind_name(kind) + ".snap";
    cell.spec.snapshot_after_requests = kCheckpointAfter;
    ck_cells.push_back(std::move(cell));
  }
  const auto ck = run_with_jobs(2, ck_cells);

  for (std::size_t i = 0; i < ref_cells.size(); ++i) {
    ASSERT_TRUE(ref[i].ok) << ref[i].key << ": " << ref[i].error;
    ASSERT_TRUE(ck[i].ok) << ck[i].key << ": " << ck[i].error;
    const Sidecars a = paths_for("ref", kKinds[i]);
    const Sidecars b = paths_for("ck", kKinds[i]);
    ASSERT_FALSE(slurp(a.journal).empty()) << ref[i].key;
    // Checkpoint transparency: writing the snapshot must not move a byte
    // or a reported number.
    EXPECT_EQ(slurp(a.journal), slurp(b.journal)) << ref[i].key;
    EXPECT_EQ(slurp(a.health), slurp(b.health)) << ref[i].key;
    EXPECT_EQ(slurp(a.forensics), slurp(b.forensics)) << ref[i].key;
    expect_same_result(ck[i].result, ref[i].result, ref[i].key);
  }

  // Resume grid, --jobs 2: restore each checkpoint against copies of the
  // checkpoint run's sidecars (a restore truncates them to the checkpoint
  // offsets and appends the regenerated tail in place).
  std::vector<core::ExperimentCell> rs_cells;
  for (std::size_t i = 0; i < ck_cells.size(); ++i) {
    auto cell = make_cell("rs", kKinds[i]);
    const Sidecars from = paths_for("ck", kKinds[i]);
    const Sidecars to = paths_for("rs", kKinds[i]);
    copy_file(from.journal, to.journal);
    copy_file(from.health, to.health);
    copy_file(from.forensics, to.forensics);
    cell.spec.snapshot_in = ck_cells[i].spec.snapshot_out;
    rs_cells.push_back(std::move(cell));
  }
  const auto rs = run_with_jobs(2, rs_cells);

  for (std::size_t i = 0; i < rs_cells.size(); ++i) {
    ASSERT_TRUE(rs[i].ok) << rs[i].key << ": " << rs[i].error;
    const Sidecars a = paths_for("ref", kKinds[i]);
    const Sidecars b = paths_for("rs", kKinds[i]);
    EXPECT_EQ(slurp(a.journal), slurp(b.journal))
        << "journal for " << rs[i].key
        << " diverged after restore + continue";
    EXPECT_EQ(slurp(a.health), slurp(b.health))
        << "health stream for " << rs[i].key
        << " diverged after restore + continue";
    EXPECT_EQ(slurp(a.forensics), slurp(b.forensics))
        << "forensics stream for " << rs[i].key
        << " diverged after restore + continue";
    // The resumed leg reports only its own (post-checkpoint) window; its
    // cumulative simulated end state must agree with the reference run.
    EXPECT_EQ(rs[i].result.raw.end_us, ref[i].result.raw.end_us)
        << rs[i].key;
    EXPECT_EQ(rs[i].result.raw.device_erases, ref[i].result.raw.device_erases)
        << rs[i].key;
    EXPECT_EQ(rs[i].result.raw.verify_failures, 0u) << rs[i].key;
  }
}

TEST(SnapshotRoundtrip, CheckpointChainMatchesStraightThrough) {
  // A replay cut into segments, each restoring the checkpoint the previous
  // one wrote, must leave the straight run's bytes. Unlike the single
  // restore above, every middle segment is a resumed run that checkpoints
  // again, so the cursors a restore carries forward are themselves saved
  // and restored. The sidecars are appended in place: each restore
  // truncates them to its checkpoint's offsets.
  constexpr std::uint64_t kSegment = 1000;
  constexpr std::uint64_t kWarmup = 500;
  constexpr std::uint64_t kMeasured = 4500;  // 4 full segments + a tail
  for (const auto kind : kKinds) {
    auto straight = make_cell("chain-ref", kind).spec;
    straight.warmup_requests = kWarmup;
    straight.workload.request_count = kWarmup + kMeasured;
    const core::RunResult ref = core::run_experiment(straight);

    auto chained = make_cell("chain", kind).spec;
    chained.warmup_requests = kWarmup;
    core::RunResult last;
    std::uint64_t done = 0;
    unsigned restores = 0;
    std::string snap;
    while (true) {
      core::ExperimentSpec seg = chained;
      seg.snapshot_in = snap;
      const bool final_segment = kMeasured - done <= kSegment;
      if (final_segment) {
        seg.workload.request_count = kWarmup + kMeasured;
      } else {
        // The stream ends exactly at the cut, so the checkpoint leg runs
        // kSegment requests and the post-checkpoint leg finds none.
        done += kSegment;
        seg.workload.request_count = kWarmup + done;
        seg.snapshot_out = ::testing::TempDir() + "snap-chain-" +
                           core::ftl_kind_name(kind) + "-" +
                           std::to_string(done) + ".snap";
        seg.snapshot_after_requests = kSegment;
      }
      last = core::run_experiment(seg);
      ASSERT_EQ(last.raw.verify_failures, 0u);
      restores += !snap.empty();
      if (final_segment) break;
      snap = seg.snapshot_out;
    }
    ASSERT_EQ(restores, 4u);

    const std::string what = core::ftl_kind_name(kind);
    const Sidecars a = paths_for("chain-ref", kind);
    const Sidecars b = paths_for("chain", kind);
    ASSERT_FALSE(slurp(a.journal).empty()) << what;
    EXPECT_EQ(slurp(a.journal), slurp(b.journal)) << what;
    EXPECT_EQ(slurp(a.health), slurp(b.health)) << what;
    EXPECT_EQ(slurp(a.forensics), slurp(b.forensics)) << what;
    EXPECT_EQ(last.raw.end_us, ref.raw.end_us) << what;
    EXPECT_EQ(last.raw.device_erases, ref.raw.device_erases) << what;
    EXPECT_EQ(ref.raw.verify_failures, 0u) << what;
  }
}

TEST(SnapshotRoundtrip, FreshSeedLegStartsFromAgedStateDeterministically) {
  // A restore with a DIFFERENT workload seed starts a fresh measurement
  // leg over the aged device (fan-out anchor semantics). Two identical
  // fresh legs from the same snapshot must agree bit-exactly.
  auto anchor = make_cell("anchor", FtlKind::kSub);
  anchor.spec.observe.journal_path.clear();
  anchor.spec.observe.health_path.clear();
  anchor.spec.observe.forensics_path.clear();
  anchor.spec.snapshot_out = ::testing::TempDir() + "snap-anchor.snap";
  const auto a = run_with_jobs(1, {anchor});
  ASSERT_TRUE(a[0].ok) << a[0].error;

  std::vector<core::ExperimentCell> legs;
  for (int l = 0; l < 2; ++l) {
    auto leg = make_cell("leg" + std::to_string(l), FtlKind::kSub);
    leg.spec.observe.journal_path.clear();
    leg.spec.observe.health_path.clear();
    leg.spec.observe.forensics_path.clear();
    leg.spec.snapshot_in = anchor.spec.snapshot_out;
    leg.spec.workload.seed = 99;  // != 11: fresh leg, not a resume
    leg.spec.workload.request_count = 1500;
    leg.spec.warmup_requests = 200;
    legs.push_back(std::move(leg));
  }
  const auto r = run_with_jobs(2, legs);
  ASSERT_TRUE(r[0].ok) << r[0].error;
  ASSERT_TRUE(r[1].ok) << r[1].error;
  EXPECT_EQ(r[0].result.raw.end_us, r[1].result.raw.end_us);
  EXPECT_EQ(r[0].result.raw.device_erases, r[1].result.raw.device_erases);
  EXPECT_EQ(r[0].result.raw.overall_waf, r[1].result.raw.overall_waf);
  // And a fresh leg is not a resume: it runs on the aged clock, starting
  // at (or after) the instant the anchor snapshot was saved. The default
  // checkpoint lands at the anchor's measured-window START, so compare
  // against the snapshot's own saved_at_us, not the anchor's end.
  std::ifstream is(anchor.spec.snapshot_out, std::ios::binary);
  ASSERT_TRUE(is.good());
  const core::SnapshotMeta meta =
      core::read_snapshot_meta(is, anchor.spec.ssd);
  EXPECT_GE(r[0].result.raw.start_us, meta.saved_at_us);
  EXPECT_GT(meta.saved_at_us, 0u);
}

TEST(SnapshotRoundtrip, RejectsOtherFormatVersion) {
  // A snapshot stamped with format version 5 (HLTH holding the open
  // window's counters, not the epoch baseline) must be refused by the
  // version check, not misread by this build's loaders.
  const core::SsdConfig config = test::tiny_config(FtlKind::kSub);
  const core::Ssd ssd(config);
  std::stringstream current;
  core::write_snapshot(current, core::SnapshotMeta{}, ssd,
                       core::SnapshotSinks{});
  std::string bytes = current.str();
  std::istringstream accepted(bytes);
  EXPECT_NO_THROW(core::read_snapshot_meta(accepted, config));

  // The u32 format version follows the 8-byte magic.
  const std::uint32_t old_version = 5;
  ASSERT_NE(old_version, core::kSnapshotFormatVersion);
  std::memcpy(&bytes[sizeof core::kSnapshotMagic], &old_version,
              sizeof old_version);
  std::istringstream stale(bytes);
  try {
    core::read_snapshot_meta(stale, config);
    FAIL() << "a version-5 snapshot was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("snapshot format version 5,"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace esp
