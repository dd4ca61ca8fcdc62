// Wear-out runner: fast-forward reaches its target through aging epochs,
// a wear-out split across a checkpoint retraces the unsplit one, and
// pe_step 0 (the full-fidelity reference) ages nothing analytically.
#include "core/lifetime.h"

#include <gtest/gtest.h>

#include <string>

#include "test_common.h"

namespace esp::core {
namespace {

LifetimeSpec tiny_spec() {
  LifetimeSpec spec;
  spec.ssd = test::tiny_config(FtlKind::kSub);
  spec.precondition_fraction = 0.7;
  spec.workload.r_small = 0.8;
  spec.workload.r_synch = 0.7;
  spec.workload.read_fraction = 0.2;
  spec.workload.small_sectors_max = 3;
  spec.workload.seed = 5;
  spec.warmup_requests = 2000;
  spec.window_requests = 2000;
  spec.pe_step = 2.0;
  spec.target_mean_pe = 20.0;
  return spec;
}

TEST(LifetimeRunner, FastForwardReachesTarget) {
  const LifetimeResult r = run_lifetime(tiny_spec());
  EXPECT_TRUE(r.reached_target);
  EXPECT_GE(r.final_mean_pe, 20.0);
  EXPECT_GT(r.synthetic_cycles, 0u);
  EXPECT_GT(r.windows.size(), 1u);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.io_errors, 0u);
}

TEST(LifetimeRunner, SplitAtCheckpointMatchesUnsplitRun) {
  // The unsplit run reaches its target in six windows; the split run
  // stops after three, checkpoints, and resumes to the target.
  const LifetimeResult ref = run_lifetime(tiny_spec());
  ASSERT_EQ(ref.windows.size(), 6u);

  const std::string snap = ::testing::TempDir() + "lifetime-split.snap";
  LifetimeSpec first = tiny_spec();
  first.max_windows = 3;
  first.snapshot_out = snap;
  const LifetimeResult a = run_lifetime(first);
  LifetimeSpec second = tiny_spec();
  second.snapshot_in = snap;
  const LifetimeResult b = run_lifetime(second);
  ASSERT_EQ(a.windows.size(), 3u);
  ASSERT_EQ(b.windows.size(), 3u);
  EXPECT_TRUE(b.reached_target);

  for (std::size_t i = 0; i < ref.windows.size(); ++i) {
    const LifetimeWindow& want = ref.windows[i];
    const LifetimeWindow& got = i < 3 ? a.windows[i] : b.windows[i - 3];
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(got.index, want.index);
    EXPECT_EQ(got.waf, want.waf);
    EXPECT_EQ(got.erases, want.erases);
    EXPECT_EQ(got.synthetic_cycles, want.synthetic_cycles);
    EXPECT_EQ(got.latency_p99_us, want.latency_p99_us);
  }
  EXPECT_EQ(b.final_mean_pe, ref.final_mean_pe);
}

TEST(LifetimeRunner, ZeroPeStepAppliesNoSyntheticWear) {
  LifetimeSpec spec = tiny_spec();
  spec.pe_step = 0.0;
  spec.max_windows = 2;
  const LifetimeResult r = run_lifetime(spec);
  ASSERT_EQ(r.windows.size(), 2u);
  EXPECT_EQ(r.synthetic_cycles, 0u);
  for (const LifetimeWindow& w : r.windows) {
    EXPECT_EQ(w.synthetic_cycles, 0u);
    EXPECT_EQ(w.epoch_scale, 0.0);
    EXPECT_EQ(w.sim_hours_advanced, 0.0);
  }
  EXPECT_FALSE(r.reached_target);
}

}  // namespace
}  // namespace esp::core
