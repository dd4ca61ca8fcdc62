// Device-lifetime fast-forward: epoch-compressed aging to rated endurance.
//
// A full-fidelity wear-out simulation at production geometry needs billions
// of host requests -- hours of wall clock per FTL. This runner alternates
//
//   * full-fidelity MEASUREMENT WINDOWS: W host requests driven through the
//     unmodified simulator (every latency sample, GC decision and retention
//     scan is real), and
//   * compressed AGING EPOCHS: the per-pool P/E accrual rates measured in
//     the preceding window are scaled up and applied analytically --
//     apply_synthetic_wear() spread uniformly within each pool, plus a
//     retention-clock advance -- as if the window's traffic had repeated
//     S times.
//
// Scaling per POOL preserves the wear asymmetry the lifetime claim is
// about (the ESP subpage pool ages faster than the full-page pool) while
// spreading each pool's budget evenly over its blocks -- the long-horizon
// outcome GC victim rotation and wear leveling produce, which a sparse
// one-window erase sample scaled per block would grossly overshoot.
// Cycles measured on the free pool (blocks erased late in the window,
// still on the free list at snapshot time) are folded into the whole
// device: free is a waypoint between pools, not a residence. The
// FTL's own wear leveler still sees and reacts to the accrued cross-pool
// imbalance in the next window, so the feedback loop between wear and
// placement stays closed. See docs/LIFETIME.md for the model and its
// validation against full-fidelity references.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/ssd.h"
#include "workload/synthetic.h"

namespace esp::core {

struct LifetimeSpec {
  SsdConfig ssd;
  /// Workload template. Each measurement window derives its own seed from
  /// `workload.seed` (stable_cell_seed over "lifetime/window/<i>"), so the
  /// wear-out replays a fresh but reproducible stream per window;
  /// request_count is ignored (window_requests governs).
  workload::SyntheticParams workload;
  double precondition_fraction = 0.78;
  /// Unmeasured requests once, before window 0 (GC steady state).
  std::uint64_t warmup_requests = 0;
  /// Host requests per full-fidelity measurement window.
  std::uint64_t window_requests = 20000;

  /// Mean device P/E cycles accrued per aging epoch. The epoch scale S is
  /// chosen per epoch so the window's per-block deltas sum to
  /// pe_step * total_blocks. 0 = full-fidelity reference: windows only, no
  /// aging epochs. The speedup and validation baselines in
  /// BENCH_lifetime.json run this way.
  double pe_step = 0.0;
  /// Stop once mean P/E over all blocks reaches this. 0 = the retention
  /// model's rated_pe_cycles (the device's rated endurance).
  double target_mean_pe = 0.0;
  /// Hard bound on measurement windows run by THIS call (0 = unlimited);
  /// also the knob the reference-rate measurement uses to stay bounded.
  std::uint32_t max_windows = 0;

  /// Resume a previous wear-out from its checkpoint (snapshot_out of an
  /// earlier call; SsdConfig fingerprint-checked). Precondition + warmup
  /// are skipped and window numbering continues where it left off.
  std::string snapshot_in;
  /// Write a checkpoint of the aged device after the last window -- the
  /// shared anchor end-of-life measurement legs restore (see
  /// ExperimentSpec::snapshot_in), and the resume point for snapshot_in.
  std::string snapshot_out;
};

/// One full-fidelity measurement window plus the aging epoch that followed
/// it: a point on the wear-out trajectory.
struct LifetimeWindow {
  std::uint32_t index = 0;         ///< global window number (resume-aware)
  double mean_pe_start = 0.0;      ///< device mean P/E entering the window
  double max_pe_start = 0.0;
  double waf = 1.0;                ///< window-local write amplification
  double iops = 0.0;
  double host_mb_per_sec = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double response_p99_us = 0.0;
  std::uint64_t erases = 0;        ///< real erases inside the window
  std::uint64_t gc_invocations = 0;
  std::uint64_t retention_evictions = 0;
  std::uint64_t host_write_bytes = 0;
  /// Aging epoch that followed this window (all zero on the final window
  /// and in full-fidelity mode).
  std::uint64_t synthetic_cycles = 0;  ///< block-cycles applied analytically
  double epoch_scale = 0.0;            ///< S: represented window repetitions
  double sim_hours_advanced = 0.0;     ///< retention-clock jump, sim hours
};

struct LifetimeResult {
  std::string ftl_name;
  std::vector<LifetimeWindow> windows;
  double start_mean_pe = 0.0;
  double final_mean_pe = 0.0;
  double final_max_pe = 0.0;
  double target_mean_pe = 0.0;
  bool reached_target = false;
  /// Wall clock over the window/epoch loop (not preconditioning/warmup).
  double wall_seconds = 0.0;
  /// Host terabytes the trajectory REPRESENTS: each window's host write
  /// bytes x (1 + its epoch scale). The TBW-to-wear-out figure.
  double host_tb_written = 0.0;
  std::uint64_t real_erases = 0;
  std::uint64_t synthetic_cycles = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t io_errors = 0;
};

/// lost_data (core/experiment.h) over a wear-out's windows.
inline bool lost_data(const LifetimeResult& r, const std::string& what) {
  return lost_data(r.verify_failures, r.io_errors, what);
}

/// Runs the wear-out loop to target_mean_pe (or max_windows). Throws
/// std::runtime_error on snapshot/config mismatches and when fast-forward
/// stalls (three consecutive windows without a single erase).
LifetimeResult run_lifetime(const LifetimeSpec& spec);

}  // namespace esp::core
