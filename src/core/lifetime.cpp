#include "core/lifetime.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/experiment.h"
#include "core/parallel_runner.h"
#include "core/snapshot.h"
#include "ftl/types.h"
#include "sim/driver.h"
#include "telemetry/health.h"

namespace esp::core {

namespace {

/// Cap on one epoch's retention-clock advance. The analytic advance is
/// S x the window's simulated span; the cap keeps a single jump below
/// retention-scan cadences so no FTL's scan-before-expiry contract is
/// broken by time passing "instantly".
constexpr SimTime kEpochAdvanceCapUs = 4 * sim_time::kHour;

/// Per-block P/E counts in (chip-major, block-minor) order.
void snapshot_wear(const nand::NandDevice& dev, const nand::Geometry& geo,
                   std::vector<std::uint32_t>& out) {
  out.resize(geo.total_blocks());
  std::size_t i = 0;
  for (std::uint32_t chip = 0; chip < geo.total_chips(); ++chip)
    for (std::uint32_t blk = 0; blk < geo.blocks_per_chip; ++blk)
      out[i++] = dev.pe_cycles(chip, blk);
}

double mean_of(const std::vector<std::uint32_t>& pe) {
  std::uint64_t sum = 0;
  for (const std::uint32_t v : pe) sum += v;
  return pe.empty() ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(pe.size());
}

}  // namespace

LifetimeResult run_lifetime(const LifetimeSpec& spec) {
  Ssd ssd(spec.ssd);
  const nand::Geometry& geo = spec.ssd.geometry;
  const std::uint32_t subpage_bytes = geo.subpage_bytes();
  const workload::SyntheticParams base = with_default_footprint(
      spec.workload, spec.precondition_fraction, ssd.logical_sectors(),
      geo.subpages_per_page);

  std::uint32_t windows_done = 0;
  if (!spec.snapshot_in.empty()) {
    std::ifstream is(spec.snapshot_in, std::ios::binary);
    if (!is)
      throw std::runtime_error("run_lifetime: cannot open snapshot: " +
                               spec.snapshot_in);
    const SnapshotMeta meta = read_snapshot_meta(is, spec.ssd);
    read_snapshot_state(is, meta, ssd, SnapshotSinks{});
    windows_done = static_cast<std::uint32_t>(meta.measured_done);
  } else {
    ssd.precondition(spec.precondition_fraction);
    if (spec.warmup_requests > 0) {
      workload::SyntheticParams p = base;
      p.seed = stable_cell_seed("lifetime/warmup", spec.workload.seed);
      p.request_count = spec.warmup_requests;
      workload::SyntheticWorkload warm(p);
      ssd.driver().run(warm, /*verify=*/false);
    }
  }

  LifetimeResult result;
  result.ftl_name = ftl_kind_name(spec.ssd.ftl);
  result.target_mean_pe = spec.target_mean_pe > 0.0
                              ? spec.target_mean_pe
                              : static_cast<double>(
                                    spec.ssd.retention.rated_pe_cycles);

  std::vector<std::uint32_t> pe_before, pe_after;
  snapshot_wear(ssd.device(), geo, pe_before);
  result.start_mean_pe = mean_of(pe_before);

  std::uint32_t stalled_windows = 0;
  const auto wall0 = std::chrono::steady_clock::now();
  while (true) {
    const double mean_pe = mean_of(pe_before);
    if (mean_pe >= result.target_mean_pe) {
      result.reached_target = true;
      break;
    }
    if (spec.max_windows > 0 && result.windows.size() >= spec.max_windows)
      break;

    // --- Full-fidelity measurement window -----------------------------
    workload::SyntheticParams p = base;
    p.seed = stable_cell_seed("lifetime/window/" + std::to_string(windows_done),
                              spec.workload.seed);
    p.request_count = spec.window_requests;
    workload::SyntheticWorkload stream(p);
    const sim::RunMetrics m = ssd.driver().run(stream);
    const ftl::FtlStats& d = m.ftl_stats;

    LifetimeWindow win;
    win.index = windows_done;
    win.mean_pe_start = mean_pe;
    win.max_pe_start = static_cast<double>(ssd.device().max_pe_cycles());
    win.waf = m.overall_waf;
    win.iops = m.iops();
    const double elapsed_s = sim_time::to_seconds(m.elapsed_us());
    win.host_mb_per_sec =
        elapsed_s > 0.0
            ? static_cast<double>(
                  (d.host_write_sectors + d.host_read_sectors) *
                  static_cast<std::uint64_t>(subpage_bytes)) /
                  (1e6 * elapsed_s)
            : 0.0;
    win.latency_p50_us = m.latency_p50_us;
    win.latency_p99_us = m.latency_p99_us;
    win.response_p99_us = m.response_p99_us;
    win.erases = m.erases_during_run;
    win.gc_invocations = d.gc_invocations;
    win.retention_evictions = d.retention_evictions;
    win.host_write_bytes =
        d.host_write_sectors * static_cast<std::uint64_t>(subpage_bytes);
    result.real_erases += m.erases_during_run;
    result.verify_failures += m.verify_failures;
    result.io_errors += m.io_errors;

    // --- Compressed aging epoch ---------------------------------------
    snapshot_wear(ssd.device(), geo, pe_after);
    std::uint64_t window_cycles = 0;
    for (std::size_t i = 0; i < pe_after.size(); ++i)
      window_cycles += pe_after[i] - pe_before[i];
    if (spec.pe_step > 0.0) {
      if (window_cycles == 0) {
        if (++stalled_windows >= 3)
          throw std::runtime_error(
              "run_lifetime: fast-forward stalled -- three consecutive "
              "windows without an erase; the workload writes too little to "
              "age the device");
      } else {
        stalled_windows = 0;
        const double scale = spec.pe_step *
                             static_cast<double>(pe_after.size()) /
                             static_cast<double>(window_cycles);
        // Scale each POOL's measured accrual and spread it uniformly over
        // the pool's blocks. One window's erase pattern is a sparse sample
        // of the rate distribution -- scaling it per block by S (often
        // 100s-1000s) would pile the whole epoch onto the few blocks that
        // happened to erase, a wear spike no real device shows (GC and
        // wear leveling rotate victims over the represented horizon).
        // Per-pool totals keep the asymmetry the lifetime claim is about:
        // the subpage pool ages faster than the full-page pool.
        std::vector<telemetry::BlockHealth> rows(pe_after.size());
        ssd.device().fill_block_health(rows);
        ssd.ftl().collect_health(rows);
        constexpr std::size_t kPools = 4;  // telemetry::HealthPool values
        std::array<std::uint64_t, kPools> pool_cycles{};
        std::array<std::vector<std::uint32_t>, kPools> pool_blocks;
        for (std::size_t i = 0; i < pe_after.size(); ++i) {
          const auto pool = std::min<std::size_t>(rows[i].pool, kPools - 1);
          pool_cycles[pool] += pe_after[i] - pe_before[i];
          pool_blocks[pool].push_back(static_cast<std::uint32_t>(i));
        }
        // The free pool is a waypoint, not a residence: a block erased late
        // in the window sits on the free list at snapshot time, but over
        // the represented horizon it is immediately reallocated. Leaving
        // those cycles on the (tiny, ~reserve-sized) free pool would focus
        // an entire epoch's budget onto a handful of blocks -- a wear spike
        // past the retention cliff that no steady-state device shows. Fold
        // the free pool's accrual into the whole-device population instead.
        constexpr std::size_t kFreePool =
            static_cast<std::size_t>(telemetry::HealthPool::kFree);
        if (pool_cycles[kFreePool] > 0) {
          pool_blocks[kFreePool].resize(pe_after.size());
          for (std::size_t i = 0; i < pe_after.size(); ++i)
            pool_blocks[kFreePool][i] = static_cast<std::uint32_t>(i);
        }
        std::uint64_t applied = 0;
        for (std::size_t pool = 0; pool < kPools; ++pool) {
          if (pool_cycles[pool] == 0 || pool_blocks[pool].empty()) continue;
          const auto budget = static_cast<std::uint64_t>(std::llround(
              scale * static_cast<double>(pool_cycles[pool])));
          const std::uint64_t n = pool_blocks[pool].size();
          const std::uint64_t per = budget / n;
          const std::uint64_t rem = budget % n;
          for (std::uint64_t j = 0; j < n; ++j) {
            const auto cycles =
                static_cast<std::uint32_t>(per + (j < rem ? 1 : 0));
            if (cycles == 0) continue;
            const std::uint32_t idx = pool_blocks[pool][j];
            ssd.device().apply_synthetic_wear(idx / geo.blocks_per_chip,
                                              idx % geo.blocks_per_chip,
                                              cycles);
            applied += cycles;
          }
        }
        win.synthetic_cycles = applied;
        win.epoch_scale = scale;
        const SimTime advance = std::min<SimTime>(
            scale * m.elapsed_us(), kEpochAdvanceCapUs);
        ssd.driver().advance_to(ssd.driver().now() + advance);
        win.sim_hours_advanced = advance / sim_time::kHour;
        result.synthetic_cycles += applied;
        // The epoch shifted every block's wear; re-read rather than add.
        snapshot_wear(ssd.device(), geo, pe_after);
      }
    }
    result.host_tb_written +=
        static_cast<double>(win.host_write_bytes) * (1.0 + win.epoch_scale) /
        1e12;
    ++windows_done;
    result.windows.push_back(win);
    pe_before.swap(pe_after);
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  result.final_mean_pe = mean_of(pe_before);
  result.final_max_pe = static_cast<double>(ssd.device().max_pe_cycles());

  if (!spec.snapshot_out.empty()) {
    SnapshotMeta meta;
    meta.workload_seed = spec.workload.seed;
    meta.source_consumed = 0;
    meta.measured_done = windows_done;
    meta.saved_at_us = ssd.driver().now();
    save_snapshot_file(spec.snapshot_out, meta, ssd, SnapshotSinks{});
  }
  return result;
}

}  // namespace esp::core
