// subFTL: the paper's ESP-aware hybrid FTL (Sec. 4).
//
// NAND space is split into two regions managed differently:
//   * the SUBPAGE REGION (default 20 % of flash) absorbs every small write
//     as a single 4-KB ESP subpage program -- no internal fragmentation,
//     request WAF ~= 1 -- and is mapped by a per-sector hash table (small,
//     because a physical page holds at most one valid subpage);
//   * the FULL-PAGE REGION stores full-page writes and evicted cold data
//     under conventional coarse-grained mapping.
//
// Data placement (Sec. 4.1): after write-buffer merging, aligned full-page
// runs go to the full-page region, everything shorter goes to the subpage
// region. Because small writes skew hot and full-page writes skew cold,
// this also acts as a hot/cold separator.
//
// The extended mapping resolves a sector by: write buffer -> subpage hash
// -> coarse L2P. Retention management (Sec. 4.3) periodically evicts
// subpages older than 15 days to the full-page region, ahead of the
// 1-month conservative ESP retention horizon.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ftl/ftl_base.h"
#include "ftl/fullpage_pool.h"
#include "ftl/subpage_pool.h"
#include "ftl/write_buffer.h"
#include "nand/device.h"

namespace esp::ftl {

class SubFtl final : public BufferedFtl {
 public:
  struct Config : FtlConfig {
    double subpage_region_fraction = 0.20;  ///< paper Sec. 4
    SimTime retention_evict_age = 15 * sim_time::kDay;   ///< paper Sec. 4.3
    SimTime retention_scan_interval = 1 * sim_time::kDay;
    // Subpage-region writing-policy knobs (see SubpagePool::Config and
    // bench/ablation_policy).
    double advance_max_valid_fraction = 0.25;
    std::uint32_t gc_free_target = 2;
  };

  SubFtl(nand::NandDevice& dev, const Config& config);

  IoResult read(std::uint64_t sector, std::uint32_t count, SimTime now,
                std::vector<std::uint64_t>* tokens) override;
  SimTime tick(SimTime now) override;
  std::uint64_t mapping_memory_bytes() const override;
  void collect_health(std::span<telemetry::BlockHealth> out) const override {
    pool_full_.core().fill_health(out);
    pool_sub_.core().fill_health(out);
  }

  // Introspection for tests and wear metrics.
  const SubpagePool& subpage_pool() const { return pool_sub_; }
  const FullPagePool& fullpage_pool() const { return pool_full_; }
  std::size_t subpage_mapping_entries() const {
    return pool_sub_.valid_sectors();
  }

 private:
  /// Returns garbage-only region blocks to the shared pool when free
  /// blocks run low.
  SimTime before_write(SimTime now) override;
  SimTime wear_level(SimTime now, bool turn) override;
  SimTime flush_run(std::span<const BufferedSector> run, SimTime now) override;
  SimTime write_full_lpn(std::uint64_t lpn, const BufferedSector* group,
                         SimTime now);
  SimTime write_small_sector(const BufferedSector& bs, SimTime now);
  void trim_page(std::uint64_t lpn) override;
  void attach(telemetry::Telemetry* tel) override;
  void save_body(util::StateWriter& w) const override;
  void load_body(util::StateReader& r) override;

  SimTime retention_scan_interval_;
  FullPagePool pool_full_;
  SubpagePool pool_sub_;
  SimTime last_retention_scan_ = 0.0;
};

}  // namespace esp::ftl
