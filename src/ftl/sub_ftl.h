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
#include <string>
#include <vector>

#include "ftl/block_allocator.h"
#include "ftl/ftl.h"
#include "ftl/fullpage_pool.h"
#include "ftl/subpage_pool.h"
#include "ftl/write_buffer.h"
#include "nand/device.h"
#include "util/huge_pages.h"

namespace esp::ftl {

class SubFtl : public Ftl {
 public:
  struct Config {
    std::uint64_t logical_sectors = 0;
    double subpage_region_fraction = 0.20;  ///< paper Sec. 4
    std::size_t gc_reserve_blocks = 8;
    std::size_t buffer_sectors = 512;
    SimTime buffer_insert_us = 2.0;
    SimTime retention_evict_age = 15 * sim_time::kDay;   ///< paper Sec. 4.3
    SimTime retention_scan_interval = 1 * sim_time::kDay;
    // Subpage-region writing-policy knobs (see SubpagePool::Config and
    // bench/ablation_policy).
    double advance_max_valid_fraction = 0.25;
    std::uint32_t gc_free_target = 2;
    /// Static wear leveling knobs (see CgmFtl::Config); both regions are
    /// leveled, alternating per check.
    std::uint32_t wl_pe_threshold = 64;
    std::uint32_t wl_check_interval = 1024;
    /// Copy-back GC in the full-page region (see CgmFtl::Config).
    bool use_copyback = false;
    /// Run maintenance paths (wear leveling, and for subFTL retention scan
    /// + idle release) with the original O(device) linear scans instead of
    /// the incremental indices. Decisions are bit-identical either way;
    /// used by differential tests and CI to prove it.
    bool reference_scan_maintenance = false;
  };

  SubFtl(nand::NandDevice& dev, const Config& config);

  IoResult write(std::uint64_t sector, std::uint32_t count, bool sync,
                 SimTime now) override;
  IoResult read(std::uint64_t sector, std::uint32_t count, SimTime now,
                std::vector<std::uint64_t>* tokens) override;
  IoResult flush(SimTime now) override;
  void trim(std::uint64_t sector, std::uint32_t count) override;
  SimTime tick(SimTime now) override;

  std::uint64_t logical_sectors() const override {
    return config_.logical_sectors;
  }
  const FtlStats& stats() const override { return stats_; }
  std::uint64_t mapping_memory_bytes() const override;
  std::string name() const override { return "subFTL"; }
  void set_telemetry(telemetry::Sink* sink) override;
  void collect_health(std::span<telemetry::BlockHealth> out) const override {
    pool_full_.core().fill_health(out);
    pool_sub_.core().fill_health(out);
  }
  std::uint64_t free_blocks() const override {
    return allocator_.total_free();
  }

  void save_state(util::StateWriter& w) const override;
  void load_state(util::StateReader& r) override;

  // Introspection for tests and wear metrics.
  const SubpagePool& subpage_pool() const { return pool_sub_; }
  const FullPagePool& fullpage_pool() const { return pool_full_; }
  std::size_t subpage_mapping_entries() const { return sub_entries_; }

 private:
  SimTime flush_run(std::span<const BufferedSector> run, SimTime now);
  SimTime write_full_lpn(std::uint64_t lpn, const BufferedSector* group,
                         SimTime now);
  SimTime write_small_sector(const BufferedSector& bs, SimTime now);
  /// Eviction target of the subpage pool: merges the batch into the
  /// full-page region with one read-modify-write per logical page.
  SimTime evict_batch(std::span<const SectorWrite> batch, SimTime now,
                      bool retention);
  /// Read-modify-write of one sector into the full-page region (the
  /// small-write overflow fallback).
  SimTime rmw_into_fullpage(std::uint64_t sector, std::uint64_t token,
                            SimTime now);
  void drop_subpage_copy(std::uint64_t sector);
  void check_range(std::uint64_t sector, std::uint32_t count) const;

  nand::NandDevice& dev_;
  Config config_;
  nand::Geometry geo_;
  nand::AddressCodec codec_;
  FtlStats stats_;
  BlockAllocator allocator_;
  FullPagePool pool_full_;
  SubpagePool pool_sub_;
  WriteBuffer buffer_;
  std::vector<BufferedSector> run_;     ///< extract scratch, reused
  util::HugeVector<std::uint64_t> l2p_;  ///< lpn -> linear page (full region)
  /// Subpage map as flat per-sector arrays (kUnmapped = not in the region):
  /// the small-write/read hot path costs one indexed load instead of a
  /// hash+probe. The MODELED mapping cost stays the paper's hash table --
  /// 16 bytes per live entry, counted by sub_entries_ -- not these
  /// simulator-side arrays.
  std::vector<std::uint64_t> sub_lin_;  ///< sector -> linear subpage
  std::vector<bool> sub_hot_;  ///< updated since entering the region
  std::size_t sub_entries_ = 0;  ///< live subpage-map entries
  util::HugeVector<std::uint32_t> version_;
  SimTime last_retention_scan_ = 0.0;
  std::uint32_t writes_since_wl_ = 0;
  bool wl_toggle_ = false;  ///< alternate regions between WL checks
  telemetry::Sink* sink_ = nullptr;
};

}  // namespace esp::ftl
