// sectorLogFTL: the sector-log hybrid baseline from the paper's related
// work (Jin et al., "Sector Log: Fine-Grained Storage Management for Solid
// State Drives", SAC 2011), reimplemented for comparison.
//
// Like subFTL it is a hybrid: small writes are appended to a reserved LOG
// REGION under fine-grained mapping while full-page writes go to an
// ordinary coarse-mapped data region, and log cleaning merges live sectors
// back into the data region. The decisive difference the paper calls out:
// the log supports subpage granularity only at the LOGICAL level -- the
// physical program unit is still a full page, so a synchronous 4-KB append
// burns a 16-KB program (internal fragmentation), exactly like fgmFTL.
// ESP is what removes that cost in subFTL; this baseline isolates the
// contribution of the hybrid *structure* from the contribution of the
// *programming scheme*.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ftl/block_allocator.h"
#include "ftl/fine_pool.h"
#include "ftl/ftl.h"
#include "ftl/fullpage_pool.h"
#include "ftl/write_buffer.h"
#include "nand/device.h"
#include "util/huge_pages.h"

namespace esp::ftl {

class SectorLogFtl : public Ftl {
 public:
  struct Config {
    std::uint64_t logical_sectors = 0;
    double log_region_fraction = 0.20;  ///< same budget as subFTL's region
    std::size_t gc_reserve_blocks = 8;
    std::size_t buffer_sectors = 512;
    SimTime buffer_insert_us = 2.0;
    std::uint32_t wl_pe_threshold = 64;
    std::uint32_t wl_check_interval = 1024;
    /// Copy-back GC in the data region (see CgmFtl::Config).
    bool use_copyback = false;
    /// Run maintenance paths (wear leveling, and for subFTL retention scan
    /// + idle release) with the original O(device) linear scans instead of
    /// the incremental indices. Decisions are bit-identical either way;
    /// used by differential tests and CI to prove it.
    bool reference_scan_maintenance = false;
  };

  SectorLogFtl(nand::NandDevice& dev, const Config& config);

  IoResult write(std::uint64_t sector, std::uint32_t count, bool sync,
                 SimTime now) override;
  IoResult read(std::uint64_t sector, std::uint32_t count, SimTime now,
                std::vector<std::uint64_t>* tokens) override;
  IoResult flush(SimTime now) override;
  void trim(std::uint64_t sector, std::uint32_t count) override;

  std::uint64_t logical_sectors() const override {
    return config_.logical_sectors;
  }
  const FtlStats& stats() const override { return stats_; }
  std::uint64_t mapping_memory_bytes() const override;
  std::string name() const override { return "sectorLogFTL"; }
  void set_telemetry(telemetry::Sink* sink) override;
  void collect_health(std::span<telemetry::BlockHealth> out) const override {
    pool_data_.core().fill_health(out);
    pool_log_.core().fill_health(out);
  }
  std::uint64_t free_blocks() const override {
    return allocator_.total_free();
  }

  std::size_t log_mapping_entries() const { return log_map_.size(); }

  void save_state(util::StateWriter& w) const override;
  void load_state(util::StateReader& r) override;

 private:
  SimTime flush_run(std::span<const BufferedSector> run, SimTime now);
  SimTime write_full_lpn(std::uint64_t lpn, const BufferedSector* group,
                         SimTime now);
  /// Appends small sectors to the log region (one full-page program per
  /// group, padded -- no ESP).
  SimTime append_to_log(std::span<const BufferedSector> group, SimTime now);
  /// Log cleaning target: merges live log sectors into the data region,
  /// one read-modify-write per logical page.
  SimTime merge_batch(std::span<const SectorWrite> batch, SimTime now);
  void drop_log_copy(std::uint64_t sector);
  void check_range(std::uint64_t sector, std::uint32_t count) const;

  nand::NandDevice& dev_;
  Config config_;
  nand::Geometry geo_;
  nand::AddressCodec codec_;
  FtlStats stats_;
  BlockAllocator allocator_;
  FullPagePool pool_data_;
  FinePool pool_log_;
  WriteBuffer buffer_;
  std::vector<BufferedSector> run_;  ///< extract scratch, reused
  util::HugeVector<std::uint64_t> l2p_;  ///< lpn -> linear page (data region)
  std::unordered_map<std::uint64_t, std::uint64_t> log_map_;  ///< sector->sub
  util::HugeVector<std::uint32_t> version_;
  std::uint32_t writes_since_wl_ = 0;
  bool wl_toggle_ = false;
  telemetry::Sink* sink_ = nullptr;
};

}  // namespace esp::ftl
