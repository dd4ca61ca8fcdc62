// cgmFTL: the coarse-grained mapping baseline (paper Sec. 2).
//
// Logical pages are full-page sized (Sfull = 16 KB). Any host write that
// covers only part of a logical page is serviced with an expensive
// read-modify-write: the old page is read, merged with the new sectors,
// and rewritten out-of-place -- so a 4-KB write consumes a whole 16-KB
// program (request WAF 4). Misaligned full-page writes split into two
// partial writes, reproducing the paper's footnote 1.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ftl/block_allocator.h"
#include "ftl/ftl.h"
#include "ftl/fullpage_pool.h"
#include "nand/device.h"
#include "util/huge_pages.h"

namespace esp::ftl {

class CgmFtl : public Ftl {
 public:
  struct Config {
    std::uint64_t logical_sectors = 0;  ///< host-visible 4-KB sectors
    std::size_t gc_reserve_blocks = 8;  ///< free-block floor before GC
    /// Static wear leveling: every wl_check_interval host writes, relocate
    /// the coldest block if its P/E lags the hottest by more than
    /// wl_pe_threshold (0 disables).
    std::uint32_t wl_pe_threshold = 64;
    std::uint32_t wl_check_interval = 1024;
    /// GC page moves use the NAND copy-back command when the destination
    /// stays on the source chip (no channel transfers).
    bool use_copyback = false;
    /// Run maintenance paths (wear leveling, and for subFTL retention scan
    /// + idle release) with the original O(device) linear scans instead of
    /// the incremental indices. Decisions are bit-identical either way;
    /// used by differential tests and CI to prove it.
    bool reference_scan_maintenance = false;
  };

  CgmFtl(nand::NandDevice& dev, const Config& config);

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
  std::string name() const override { return "cgmFTL"; }
  void set_telemetry(telemetry::Sink* sink) override;
  void collect_health(std::span<telemetry::BlockHealth> out) const override {
    pool_.core().fill_health(out);
  }
  std::uint64_t free_blocks() const override {
    return allocator_.total_free();
  }
  void save_state(util::StateWriter& w) const override;
  void load_state(util::StateReader& r) override;

 private:
  /// Services one logical page's worth of the request; returns completion.
  SimTime write_lpn(std::uint64_t lpn, std::uint32_t first_slot,
                    std::uint32_t slot_count, bool small_request, SimTime now);
  void check_range(std::uint64_t sector, std::uint32_t count) const;

  nand::NandDevice& dev_;
  Config config_;
  nand::Geometry geo_;
  nand::AddressCodec codec_;
  FtlStats stats_;
  BlockAllocator allocator_;
  FullPagePool pool_;
  util::HugeVector<std::uint64_t> l2p_;      ///< lpn -> linear page (kUnmapped)
  util::HugeVector<std::uint32_t> version_;  ///< per-sector write counter
  std::uint32_t writes_since_wl_ = 0;
  telemetry::Sink* sink_ = nullptr;
};

}  // namespace esp::ftl
