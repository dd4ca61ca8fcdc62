// fgmFTL: the fine-grained mapping baseline (paper Sec. 2).
//
// Logical-to-physical mapping is per 4-KB sector, with a write buffer that
// merges asynchronous small writes into dense full-page programs.
// Synchronous small writes must be durable immediately: they flush as
// sparse pages (1..3 live sectors + padding), wasting page space and
// inflating GC -- the behavior Figs. 2 and 8 quantify. Memory cost is the
// FGM scheme's other drawback: one mapping entry per sector, Nsub times
// the CGM table.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ftl/block_allocator.h"
#include "ftl/fine_pool.h"
#include "ftl/ftl.h"
#include "ftl/write_buffer.h"
#include "nand/device.h"
#include "util/huge_pages.h"

namespace esp::ftl {

class FgmFtl : public Ftl {
 public:
  struct Config {
    std::uint64_t logical_sectors = 0;
    std::size_t gc_reserve_blocks = 8;
    std::size_t buffer_sectors = 512;     ///< write-buffer capacity (4-KB units)
    SimTime buffer_insert_us = 2.0;       ///< host-visible async-write latency
    /// Static wear leveling knobs (see CgmFtl::Config).
    std::uint32_t wl_pe_threshold = 64;
    std::uint32_t wl_check_interval = 1024;
    /// Run maintenance paths (wear leveling, and for subFTL retention scan
    /// + idle release) with the original O(device) linear scans instead of
    /// the incremental indices. Decisions are bit-identical either way;
    /// used by differential tests and CI to prove it.
    bool reference_scan_maintenance = false;
  };

  FgmFtl(nand::NandDevice& dev, const Config& config);

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
  std::string name() const override { return "fgmFTL"; }
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
  /// Writes one extracted buffer run to flash as dense page programs.
  SimTime flush_run(std::span<const BufferedSector> run, SimTime now);
  void check_range(std::uint64_t sector, std::uint32_t count) const;

  nand::NandDevice& dev_;
  Config config_;
  nand::Geometry geo_;
  nand::AddressCodec codec_;
  FtlStats stats_;
  BlockAllocator allocator_;
  FinePool pool_;
  WriteBuffer buffer_;
  std::vector<BufferedSector> run_;     ///< extract scratch, reused
  util::HugeVector<std::uint64_t> l2p_;      ///< sector -> linear subpage addr
  util::HugeVector<std::uint32_t> version_;  ///< per-sector write counter
  std::uint32_t writes_since_wl_ = 0;
  telemetry::Sink* sink_ = nullptr;
};

}  // namespace esp::ftl
