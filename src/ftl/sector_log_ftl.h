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
#include <vector>

#include "ftl/fine_pool.h"
#include "ftl/ftl_base.h"
#include "ftl/fullpage_pool.h"
#include "ftl/write_buffer.h"
#include "nand/device.h"

namespace esp::ftl {

class SectorLogFtl final : public BufferedFtl {
 public:
  struct Config : FtlConfig {
    double log_region_fraction = 0.20;  ///< same budget as subFTL's region
  };

  SectorLogFtl(nand::NandDevice& dev, const Config& config);

  IoResult read(std::uint64_t sector, std::uint32_t count, SimTime now,
                std::vector<std::uint64_t>* tokens) override;
  std::uint64_t mapping_memory_bytes() const override;
  void collect_health(std::span<telemetry::BlockHealth> out) const override {
    pool_data_.core().fill_health(out);
    pool_log_.core().fill_health(out);
  }

  std::size_t log_mapping_entries() const { return pool_log_.valid_sectors(); }

 private:
  SimTime wear_level(SimTime now, bool turn) override;
  SimTime flush_run(std::span<const BufferedSector> run, SimTime now) override;
  SimTime write_full_lpn(std::uint64_t lpn, const BufferedSector* group,
                         SimTime now);
  /// Appends small sectors to the log region (one full-page program per
  /// group, padded -- no ESP).
  SimTime append_to_log(std::span<const BufferedSector> group, SimTime now);
  void trim_page(std::uint64_t lpn) override;
  void attach(telemetry::Telemetry* tel) override;
  void save_body(util::StateWriter& w) const override;
  void load_body(util::StateReader& r) override;

  FullPagePool pool_data_;
  /// Log cleaning merges live log sectors into pool_data_, one
  /// read-modify-write per logical page. The modeled mapping cost of the
  /// log's sector map is 16 bytes per live entry.
  FinePool pool_log_;
};

}  // namespace esp::ftl
