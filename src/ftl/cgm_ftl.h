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
#include <vector>

#include "ftl/ftl_base.h"
#include "ftl/fullpage_pool.h"
#include "nand/device.h"

namespace esp::ftl {

class CgmFtl final : public FtlBase {
 public:
  using Config = FtlConfig;

  CgmFtl(nand::NandDevice& dev, const Config& config);

  IoResult read(std::uint64_t sector, std::uint32_t count, SimTime now,
                std::vector<std::uint64_t>* tokens) override;
  IoResult flush(SimTime now) override { return IoResult{now, true}; }
  std::uint64_t mapping_memory_bytes() const override;
  void collect_health(std::span<telemetry::BlockHealth> out) const override {
    pool_.core().fill_health(out);
  }

 private:
  SimTime wear_level(SimTime now, bool turn) override;
  SimTime write_sectors(std::uint64_t sector, std::uint32_t count, bool sync,
                        bool small, SimTime now) override;
  /// Services one logical page's worth of the request; returns completion.
  SimTime write_lpn(std::uint64_t lpn, std::uint32_t first_slot,
                    std::uint32_t slot_count, bool small_request, SimTime now);
  void trim_page(std::uint64_t lpn) override { pool_.drop(lpn); }
  void attach(telemetry::Telemetry* tel) override;
  void save_body(util::StateWriter& w) const override { pool_.save_state(w); }
  void load_body(util::StateReader& r) override { pool_.load_state(r); }

  FullPagePool pool_;
};

}  // namespace esp::ftl
