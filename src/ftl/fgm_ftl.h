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
#include <vector>

#include "ftl/fine_pool.h"
#include "ftl/ftl_base.h"
#include "ftl/write_buffer.h"
#include "nand/device.h"

namespace esp::ftl {

class FgmFtl final : public BufferedFtl {
 public:
  using Config = FtlConfig;

  FgmFtl(nand::NandDevice& dev, const Config& config);

  IoResult read(std::uint64_t sector, std::uint32_t count, SimTime now,
                std::vector<std::uint64_t>* tokens) override;
  std::uint64_t mapping_memory_bytes() const override;
  void collect_health(std::span<telemetry::BlockHealth> out) const override {
    pool_.core().fill_health(out);
  }

 private:
  SimTime wear_level(SimTime now, bool turn) override;
  /// Writes one extracted buffer run to flash as dense page programs.
  SimTime flush_run(std::span<const BufferedSector> run, SimTime now) override;
  void trim_page(std::uint64_t lpn) override;
  void attach(telemetry::Telemetry* tel) override;
  void save_body(util::StateWriter& w) const override;
  void load_body(util::StateReader& r) override;

  FinePool pool_;
};

}  // namespace esp::ftl
