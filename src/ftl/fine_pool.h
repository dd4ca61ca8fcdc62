// Fine-grained (sector-mapped) storage pool -- the FGM scheme's physical
// layer (paper Sec. 2).
//
// Flash programs are always full-page operations, but validity and mapping
// are tracked per 4-KB sector: a page program carries 1..Nsub live sectors
// and padding for the rest. When the write buffer manages to merge Nsub
// sectors, space efficiency is perfect; a lone synchronous 4-KB write burns
// a full page for one live sector -- the internal fragmentation that
// drives FGM's GC overhead on sync-heavy workloads. Block ownership, victim
// choice and wear leveling live in BlockPoolCore; this class keeps the
// sector-group placement and the GC repack / log eviction.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ftl/block_allocator.h"
#include "ftl/block_pool_core.h"
#include "ftl/types.h"
#include "nand/address.h"
#include "nand/device.h"
#include "telemetry/sink.h"

namespace esp::ftl {

class FinePool {
 public:
  using Config = PoolConfig;

  /// Invoked whenever a sector lands on flash (initial write and GC moves):
  /// (sector, new linear subpage address).
  using PlaceFn =
      std::function<void(std::uint64_t sector, std::uint64_t new_sub_lin)>;
  /// Optional log-region mode: when set, GC hands every live sector of the
  /// victim to this callback (merge into another region) instead of
  /// repacking within the pool -- the cleaning policy of sector-log-style
  /// hybrid FTLs. Returns the completion time.
  using EvictFn = std::function<SimTime(std::span<const SectorWrite> batch,
                                        SimTime now)>;

  FinePool(nand::NandDevice& dev, BlockAllocator& allocator,
           const Config& config, FtlStats& stats, PlaceFn place,
           EvictFn evict_on_gc = nullptr);

  /// Programs ONE full page carrying the given 1..Nsub sectors (padding
  /// elsewhere); invokes the place callback per sector. Returns completion.
  SimTime write_group(std::span<const SectorWrite> group, SimTime now);

  /// Marks the sector at the given linear subpage address stale.
  void invalidate(std::uint64_t sub_lin);

  /// Runs GC while space pressure persists.
  SimTime maybe_gc(SimTime now);

  /// Static wear leveling over this pool's sealed blocks (see
  /// BlockPoolCore::static_wear_level).
  SimTime static_wear_level(SimTime now, std::uint32_t pe_threshold);

  std::uint64_t blocks_in_use() const { return core_.blocks_in_use(); }
  std::uint64_t valid_sectors() const { return core_.valid_slots(); }
  /// Block ownership: health rows, owned P/E cycles.
  const BlockPoolCore& core() const { return core_; }

  /// Attaches a telemetry sink (nullptr detaches); GC / wear-leveling
  /// block collections are recorded as mechanism-lane op events.
  void set_telemetry(telemetry::Sink* sink) { core_.set_telemetry(sink); }

  /// Snapshot support (see BlockPoolCore::save_state).
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  SimTime collect_block(std::size_t idx, SimTime now, bool for_wear_leveling);

  nand::NandDevice& dev_;
  FtlStats& stats_;
  PlaceFn place_;
  EvictFn evict_on_gc_;
  nand::Geometry geo_;
  nand::AddressCodec codec_;
  BlockPoolCore core_;
  bool in_gc_ = false;
  /// Pooled scratch. collect_block never nests within itself, and a nested
  /// write_group (GC repack) finishes with write_tokens_ before the outer
  /// write_group starts filling it.
  std::vector<SectorWrite> gc_live_;
  std::vector<std::uint64_t> write_tokens_;
};

}  // namespace esp::ftl
