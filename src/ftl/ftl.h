// Abstract FTL interface shared by cgmFTL, fgmFTL, subFTL and
// sectorLogFTL (all four build on FtlBase, ftl/ftl_base.h).
//
// The host interface is sector-granular (4-KB Ssub units): a request is
// (first sector, sector count, sync flag). Simulated time flows through
// explicitly: the driver passes `now`, the FTL returns the completion time
// after all flash operations (including any GC it had to run inline).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ftl/types.h"
#include "telemetry/health.h"
#include "telemetry/sink.h"
#include "util/sim_time.h"

namespace esp::ftl {

class Ftl {
 public:
  virtual ~Ftl() = default;

  /// Writes `count` sectors starting at `sector`. `sync` requests must be
  /// durable on flash at completion (no write-buffer residency).
  virtual IoResult write(std::uint64_t sector, std::uint32_t count, bool sync,
                         SimTime now) = 0;

  /// Reads `count` sectors. When `tokens` is non-null it is filled with one
  /// payload token per sector (0 for never-written sectors); the driver
  /// verifies these against its shadow map.
  virtual IoResult read(std::uint64_t sector, std::uint32_t count,
                        SimTime now, std::vector<std::uint64_t>* tokens) = 0;

  /// Drains any volatile write buffer to flash.
  virtual IoResult flush(SimTime now) = 0;

  /// Discards the given sector range (TRIM).
  ///
  /// Contract (all FTLs and the driver's shadow model implement exactly
  /// this): only WHOLE logical pages contained in [sector, sector+count)
  /// are discarded -- their sectors read back as never-written afterwards.
  /// Partial pages at either edge of the range are untouched and keep
  /// their latest data, wherever it lives (flash or write buffer). This is
  /// the coarsest-common semantic: CGM cannot drop less than a page, and
  /// aligning the fine-grained FTLs to it keeps behavior host-observably
  /// identical across implementations (tests/integration/
  /// trim_differential_test.cpp enforces the agreement).
  virtual void trim(std::uint64_t sector, std::uint32_t count) = 0;

  /// Periodic background hook (retention scanning). Called by the driver
  /// with the current simulated time; cheap when nothing is due.
  virtual SimTime tick(SimTime now) { return now; }

  /// Number of host-visible sectors.
  virtual std::uint64_t logical_sectors() const = 0;

  virtual const FtlStats& stats() const = 0;

  /// Modeled DRAM footprint of all logical-to-physical mapping structures,
  /// for the paper's memory-overhead comparison.
  virtual std::uint64_t mapping_memory_bytes() const = 0;

  virtual std::string name() const = 0;

  /// Attaches a telemetry facade (nullptr detaches). Implementations bind
  /// their FtlStats counters under "<name()>/", register occupancy gauges,
  /// and forward the facade to their pools so mechanism-level op events
  /// (GC copies, migrations, evictions) get recorded. Default: no-op.
  virtual void set_telemetry(telemetry::Telemetry* /*tel*/) {}

  /// Fills the ownership/validity fields (pool, ESP level, valid count and
  /// capacity) of a health snapshot; `out` holds one row per physical
  /// block, indexed chip * blocks_per_chip + block. Blocks not owned by any
  /// pool stay at their defaults (pool "free"). Default: no-op.
  virtual void collect_health(std::span<telemetry::BlockHealth> /*out*/) const {
  }

  /// Current free-block count of the shared allocator (the health stream's
  /// spare-block SMART attribute). Default: 0 for FTLs without one.
  virtual std::uint64_t free_blocks() const { return 0; }

  /// Whole-FTL snapshot: mapping tables, pools, write buffer, allocator,
  /// stats and maintenance clocks. Must be called between host requests
  /// (no in-flight GC). A restored FTL continues bit-identically to the
  /// saved one. Default: unsupported (fails loudly).
  virtual void save_state(util::StateWriter& /*w*/) const {
    throw std::runtime_error(name() + ": snapshot not supported");
  }
  virtual void load_state(util::StateReader& /*r*/) {
    throw std::runtime_error(name() + ": snapshot not supported");
  }
};

}  // namespace esp::ftl
