// Device-health observability: periodic per-block snapshots plus a
// SMART-style device attribute line, streamed as schema-versioned JSONL.
//
// The HealthMonitor is fed at each sim-time epoch boundary by the driver:
//
//   * a block snapshot: the driver fills the monitor's row buffer from the
//     NAND device (P/E cycles, programmed pages, first-program time) and
//     the FTL (pool ownership, ESP level, valid counts);
//   * cumulative totals (HealthTotals) of counters the simulator already
//     keeps: the telemetry facade's per-cause program/erase counts -- the
//     same cause taxonomy the causal-attribution journal uses, so the smart
//     line's WAF decomposition is consistent with espreport's -- and the
//     FTL's host-write and retention-eviction sector counts. Each smart
//     line's windowed figures are the difference from the previous epoch's
//     totals, so the monitor does no per-op work.
//
// The one per-op input is the facade's erase branch, which bumps a block's
// GC-victim count when the erase ran under a GC cause (count_gc_victim).
//
// Stream layout (one JSON object per line, all lines carry `"t"`):
//   hdr    schema version, kind:"health", FTL, geometry, seed,
//          epoch interval, rated P/E endurance
//   epoch  epoch boundary marker: index + simulated time
//   b      one changed block row (DELTA-ENCODED: a block is re-emitted
//          only when its tuple changed since its last emission; blocks
//          never emitted are in their pristine default state)
//   smart  device-level attribute table for the epoch: media wear %,
//          spare blocks, wear min/max/mean/stddev/CoV/Gini, windowed
//          per-cause WAF decomposition, retention-expiry rate, projected
//          P/E-exhaustion horizon
//   end    trailer: epoch and line counts
//
// Timestamps print with "%.10g" (same round-trip contract as the
// journal). Epoch 0 is snapshotted at attach time, so the stream carries
// the absolute post-precondition baseline every later delta builds on.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "telemetry/causes.h"
#include "telemetry/sink.h"
#include "util/serialize.h"

namespace esp::telemetry {

/// Pool ownership of a block in a health row.
enum class HealthPool : std::uint8_t {
  kFree = 0,  ///< not owned by any pool (allocator free list)
  kFull,      ///< full-page pool ("full")
  kSub,       ///< ESP subpage pool ("sub")
  kFine,      ///< fine-grained sector pool ("fine")
};

constexpr const char* health_pool_name(HealthPool pool) {
  switch (pool) {
    case HealthPool::kFree: return "free";
    case HealthPool::kFull: return "full";
    case HealthPool::kSub: return "sub";
    case HealthPool::kFine: return "fine";
  }
  return "unknown";
}

/// One block's health tuple. The device fills the physical fields, the
/// owning FTL pool fills ownership/validity, the monitor itself fills
/// gc_victims from the facade's erase branch. Delta encoding compares
/// whole tuples.
struct BlockHealth {
  std::uint32_t pe = 0;               ///< P/E cycles
  std::uint32_t programmed_pages = 0; ///< pages with >=1 program this cycle
  std::uint32_t valid = 0;            ///< valid sectors/pages (pool units)
  std::uint32_t valid_cap = 0;        ///< capacity in the same units
  std::uint32_t gc_victims = 0;       ///< times erased under a GC cause
  SimTime first_program_us = -1.0;    ///< first program since erase (<0: none)
  std::uint8_t pool = 0;              ///< HealthPool
  std::uint8_t level = 0;             ///< ESP level (subpage pool, else 0)

  bool operator==(const BlockHealth&) const = default;
};

/// The health stream's hdr line: the shared run identity plus the epoch
/// cadence and the endurance its wear attributes are rated against.
struct HealthHeader : StreamHeader {
  /// Epoch period in simulated microseconds; 0 = endpoint epochs only
  /// (attach + end of each run).
  SimTime interval_us = 0.0;
  /// Rated P/E endurance used for media-wear % and the exhaustion horizon.
  std::uint32_t rated_pe = 3000;
};

/// Cumulative counters a health window is the difference of. Programs and
/// erases come from the telemetry facade (cause_count), sectors from the
/// FTL's stats; only differences between two totals are ever emitted.
struct HealthTotals {
  std::uint64_t prog_full[kCauseCount] = {};
  std::uint64_t prog_sub[kCauseCount] = {};
  std::uint64_t erases[kCauseCount] = {};
  std::uint64_t host_sectors = 0;             ///< FtlStats::host_write_sectors
  std::uint64_t retention_evict_sectors = 0;  ///< FtlStats::retention_evictions
};

class HealthMonitor {
 public:
  static constexpr int kSchemaVersion = 1;

  /// Writes the hdr line immediately. The stream must outlive the monitor.
  /// With `resume` set, no hdr line is written (appending to an existing
  /// stream after a snapshot restore; cursors arrive via load_state).
  HealthMonitor(std::ostream& os, const HealthHeader& header,
                bool resume = false);

  // --- GC-victim feed (Telemetry facade) ---------------------------
  /// Counts one GC-caused erase of (chip, block); a no-op for events
  /// without a physical address.
  void count_gc_victim(std::uint32_t chip, std::uint32_t block) {
    if (chip == kNoChip) return;
    const std::size_t idx =
        static_cast<std::size_t>(chip) * header_.blocks_per_chip + block;
    if (idx < gc_victims_.size()) ++gc_victims_[idx];
  }

  // --- epoch cadence (driver) ---------------------------------------
  /// Anchors the epoch clock at `now` and the window counters at `totals`
  /// (called once at attach).
  void start(SimTime now, const HealthTotals& totals);
  /// Re-anchors only the window counters (a fresh monitor attached to a
  /// resumed run, whose epoch clock is not started).
  void rebase(const HealthTotals& totals) { base_ = totals; }
  /// True when the current epoch has elapsed (always false when the
  /// interval is 0 -- endpoint epochs are triggered explicitly).
  bool due(SimTime now) const {
    return header_.interval_us > 0.0 && now >= next_due_us_;
  }
  SimTime last_epoch_us() const { return last_epoch_us_; }

  // --- epoch snapshot (driver) --------------------------------------
  /// Returns the cleared row buffer (one row per physical block, indexed
  /// chip * blocks_per_chip + block) for the device and FTL to fill.
  std::span<BlockHealth> begin_epoch();
  /// Emits the epoch: marker line, changed-block delta rows, smart line.
  /// `spare_blocks` is the allocator's current free-block count; the
  /// smart line's window is `totals` minus the previous epoch's.
  void commit_epoch(SimTime now, std::uint64_t spare_blocks,
                    const HealthTotals& totals);

  /// Writes the end trailer (idempotent; later epochs are dropped).
  void finish();

  std::uint64_t epochs_written() const { return epochs_; }
  std::uint64_t lines_written() const { return lines_; }

  /// Snapshot support: epoch cadence cursors, line counters, the
  /// delta-encoding reference tuples, per-block GC-victim counts and the
  /// totals the open window started from.
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  void write_line(const char* buf);
  void emit_smart(SimTime now, std::uint64_t spare_blocks,
                  const HealthTotals& totals, std::uint32_t pe_min,
                  std::uint32_t pe_max, double sum);

  /// Appends one delta row for block `i` to out_buf_ (to_chars fast path:
  /// a prod-geometry epoch can carry thousands of rows, and snprintf's
  /// format-string parse would dominate the monitor's cost).
  void append_block_row(std::size_t i, const BlockHealth& r);

  std::ostream& os_;
  HealthHeader header_;
  std::size_t total_blocks_;
  bool finished_ = false;
  SimTime next_due_us_ = 0.0;
  SimTime last_epoch_us_ = 0.0;
  std::uint64_t epochs_ = 0;
  std::uint64_t lines_ = 0;

  /// Snapshot double-buffer: rows_ is filled per epoch, emitted_ holds the
  /// last-emitted tuple per block (delta-encoding reference).
  std::vector<BlockHealth> rows_;
  std::vector<BlockHealth> emitted_;
  std::vector<std::uint32_t> gc_victims_;  ///< erases under a GC cause
  std::vector<std::uint32_t> pe_scratch_;  ///< dense P/E copy of rows_
  std::vector<std::uint64_t> counts_;      ///< Gini counting-sort buckets
  std::string out_buf_;  ///< per-epoch line accumulator, one write per epoch

  HealthTotals base_;  ///< totals at the previous epoch (window start)
};

}  // namespace esp::telemetry
