// Multi-channel NAND device: command set, timing, and read reliability.
//
// The device composes:
//   * Block state machines (ESP semantics, Npp tracking) per chip, over one
//     page-major cell arena holding every page record of the device;
//   * a resource-reservation timing model -- each operation occupies its
//     channel for the data transfer and its chip for the array operation,
//     so independent chips/channels overlap exactly as on the paper's
//     8-channel x 4-chip platform;
//   * the RetentionModel + ECC verdict: a read returns kUncorrectable when
//     the stored data has outlived its Npp-dependent retention horizon.
//
// The device is single-threaded by design: the simulation driver serializes
// calls and carries simulated time explicitly (`now` in, completion out).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "ecc/ecc_model.h"
#include "nand/address.h"
#include "nand/block.h"
#include "nand/geometry.h"
#include "nand/retention_model.h"
#include "nand/timing.h"
#include "telemetry/health.h"
#include "telemetry/sink.h"
#include "util/huge_pages.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/sim_time.h"

namespace esp::nand {

enum class ReadStatus : std::uint8_t {
  kOk,             ///< data returned, ECC-correctable
  kEmpty,          ///< slot never programmed this erase cycle
  kCorrupted,      ///< destroyed by a later subpage program (ESP physics)
  kUncorrectable,  ///< retention horizon exceeded (or injected fault)
};

/// Completion acknowledgement for writes/erases.
struct OpAck {
  SimTime done = 0.0;  ///< simulated completion time
};

/// Result of a subpage read.
struct ReadAck {
  ReadStatus status = ReadStatus::kEmpty;
  std::uint64_t token = 0;
  SimTime done = 0.0;
};

/// Result of a full-page read: one verdict per subpage slot.
struct PageReadAck {
  std::array<ReadStatus, kMaxSubpagesPerPage> status{};
  std::array<std::uint64_t, kMaxSubpagesPerPage> token{};
  SimTime done = 0.0;
};

/// Monotonic operation counters (device lifetime bookkeeping).
struct DeviceCounters {
  std::uint64_t reads_full = 0;
  std::uint64_t reads_sub = 0;
  std::uint64_t progs_full = 0;
  std::uint64_t progs_sub = 0;
  std::uint64_t erases = 0;
  std::uint64_t uncorrectable_reads = 0;
  std::uint64_t corrupted_reads = 0;
};

class NandDevice {
 public:
  explicit NandDevice(const Geometry& geo, const TimingSpec& timing = {},
                      const RetentionModel& retention = {});
  // Blocks view the arena in place: a copy would alias the original's.
  NandDevice(const NandDevice&) = delete;
  NandDevice& operator=(const NandDevice&) = delete;

  // ---- command set -------------------------------------------------------
  /// Programs a whole page (tokens.size() == subpages_per_page).
  OpAck program_full(const PageAddr& addr,
                     std::span<const std::uint64_t> tokens, SimTime now);

  /// ESP subpage program (sequential slot, destroys earlier slots).
  OpAck program_subpage(const SubpageAddr& addr, std::uint64_t token,
                        SimTime now);

  /// Reads one subpage slot, applying the retention/ECC verdict.
  ReadAck read_subpage(const SubpageAddr& addr, SimTime now);

  /// Reads a full page (all slots, one array operation).
  PageReadAck read_page(const PageAddr& addr, SimTime now);

  OpAck erase_block(std::uint32_t chip, std::uint32_t block, SimTime now);

  /// On-chip copyback (standard NAND "copy-back program"): the page is
  /// sensed into the chip's internal page buffer and programmed to another
  /// erased page of the SAME chip without crossing the channel. GC copies
  /// become cheaper by both transfer times. Note: real copyback bypasses
  /// the controller's ECC, so firmware alternates it with read-verify
  /// passes; the model copies tokens as stored (including corrupted ones).
  OpAck copyback(const PageAddr& src, const PageAddr& dst, SimTime now);

  // ---- introspection ------------------------------------------------------
  const Geometry& geometry() const { return geo_; }
  const TimingSpec& timing() const { return timing_; }
  const RetentionModel& retention() const { return retention_; }
  const DeviceCounters& counters() const { return counters_; }
  const Block& block(std::uint32_t chip, std::uint32_t blk) const;

  std::uint32_t pe_cycles(std::uint32_t chip, std::uint32_t blk) const {
    return block(chip, blk).pe_cycles();
  }
  std::uint64_t total_erases() const { return counters_.erases; }

  /// Highest P/E count of any block on the device (monotone, updated at
  /// erase time) -- lets wear levelers find the device-wide maximum without
  /// scanning every block.
  std::uint32_t max_pe_cycles() const { return max_pe_cycles_; }

  /// Fault injection: each otherwise-OK read independently fails as
  /// uncorrectable with probability p (deterministic stream from `seed`).
  void set_read_fault_injection(double probability, std::uint64_t seed = 1);

  /// Reliability verdict mode for reads.
  ///   * kDeterministic (default): data is correctable exactly until its
  ///     retention horizon -- reproducible, used by the FTL benches;
  ///   * kProbabilistic: each codeword of the read fails with the binomial
  ///     tail probability implied by the RetentionModel's BER and the ECC
  ///     spec, so near-horizon reads fail stochastically as on silicon.
  enum class ReliabilityMode : std::uint8_t { kDeterministic, kProbabilistic };
  void set_reliability_mode(ReliabilityMode mode, std::uint64_t seed = 1);

  /// Accumulated busy time of one chip (array + transfer occupancy) --
  /// divide by elapsed simulated time for utilization.
  SimTime chip_busy_us(std::uint32_t chip) const {
    return chip_busy_accum_.at(chip);
  }

  /// Accumulated transfer occupancy of one channel (the data-movement
  /// window only; array time the channel merely reserves is not counted).
  /// Divide by elapsed simulated time for channel utilization.
  SimTime channel_busy_us(std::uint32_t channel) const {
    return channel_busy_accum_.at(channel);
  }

  /// Attaches a telemetry facade (nullptr detaches). Binds the device
  /// counters under "nand/" and records one op event per flash command.
  void set_telemetry(telemetry::Telemetry* tel);

  /// Fills the physical fields (P/E cycles, programmed pages, first-program
  /// time) of a health snapshot; `out` must hold one row per block, indexed
  /// chip * blocks_per_chip + block. Ownership/validity fields are the
  /// FTL's to fill.
  void fill_block_health(std::span<telemetry::BlockHealth> out) const;

  /// Epoch fast-forward support: accrues `cycles` P/E cycles on one block
  /// without issuing erase commands or touching page contents. The cycles
  /// are tracked in `synthetic_erases()` (NOT in counters().erases, which
  /// stays a faithful command count so delta-based WAF sampling in the
  /// next measurement window is undistorted).
  void apply_synthetic_wear(std::uint32_t chip, std::uint32_t block,
                            std::uint32_t cycles);

  /// Total P/E cycles accrued via apply_synthetic_wear across all blocks.
  std::uint64_t synthetic_erases() const { return synthetic_erases_; }

  /// Snapshot support: all block state, timing-reservation clocks, op
  /// counters, and the fault-injection RNG. Geometry must match on load.
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  Block& block_ref(std::uint32_t chip, std::uint32_t blk);
  /// Read verdict for one decoded slot of a page in mode `mode` of `blk`.
  ReadStatus verdict(const Block& blk, PageMode mode, const SlotView& view,
                     SimTime now);

  /// Reserves channel + chip time for one operation; returns completion.
  SimTime schedule(std::uint32_t chip, SimTime array_us,
                   std::uint64_t xfer_bytes, bool transfer_first, SimTime now);

  Geometry geo_;
  TimingSpec timing_;
  RetentionModel retention_;
  /// Every page record of the device, page-major: block i's records are
  /// the i-th run of pages_per_block records (see Block for the layout).
  /// Allocated once; never resized, so the blocks' views stay valid.
  util::HugeVector<std::uint64_t> arena_;
  std::vector<Block> blocks_;  ///< [chip * blocks_per_chip + block]
  std::vector<SimTime> channel_busy_until_;
  std::vector<SimTime> chip_busy_until_;
  std::vector<SimTime> chip_busy_accum_;
  std::vector<SimTime> channel_busy_accum_;
  DeviceCounters counters_;
  std::uint64_t synthetic_erases_ = 0;
  std::uint32_t max_pe_cycles_ = 0;
  double fault_prob_ = 0.0;
  util::Xoshiro256 fault_rng_{1};
  ReliabilityMode reliability_mode_ = ReliabilityMode::kDeterministic;
  ecc::EccModel ecc_;
  telemetry::Telemetry* tel_ = nullptr;
};

}  // namespace esp::nand
