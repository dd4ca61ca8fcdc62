// The skeleton the four FTLs share (cgmFTL, fgmFTL, subFTL, sectorLogFTL).
//
// FtlBase holds what every FTL has: the device, geometry and address codec,
// the stats, the shared block allocator, the per-sector write versions, the
// static wear-leveling cadence and the telemetry facade. It runs the host
// write prologue (range check, maintenance, host counters), the TRIM
// framing (whole logical pages only, see Ftl::trim), stats binding with the
// mapping-memory gauge, and the snapshot framing. Each FTL supplies its
// mapping-specific steps through the protected hooks; the maps themselves
// live in the pools.
//
// BufferedFtl adds the write buffer of fgmFTL, subFTL and sectorLogFTL:
// the insert loop, the sync extract, the over-capacity drain and the
// flush() drain. Its merge unit is fixed per FTL: a contiguous run (fgmFTL)
// or a page group (the hybrids).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ftl/block_allocator.h"
#include "ftl/ftl.h"
#include "ftl/fullpage_pool.h"
#include "ftl/write_buffer.h"
#include "nand/device.h"
#include "telemetry/telemetry.h"
#include "util/huge_pages.h"

namespace esp::ftl {

/// Settings every FTL shares; core::Ssd fills one from its SsdConfig.
struct FtlConfig {
  std::uint64_t logical_sectors = 0;  ///< host-visible 4-KB sectors
  std::size_t gc_reserve_blocks = 8;  ///< free-block floor before GC
  std::size_t buffer_sectors = 512;   ///< write-buffer capacity (4-KB units)
  /// Static wear leveling: every wl_check_interval host writes, relocate
  /// the coldest block if its P/E lags the hottest by more than
  /// wl_pe_threshold (0 interval disables). Hybrids level their two
  /// regions in turn.
  std::uint32_t wl_pe_threshold = 64;
  std::uint32_t wl_check_interval = 1024;
  /// GC page moves in the full-page pools use the NAND copy-back command
  /// when the destination stays on the source chip (no channel transfers).
  bool use_copyback = false;
  /// Run maintenance paths (wear leveling, and for subFTL retention scan
  /// + idle release) with the original O(device) linear scans instead of
  /// the incremental indices. Decisions are bit-identical either way;
  /// used by differential tests and CI to prove it.
  bool reference_scan_maintenance = false;
};

/// Block quota of a hybrid FTL's small-write region: `fraction` of the
/// device's blocks, at least one per chip.
std::uint64_t region_quota_blocks(const nand::Geometry& geo, double fraction);

class FtlBase : public Ftl {
 public:
  IoResult write(std::uint64_t sector, std::uint32_t count, bool sync,
                 SimTime now) final;
  void trim(std::uint64_t sector, std::uint32_t count) final;

  std::uint64_t logical_sectors() const final {
    return config_.logical_sectors;
  }
  const FtlStats& stats() const final { return stats_; }
  std::string name() const final { return name_; }
  void set_telemetry(telemetry::Telemetry* tel) final;
  std::uint64_t free_blocks() const final { return allocator_.total_free(); }
  void save_state(util::StateWriter& w) const final;
  void load_state(util::StateReader& r) final;

 protected:
  /// `name` is the FTL's name(); `tag` opens its snapshot section. Throws
  /// std::invalid_argument for an empty logical space or one larger than
  /// the device.
  FtlBase(nand::NandDevice& dev, const FtlConfig& config, const char* name,
          const char (&tag)[5]);

  /// Throws std::out_of_range unless [sector, sector + count) is a
  /// non-empty range inside the logical space (overflow-safe).
  void check_range(std::uint64_t sector, std::uint32_t count) const {
    const std::uint64_t n = config_.logical_sectors;
    if (count == 0 || sector >= n || count > n - sector) range_error();
  }
  /// Hybrids: throws std::invalid_argument unless `fraction` is in (0, 1)
  /// and the logical pages plus the region's quota fit the device.
  void check_region(double fraction) const;
  std::uint64_t logical_pages() const {
    return (config_.logical_sectors + geo_.subpages_per_page - 1) /
           geo_.subpages_per_page;
  }
  /// Read prologue: range check, host read counters, `tokens` zero-filled.
  void begin_read(std::uint64_t sector, std::uint32_t count,
                  std::vector<std::uint64_t>* tokens) {
    check_range(sector, count);
    ++stats_.host_read_requests;
    stats_.host_read_sectors += count;
    if (tokens) tokens->assign(count, 0);
  }
  /// Host read of the live subpage `sub_lin`: counts the flash read and,
  /// unless it returns kOk, a read failure (clearing `ok`); folds its
  /// completion into `done`. Returns its token.
  std::uint64_t read_subpage(std::uint64_t sub_lin, SimTime now,
                             SimTime& done, bool& ok) {
    const auto ack = dev_.read_subpage(codec_.decode_subpage(sub_lin), now);
    ++stats_.flash_reads;
    if (ack.status != nand::ReadStatus::kOk) {
      ok = false;
      ++stats_.read_failures;
    }
    done = std::max(done, ack.done);
    return ack.token;
  }
  /// Host-read verdict of `slot` of a page read: a corrupted or
  /// uncorrectable slot counts a read failure and clears `ok`. Returns the
  /// slot's token.
  std::uint64_t slot_token(const nand::PageReadAck& read, std::uint32_t slot,
                           bool& ok) {
    if (read.status[slot] == nand::ReadStatus::kCorrupted ||
        read.status[slot] == nand::ReadStatus::kUncorrectable) {
      ok = false;
      ++stats_.read_failures;
    }
    return read.token[slot];
  }

  /// Pool settings from the config, capped at `quota_blocks`.
  PoolConfig pool_config(std::uint64_t quota_blocks = ~0ull) const {
    return {quota_blocks, config_.gc_reserve_blocks,
            config_.reference_scan_maintenance};
  }
  FullPagePool::Config fullpage_config() const {
    return {pool_config(), config_.use_copyback};
  }
  /// Registers the gauge "<name>/<what>", reading value() at export.
  template <typename Value>
  void gauge(telemetry::Telemetry& tel, const char* what, Value value) {
    tel.registry().gauge(name_ + "/" + what).set_provider([value] {
      return static_cast<double>(value());
    });
  }

  /// Runs on every host write before wear leveling (subFTL's idle-block
  /// release). Default: nothing.
  virtual SimTime before_write(SimTime now) { return now; }
  /// Static wear leveling, every wl_check_interval host writes. `turn`
  /// flips per check: the hybrids level their two regions alternately.
  virtual SimTime wear_level(SimTime now, bool turn) = 0;
  /// Stores the request's sectors, after the host counters are taken;
  /// `small` marks a request shorter than one page. Returns completion.
  virtual SimTime write_sectors(std::uint64_t sector, std::uint32_t count,
                                bool sync, bool small, SimTime now) = 0;
  /// Discards every copy of logical page `lpn` (TRIM).
  virtual void trim_page(std::uint64_t lpn) = 0;
  /// Hands `tel` (nullptr detaches) to the pools and, when set, registers
  /// the FTL's occupancy gauges.
  virtual void attach(telemetry::Telemetry* tel) = 0;
  /// Snapshot sections after the shared framing: pools, write buffer and
  /// FTL-specific clocks.
  virtual void save_body(util::StateWriter& w) const = 0;
  virtual void load_body(util::StateReader& r) = 0;

  nand::NandDevice& dev_;
  FtlConfig config_;
  nand::Geometry geo_;
  nand::AddressCodec codec_;
  FtlStats stats_;
  BlockAllocator allocator_;
  util::HugeVector<std::uint32_t> version_;  ///< per-sector write counter
  telemetry::Telemetry* tel_ = nullptr;

 private:
  [[noreturn]] void range_error() const;

  std::string name_;
  const char (&tag_)[5];
  std::uint32_t writes_since_wl_ = 0;
  bool wl_turn_ = false;
};

class BufferedFtl : public FtlBase {
 public:
  IoResult flush(SimTime now) final;

 protected:
  /// What one extract takes out of the buffer: the contiguous run around a
  /// sector, or the chain of consecutive logical pages holding it.
  enum class MergeUnit { kRun, kPageGroup };

  BufferedFtl(nand::NandDevice& dev, const FtlConfig& config,
              const char* name, const char (&tag)[5], MergeUnit unit);

  /// Writes one extracted merge unit (sorted by sector) to flash; returns
  /// the completion time.
  virtual SimTime flush_run(std::span<const BufferedSector> run,
                            SimTime now) = 0;
  /// Read hit: fills `token` and counts the hit when `sector` is buffered.
  bool buffered(std::uint64_t sector, std::uint64_t* token) {
    if (!buffer_.lookup(sector, token)) return false;
    ++stats_.buffer_hits;
    return true;
  }

  WriteBuffer buffer_;

 private:
  /// Host-visible latency of an asynchronous (buffered) write.
  static constexpr SimTime kBufferInsertUs = 2.0;

  SimTime write_sectors(std::uint64_t sector, std::uint32_t count, bool sync,
                        bool small, SimTime now) final;
  /// Flushes the oldest merge units while the buffer is over capacity or,
  /// with `all`, until it is empty. Returns max(done, their completions).
  SimTime drain(bool all, SimTime now, SimTime done);

  MergeUnit unit_;
  std::vector<BufferedSector> run_;  ///< extract scratch, reused
};

}  // namespace esp::ftl
