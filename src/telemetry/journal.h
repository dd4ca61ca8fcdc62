// Causal attribution journal: schema-versioned JSONL event stream.
//
// The Journal is fed by the Telemetry facade (set_journal) and writes one
// JSON object per line to a caller-owned ostream, with bounded memory: the
// only retained state is per-block "last owning pool" (one byte per
// physical block, used to derive sub<->full conversion events) and the
// running line counters. Everything else streams straight out.
//
// Schema v1 line types (all lines carry `"t"`):
//   hdr    run header: schema version, FTL, geometry, workload seed
//   host   a host request span (writes/trims/flushes; reads are skipped
//          to bound journal size -- they never amplify writes)
//   op     a physical flash program/erase with its cause and full cause
//          chain (innermost last, '>'-joined), request id, chip/block and
//          kind-specific address fields
//   mech   an FTL mechanism span (gc_copy, rmw, forward_migration,
//          retention_evict, wear_level) with its two detail args
//   scope  a cause-scope boundary: `"ph":"B"` open / `"ph":"E"` close,
//          matching Chrome-trace phase semantics; strictly nested
//   blk    a block lifecycle transition (allocated, level_advanced,
//          converted, erased, retired) with pool, level, valid, P/E
//   end    trailer: total event lines written and truncated counts
//
// Timestamps are simulated microseconds printed with "%.10g" so re-parsing
// round-trips the double exactly for all times this simulator produces.
//
// Truncation: when `max_events` > 0, event lines past the cap are counted
// (truncated()) instead of written; hdr/end lines are always emitted.
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

/// Run-identifying fields written into the journal's hdr line.
using JournalHeader = StreamHeader;

class Journal {
 public:
  static constexpr int kSchemaVersion = 1;

  /// Writes the hdr line immediately. The stream must outlive the Journal.
  /// `max_events` caps event lines (0 = unbounded). With `resume` set, no
  /// hdr line is written: the caller is appending to an existing stream
  /// after a snapshot restore, and the journal's cursors arrive via
  /// load_state -- the resumed file stays byte-identical to an
  /// uninterrupted run's.
  Journal(std::ostream& os, const JournalHeader& header,
          std::uint64_t max_events = 0, bool resume = false);

  /// Records one op event with its attributed cause and the full cause
  /// chain (outermost first). Flash ops become `op` lines, host-lane ops
  /// `host` lines (reads skipped), FTL-lane ops `mech` lines.
  void on_op(const OpEvent& event, Cause cause,
             std::span<const CauseFrame> chain, std::uint32_t request_id);

  /// Records a cause-scope boundary; `phase` is 'B' or 'E'. Close events
  /// are stamped with the latest simulated time seen on the stream.
  void on_scope(char phase, const CauseFrame& frame);

  /// Records a block lifecycle transition; synthesizes a `converted` line
  /// when an allocation's pool differs from the block's previous owner.
  void on_block(const BlockLifecycleEvent& event);

  /// Writes the end trailer (idempotent; later events are dropped).
  void finish();

  std::uint64_t events_written() const { return events_; }
  std::uint64_t truncated() const { return truncated_; }

  /// Snapshot support: line counters, the scope-close time high-water mark
  /// and the per-block last-owner table (conversion-event derivation).
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  /// Returns true if the next event line may be written; otherwise counts
  /// it as truncated.
  bool admit();
  void write_line(const char* buf);
  /// '>'-joined cause-chain names, outermost first ("" for host-path ops).
  std::string chain_string(std::span<const CauseFrame> chain) const;

  std::ostream& os_;
  std::uint32_t blocks_per_chip_;
  std::uint64_t max_events_;
  std::uint64_t events_ = 0;
  std::uint64_t truncated_ = 0;
  bool finished_ = false;
  SimTime last_time_ = 0.0;  ///< high-water mark for scope-close stamps
  /// Last pool to allocate each physical block: index into pool_names_
  /// plus one (0 = never allocated). Sized chips * blocks_per_chip.
  std::vector<std::uint8_t> last_pool_;
  std::vector<std::string> pool_names_;
};

}  // namespace esp::telemetry
