// Event vocabulary of the telemetry facade (telemetry/telemetry.h).
//
// The simulator layers (nand::NandDevice, the FTL pools and FTLs, the
// driver) hold a nullable `Telemetry*` and report through it:
//
//   * op events -- one per flash/FTL operation (program, read, erase,
//     GC copy, RMW, forward migration, retention eviction, ...), carrying
//     the operation's simulated [start, end) interval and two op-specific
//     detail arguments;
//   * named metrics -- registered once at attach time into the facade's
//     MetricsRegistry (counters can be *bound* to existing struct fields,
//     so the hot-path increment stays a plain `++stats_.field`);
//   * cause scopes -- RAII windows (CauseScope) around FTL mechanisms
//     (GC, RMW, flush, forward migration, retention eviction, wear
//     leveling) so flash ops recorded inside them attribute to a cause;
//   * block lifecycle events -- allocation / frontier-advance / erase /
//     retire transitions of physical blocks (see causes.h).
//
// This header holds the types those reports carry, so downstream sinks
// (journal, auditor, health, forensics) need not see the facade. With no
// facade attached, instrumentation compiles to a null-pointer check;
// layers guard every call with `if (tel_)` (CauseScope is null-safe).
#pragma once

#include <cstdint>
#include <string>

#include "telemetry/causes.h"
#include "util/sim_time.h"

namespace esp::telemetry {

/// Operation kinds recorded as op events. Host-level kinds are emitted by
/// the driver, FTL-level kinds by the FTLs/pools, flash-level kinds by the
/// NAND device.
enum class OpKind : std::uint8_t {
  // Host request lane (driver).
  kHostWrite = 0,
  kHostRead,
  kHostFlush,
  kHostTrim,
  // Flash command lane (nand::NandDevice).
  kProgFull,  ///< arg0 = page index
  kProgSub,   ///< arg0 = slot index (Npp - 1), arg1 = page index
  kRead,      ///< arg0 = 1 for a subpage read, Nsub for a full-page read
  kErase,     ///< arg0 = P/E cycle count after the erase
  // FTL mechanism lane (pools / FTLs).
  kGcCopy,           ///< arg0 = sectors relocated, arg1 = sectors evicted
  kRmw,              ///< read-modify-write of one logical page
  kForwardMigration, ///< arg0 = destination slot index
  kRetentionEvict,   ///< arg0 = sectors evicted by the retention scan
  kWearLevel,        ///< arg0 = sectors relocated by static wear leveling
  kCount,
};

inline constexpr std::size_t kOpKindCount =
    static_cast<std::size_t>(OpKind::kCount);

/// Stable metric/trace name of an op kind.
constexpr const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kHostWrite: return "host_write";
    case OpKind::kHostRead: return "host_read";
    case OpKind::kHostFlush: return "host_flush";
    case OpKind::kHostTrim: return "host_trim";
    case OpKind::kProgFull: return "prog_full";
    case OpKind::kProgSub: return "prog_sub";
    case OpKind::kRead: return "read";
    case OpKind::kErase: return "erase";
    case OpKind::kGcCopy: return "gc_copy";
    case OpKind::kRmw: return "rmw";
    case OpKind::kForwardMigration: return "forward_migration";
    case OpKind::kRetentionEvict: return "retention_evict";
    case OpKind::kWearLevel: return "wear_level";
    case OpKind::kCount: break;
  }
  return "unknown";
}

/// chip/block sentinel for OpEvents without a physical block address.
inline constexpr std::uint32_t kNoChip = 0xFFFFFFFFu;

/// One recorded operation: a closed simulated-time span plus two
/// kind-specific detail arguments (see OpKind comments). Flash-lane events
/// additionally carry the physical chip/block they touched so journal and
/// auditor sinks can follow per-block state; host/FTL-lane events leave
/// chip at kNoChip.
struct OpEvent {
  OpKind kind = OpKind::kCount;
  SimTime start = 0.0;
  SimTime end = 0.0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::uint32_t chip = kNoChip;
  std::uint32_t block = 0;
};

/// Run identity written into the hdr line of every sidecar stream
/// (journal, health, forensics). Each stream keeps its own hdr format and
/// prints the fields it always printed.
struct StreamHeader {
  std::string ftl;
  std::uint32_t chips = 0;
  std::uint32_t blocks_per_chip = 0;
  std::uint32_t pages_per_block = 0;
  std::uint32_t subpages_per_page = 0;
  std::uint64_t page_bytes = 0;
  std::uint64_t seed = 0;
  /// Shard identity of a sharded run's per-shard stream (core/shard.h).
  std::uint32_t shard = 0;
  std::uint32_t shards = 1;

  /// The hdr line's shard fields: empty unless shards > 1, so unsharded
  /// streams keep their legacy bytes.
  std::string shard_tag() const {
    if (shards <= 1) return {};
    return ",\"shard\":" + std::to_string(shard) +
           ",\"shards\":" + std::to_string(shards);
  }
};

class Telemetry;
/// Kept because perfbench's TracingFtl (perfbench/src/tracing_ftl.h)
/// spells the facade type `telemetry::Sink`.
using Sink = Telemetry;

}  // namespace esp::telemetry
