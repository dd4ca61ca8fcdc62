// Cause taxonomy for causal attribution of physical flash operations.
//
// Every physical program/erase the NAND device records is attributed to
// exactly one *cause*: the innermost mechanism scope active when the op
// executes (empty stack = a host-path write). The FTLs and pools open
// scopes around their mechanisms (GC passes, RMW merges, forward
// migrations, retention evictions, wear leveling, buffer flushes), so a
// nested chain like
//
//     host write -> buffer flush -> GC of block B -> forward migration
//
// is visible both as per-cause counters (Telemetry) and as the full chain
// on each journaled event (Journal). Attribution is structural: each flash
// op increments exactly one cause bucket, so the per-cause decomposition
// sums bit-exactly to the aggregate device counters.
//
// Block lifecycle transitions (allocated, frontier level advanced, erased,
// retired) are reported through the same facade as BlockLifecycleEvents;
// the Journal derives sub<->full *conversions* from allocation events
// whose pool differs from the block's previous owner.
#pragma once

#include <cstdint>

#include "util/sim_time.h"

namespace esp::telemetry {

/// Why a physical flash operation happened. kHost is the default when no
/// mechanism scope is open; the others are pushed by the FTLs/pools.
enum class Cause : std::uint8_t {
  kHost = 0,          ///< host write path (buffered or sync)
  kRmw,               ///< read-modify-write service of a small write
  kFlush,             ///< explicit host flush draining the write buffer
  kGcCopy,            ///< garbage-collection pass (copies + erase)
  kForwardMigration,  ///< ESP forward migration into the next slot
  kRetentionEvict,    ///< retention-scan eviction to the full-page region
  kWearLevel,         ///< static wear-leveling relocation
  kCount,
};

inline constexpr std::size_t kCauseCount =
    static_cast<std::size_t>(Cause::kCount);

/// Stable metric/journal name of a cause.
constexpr const char* cause_name(Cause cause) {
  switch (cause) {
    case Cause::kHost: return "host";
    case Cause::kRmw: return "rmw";
    case Cause::kFlush: return "flush";
    case Cause::kGcCopy: return "gc_copy";
    case Cause::kForwardMigration: return "forward_migration";
    case Cause::kRetentionEvict: return "retention_evict";
    case Cause::kWearLevel: return "wear_level";
    case Cause::kCount: break;
  }
  return "unknown";
}

/// One frame of the cause stack: the mechanism plus a mechanism-specific
/// detail (victim block index, destination slot, logical page, ...).
struct CauseFrame {
  Cause cause = Cause::kHost;
  std::uint64_t detail = 0;
  SimTime at = 0.0;  ///< simulated time the scope opened
};

/// Block lifecycle transitions reported by the pools.
enum class BlockEventKind : std::uint8_t {
  kAllocated,      ///< taken from the shared allocator by a pool
  kLevelAdvanced,  ///< ESP frontier advanced to the next subpage slot
  kConverted,      ///< re-allocated under a different pool (journal-derived)
  kErased,         ///< physically erased by its pool
  kRetired,        ///< returned to the shared allocator
  kCount,
};

constexpr const char* block_event_name(BlockEventKind kind) {
  switch (kind) {
    case BlockEventKind::kAllocated: return "allocated";
    case BlockEventKind::kLevelAdvanced: return "level_advanced";
    case BlockEventKind::kConverted: return "converted";
    case BlockEventKind::kErased: return "erased";
    case BlockEventKind::kRetired: return "retired";
    case BlockEventKind::kCount: break;
  }
  return "unknown";
}

struct BlockLifecycleEvent {
  BlockEventKind kind = BlockEventKind::kCount;
  std::uint32_t chip = 0;
  std::uint32_t block = 0;
  const char* pool = "";        ///< owning pool: "full" | "sub" | "fine"
  std::uint32_t level = 0;      ///< ESP level (subpage pool; 0 elsewhere)
  std::uint32_t valid = 0;      ///< valid sectors/pages at the transition
  std::uint32_t pe_cycles = 0;  ///< block P/E count at the transition
  SimTime at = 0.0;
};

}  // namespace esp::telemetry
