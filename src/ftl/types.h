// Common FTL-level types: sector tokens, I/O results, statistics.
//
// The host address space is a flat array of 4-KB *sectors* (the subpage
// unit Ssub). A *logical page* (lpn) groups Geometry::subpages_per_page
// consecutive sectors and matches the 16-KB physical page Sfull.
//
// Every sector stored on flash carries a 64-bit token encoding
// (sector, version). The simulation driver keeps a shadow copy of the
// expected version per sector, so any FTL mapping bug, illegal ESP program
// or retention violation is caught as a token mismatch on read -- the
// simulator's equivalent of end-to-end data-path CRC.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>

#include "util/serialize.h"
#include "util/sim_time.h"

namespace esp::telemetry {
class MetricsRegistry;
}

namespace esp::ftl {

/// Sector payload token. Token 0 is reserved for "no data" (padding slots).
constexpr std::uint64_t make_token(std::uint64_t sector,
                                   std::uint64_t version) {
  return ((version & 0xFFFFFF) << 40) | (sector + 1);
}
constexpr bool token_empty(std::uint64_t token) { return token == 0; }
constexpr std::uint64_t token_sector(std::uint64_t token) {
  return (token & ((1ull << 40) - 1)) - 1;
}
constexpr std::uint64_t token_version(std::uint64_t token) {
  return token >> 40;
}

/// One live sector to be placed on flash (used by pools and batch APIs).
struct SectorWrite {
  std::uint64_t sector = 0;
  std::uint64_t token = 0;
};

/// Where a region pool sheds sectors: the subpage region's GC and
/// retention evictions and the sector log's cleaning merge them into the
/// full-page region (FullPagePool implements this; tests fake it).
class EvictionTarget {
 public:
  /// Merges `batch` -- sectors the sender has already unmapped -- into
  /// their logical pages; returns the completion time.
  virtual SimTime merge_sectors(std::span<const SectorWrite> batch,
                                SimTime now) = 0;

 protected:
  ~EvictionTarget() = default;
};

/// Completion of one host request.
struct IoResult {
  SimTime done = 0.0;  ///< simulated completion time
  bool ok = true;      ///< false on read of corrupted/expired data
};

/// Monotonic per-FTL counters. All byte quantities are raw flash bytes.
struct FtlStats {
  // Host-visible traffic.
  std::uint64_t host_write_requests = 0;
  std::uint64_t host_read_requests = 0;
  std::uint64_t host_write_sectors = 0;
  std::uint64_t host_read_sectors = 0;

  // Flash operations issued (programs also tracked by the device; kept
  // here per-FTL so multiple FTL instances can share comparisons).
  std::uint64_t flash_prog_full = 0;
  std::uint64_t flash_prog_sub = 0;
  std::uint64_t flash_reads = 0;
  std::uint64_t flash_erases = 0;

  // Mechanism counters.
  std::uint64_t rmw_ops = 0;             ///< read-modify-write services
  std::uint64_t gc_invocations = 0;
  std::uint64_t gc_copy_sectors = 0;     ///< sectors relocated by GC
  std::uint64_t forward_migrations = 0;  ///< ESP in-page valid forwarding
  std::uint64_t cold_evictions = 0;      ///< subpage -> full-page (GC)
  std::uint64_t retention_evictions = 0; ///< subpage -> full-page (age)
  std::uint64_t wear_level_relocations = 0;  ///< sectors moved by static WL
  std::uint64_t buffer_hits = 0;         ///< reads served from write buffer
  std::uint64_t read_failures = 0;       ///< uncorrectable/corrupt reads

  // Small-write accounting for the paper's request-WAF metric (Table 1).
  // "Small" = host write request shorter than one full page.
  std::uint64_t small_write_requests = 0;
  std::uint64_t small_write_bytes = 0;          ///< host bytes of small reqs
  std::uint64_t small_service_flash_bytes = 0;  ///< flash bytes to service them
  std::uint64_t small_extra_flash_bytes = 0;    ///< migrations + evictions

  // Maintenance-path profiling: host wall-clock nanoseconds spent inside
  // the periodic maintenance entry points (retention scan, static wear
  // leveling, idle-block release, GC). MEASURED time, not simulated time:
  // it varies run to run and across hosts, so these fields are
  // deliberately NOT bound by bind_stats() -- exported metric sets must
  // stay bit-deterministic. They feed macro_replay's maintenance-share
  // report and the micro_ftl_ops asymptotic-regression benchmarks.
  // Maintenance work nested inside another maintenance pass (e.g. a GC
  // triggered by a retention eviction) attributes to the OUTER pass only
  // (see MaintenanceTimer).
  std::uint64_t maint_retention_calls = 0;
  std::uint64_t maint_retention_ns = 0;
  std::uint64_t maint_wear_level_calls = 0;
  std::uint64_t maint_wear_level_ns = 0;
  std::uint64_t maint_release_idle_calls = 0;
  std::uint64_t maint_release_idle_ns = 0;
  std::uint64_t maint_gc_ns = 0;  ///< calls tracked by gc_invocations
  /// Live nesting depth of maintenance timers; bookkeeping, not a metric.
  std::uint32_t maint_timer_depth = 0;

  /// Average request WAF of small writes (paper Table 1): flash bytes
  /// consumed on behalf of small writes / host bytes of small writes.
  double avg_small_request_waf() const {
    if (small_write_bytes == 0) return 1.0;
    return static_cast<double>(small_service_flash_bytes +
                               small_extra_flash_bytes) /
           static_cast<double>(small_write_bytes);
  }

  /// Overall write amplification given flash program byte counts.
  double overall_waf(std::uint64_t page_bytes,
                     std::uint64_t subpage_bytes) const {
    const std::uint64_t host = host_write_sectors * subpage_bytes;
    if (host == 0) return 1.0;
    return static_cast<double>(flash_prog_full * page_bytes +
                               flash_prog_sub * subpage_bytes) /
           static_cast<double>(host);
  }
};

/// One FtlStats counter: its exported name, its member, and whether it is
/// a measured host-side profile (the maint_* fields) rather than a
/// simulated count.
struct StatField {
  const char* name;
  std::uint64_t FtlStats::*member;
  bool measured;
};

/// Every FtlStats counter, in declaration order -- the one field list that
/// delta, sum, snapshot archive, registry binding and comparison walk.
inline constexpr StatField kStatFields[] = {
    {"host_write_requests", &FtlStats::host_write_requests, false},
    {"host_read_requests", &FtlStats::host_read_requests, false},
    {"host_write_sectors", &FtlStats::host_write_sectors, false},
    {"host_read_sectors", &FtlStats::host_read_sectors, false},
    {"flash_prog_full", &FtlStats::flash_prog_full, false},
    {"flash_prog_sub", &FtlStats::flash_prog_sub, false},
    {"flash_reads", &FtlStats::flash_reads, false},
    {"flash_erases", &FtlStats::flash_erases, false},
    {"rmw_ops", &FtlStats::rmw_ops, false},
    {"gc_invocations", &FtlStats::gc_invocations, false},
    {"gc_copy_sectors", &FtlStats::gc_copy_sectors, false},
    {"forward_migrations", &FtlStats::forward_migrations, false},
    {"cold_evictions", &FtlStats::cold_evictions, false},
    {"retention_evictions", &FtlStats::retention_evictions, false},
    {"wear_level_relocations", &FtlStats::wear_level_relocations, false},
    {"buffer_hits", &FtlStats::buffer_hits, false},
    {"read_failures", &FtlStats::read_failures, false},
    {"small_write_requests", &FtlStats::small_write_requests, false},
    {"small_write_bytes", &FtlStats::small_write_bytes, false},
    {"small_service_flash_bytes", &FtlStats::small_service_flash_bytes,
     false},
    {"small_extra_flash_bytes", &FtlStats::small_extra_flash_bytes, false},
    {"maint_retention_calls", &FtlStats::maint_retention_calls, true},
    {"maint_retention_ns", &FtlStats::maint_retention_ns, true},
    {"maint_wear_level_calls", &FtlStats::maint_wear_level_calls, true},
    {"maint_wear_level_ns", &FtlStats::maint_wear_level_ns, true},
    {"maint_release_idle_calls", &FtlStats::maint_release_idle_calls, true},
    {"maint_release_idle_ns", &FtlStats::maint_release_idle_ns, true},
    {"maint_gc_ns", &FtlStats::maint_gc_ns, true},
};

/// Counter-wise difference (after - before): stats for a measured window
/// of a longer run. Requires `after` to be a later snapshot of the same
/// FTL than `before`.
FtlStats stats_delta(const FtlStats& after, const FtlStats& before);

/// Snapshot archive of every FtlStats field, the measured maint_* wall
/// clocks included (they resume accumulating; exports never bind them, so
/// restore-equivalence of exported metric sets is unaffected).
void save_stats(util::StateWriter& w, const FtlStats& s);
void load_stats(util::StateReader& r, FtlStats& s);

/// Counter-wise sum: aggregate stats of independent FTL instances (the
/// shard-merge reconciliation -- merged counters are BY CONSTRUCTION the
/// sum of the shards). Field-for-field dual of stats_delta.
FtlStats stats_sum(const FtlStats& a, const FtlStats& b);

/// True when every simulated counter matches: the decision-equivalence
/// test between two runs. The measured maint_* profile is ignored.
bool same_simulated_stats(const FtlStats& a, const FtlStats& b);

/// RAII wall-clock timer for a maintenance entry point. The outermost
/// timer on a stats struct accumulates elapsed steady-clock nanoseconds
/// into *ns and bumps *calls (either may be nullptr); nested timers are
/// no-ops so work triggered from inside a maintenance pass is attributed
/// once, to the pass that caused it.
class MaintenanceTimer {
 public:
  MaintenanceTimer(FtlStats& stats, std::uint64_t* calls, std::uint64_t* ns);
  ~MaintenanceTimer();
  MaintenanceTimer(const MaintenanceTimer&) = delete;
  MaintenanceTimer& operator=(const MaintenanceTimer&) = delete;

 private:
  FtlStats& stats_;
  std::uint64_t* ns_;
  std::chrono::steady_clock::time_point start_;
  bool outer_;
};

/// Binds every simulated FtlStats field into `registry` as
/// "<scope>/<field>" live counters (read at export; the hot path keeps
/// incrementing the struct).
void bind_stats(telemetry::MetricsRegistry& registry, const std::string& scope,
                const FtlStats& stats);

}  // namespace esp::ftl
