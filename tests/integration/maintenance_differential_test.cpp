// Scan-vs-index differential (the production-scale replay tentpole's
// safety net): the incremental maintenance indices (RetentionQueue,
// WearIndex, idle-candidate list) must make BIT-IDENTICAL decisions to the
// original O(device) linear scans they replaced. Two angles:
//
//   1. whole-stack: a seeded, audited 4-FTL sweep run twice -- once with
//      SsdConfig::reference_scan_maintenance set, once clear -- must write
//      byte-identical causal-attribution journals (every GC victim,
//      retention eviction and wear-leveling move, in order);
//   2. pool-level: one pool per mode driven with an identical
//      write/drop/maintenance sequence must agree on every returned
//      completion time, every entry of the pool's own map, every eviction
//      batch or GC relocation and every deterministic counter -- for the
//      SubpagePool
//      (retention, wear leveling, idle release) and for the append-only
//      FullPagePool (with and without copy-back) and FinePool (greedy GC
//      plus wear leveling through the shared block-pool core).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/parallel_runner.h"
#include "ftl/block_allocator.h"
#include "ftl/fine_pool.h"
#include "ftl/fullpage_pool.h"
#include "ftl/subpage_pool.h"
#include "nand/device.h"
#include "test_common.h"
#include "util/rng.h"

namespace esp {
namespace {

using core::FtlKind;

const FtlKind kKinds[] = {FtlKind::kCgm, FtlKind::kFgm, FtlKind::kSub,
                          FtlKind::kSectorLog};

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing journal " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// Maintenance clock compressed the same way macro_replay does it: seconds
// instead of days plus think-time dilation, so retention scans and wear
// checks actually fire inside a few thousand requests.
std::vector<core::ExperimentCell> make_cells(const std::string& tag,
                                             bool reference_scan) {
  std::vector<core::ExperimentCell> cells;
  for (const auto kind : kKinds) {
    core::ExperimentCell cell;
    cell.key = "maint_diff/" + core::ftl_kind_name(kind);
    cell.spec.ssd = test::tiny_config(kind);
    cell.spec.ssd.reference_scan_maintenance = reference_scan;
    cell.spec.ssd.retention_scan_interval = 0.05 * sim_time::kSecond;
    cell.spec.ssd.retention_evict_age = 0.20 * sim_time::kSecond;
    cell.spec.ssd.wl_check_interval = 64;
    cell.spec.ssd.wl_pe_threshold = 4;
    cell.spec.workload.request_count = 6000;
    cell.spec.workload.r_small = 0.8;
    cell.spec.workload.r_synch = 0.7;
    cell.spec.workload.read_fraction = 0.2;
    cell.spec.workload.trim_fraction = 0.02;
    cell.spec.workload.think_us = 200;
    cell.spec.workload.seed = 11;
    cell.spec.warmup_requests = 0;
    cell.spec.observe.audit = true;
    cell.spec.observe.journal_path = ::testing::TempDir() + "md-" + tag +
        "-" + core::ftl_kind_name(kind) + ".jsonl";
    cells.push_back(std::move(cell));
  }
  return cells;
}

TEST(MaintenanceDifferential, JournalsByteIdenticalScanVsIndex) {
  const auto scan_cells = make_cells("scan", true);
  const auto index_cells = make_cells("index", false);
  core::ParallelRunner runner(1);
  const auto scan = runner.run(scan_cells);
  const auto index = runner.run(index_cells);
  ASSERT_EQ(scan.size(), index.size());

  for (std::size_t i = 0; i < scan.size(); ++i) {
    ASSERT_TRUE(scan[i].ok) << scan[i].key << ": " << scan[i].error;
    ASSERT_TRUE(index[i].ok) << index[i].key << ": " << index[i].error;
    const auto& a = scan[i].result;
    const auto& b = index[i].result;
    // The journal compare below subsumes these, but counter mismatches
    // give a far more readable first-divergence signal.
    EXPECT_EQ(a.raw.ftl_stats.gc_invocations, b.raw.ftl_stats.gc_invocations)
        << scan[i].key;
    EXPECT_EQ(a.raw.ftl_stats.retention_evictions,
              b.raw.ftl_stats.retention_evictions)
        << scan[i].key;
    EXPECT_EQ(a.raw.ftl_stats.wear_level_relocations,
              b.raw.ftl_stats.wear_level_relocations)
        << scan[i].key;
    EXPECT_EQ(a.raw.ftl_stats.flash_erases, b.raw.ftl_stats.flash_erases)
        << scan[i].key;
    EXPECT_EQ(a.raw.end_us, b.raw.end_us) << scan[i].key;
    EXPECT_EQ(a.raw.verify_failures, 0u) << scan[i].key;
    EXPECT_EQ(b.raw.verify_failures, 0u) << index[i].key;

    const std::string ja = slurp(scan_cells[i].spec.observe.journal_path);
    const std::string jb = slurp(index_cells[i].spec.observe.journal_path);
    ASSERT_FALSE(ja.empty()) << scan_cells[i].key;
    EXPECT_EQ(ja, jb) << "journal for " << scan_cells[i].key
                      << " differs between scan and index maintenance";
  }
  // The compressed clock must have exercised the maintenance paths in at
  // least one cell, or this test proves nothing.
  std::uint64_t evictions = 0, wl_moves = 0;
  for (const auto& r : index) {
    evictions += r.result.raw.ftl_stats.retention_evictions;
    wl_moves += r.result.raw.ftl_stats.wear_level_relocations;
  }
  EXPECT_GT(evictions, 0u) << "no retention eviction fired anywhere";
  EXPECT_GT(wl_moves, 0u) << "no wear-leveling relocation fired anywhere";
}

// --------------------------------------------------------------------------
// Pool-level differential: drive a scan-mode and an index-mode SubpagePool
// through one interleaved write/invalidate/maintenance sequence and demand
// step-by-step agreement.

constexpr std::uint64_t kSectors = 600;

struct PoolHarness final : ftl::EvictionTarget {
  nand::Geometry geo = test::tiny_geometry();
  std::unique_ptr<nand::NandDevice> dev;
  std::unique_ptr<ftl::BlockAllocator> allocator;
  ftl::FtlStats stats;
  std::unique_ptr<ftl::SubpagePool> pool;
  /// Every eviction the pool handed over: (sector, token, retention?).
  std::vector<std::tuple<std::uint64_t, std::uint64_t, bool>> evicted;
  std::uint64_t retention_seen = 0;

  explicit PoolHarness(bool reference_scan) {
    dev = std::make_unique<nand::NandDevice>(geo);
    allocator = std::make_unique<ftl::BlockAllocator>(geo);
    ftl::SubpagePool::Config cfg;
    cfg.quota_blocks = geo.total_blocks() / 2;
    cfg.reserve_free_blocks = 4;
    cfg.retention_evict_age = 4000.0;  // us; writes advance now by ~2-8
    cfg.reference_scan_maintenance = reference_scan;
    pool = std::make_unique<ftl::SubpagePool>(*dev, *allocator, cfg, stats,
                                              kSectors, *this);
  }

  /// The full-page region's side of an eviction; a retention batch is one
  /// the pool counted as retention evictions.
  SimTime merge_sectors(std::span<const ftl::SectorWrite> batch,
                        SimTime t) override {
    const bool retention = stats.retention_evictions != retention_seen;
    retention_seen = stats.retention_evictions;
    for (const auto& w : batch) evicted.emplace_back(w.sector, w.token, retention);
    return t;
  }

  std::uint64_t mapped_sectors() const {
    std::uint64_t n = 0;
    for (std::uint64_t s = 0; s < kSectors; ++s)
      n += pool->subpage_of(s) != nand::kUnmapped;
    return n;
  }
};

TEST(MaintenanceDifferential, SubpagePoolStepwiseAgreement) {
  PoolHarness scan(true);
  PoolHarness index(false);
  util::Xoshiro256 rng(2017);
  constexpr std::uint32_t kWlThreshold = 2;
  std::vector<std::uint64_t> version(kSectors, 0);
  SimTime now = 0.0;
  std::uint64_t retention_calls = 0, wl_calls = 0, idle_calls = 0;

  for (int step = 0; step < 12000; ++step) {
    const std::uint64_t roll = rng.below(100);
    if (roll < 88) {  // overwrite a random sector
      const std::uint64_t sector = rng.below(kSectors);
      const std::uint64_t token = ftl::make_token(sector, ++version[sector]);
      const SimTime a = scan.pool->try_write_sector(sector, token, now).value();
      const SimTime b = index.pool->try_write_sector(sector, token, now).value();
      ASSERT_EQ(scan.pool->subpage_of(sector), index.pool->subpage_of(sector))
          << "placement diverged at step " << step;
      ASSERT_EQ(a, b) << "completion diverged at step " << step;
      now = a + 1.0 + static_cast<double>(rng.below(6));
    } else if (roll < 94) {
      ++retention_calls;
      const SimTime a = scan.pool->retention_scan(now);
      const SimTime b = index.pool->retention_scan(now);
      ASSERT_EQ(a, b) << "retention completion diverged at step " << step;
      now = a + 1.0;
    } else if (roll < 98) {
      ++wl_calls;
      const SimTime a = scan.pool->static_wear_level(now, kWlThreshold);
      const SimTime b = index.pool->static_wear_level(now, kWlThreshold);
      ASSERT_EQ(a, b) << "wear-level completion diverged at step " << step;
      now = a + 1.0;
    } else {
      ++idle_calls;
      const SimTime a = scan.pool->release_idle_blocks(now);
      const SimTime b = index.pool->release_idle_blocks(now);
      ASSERT_EQ(a, b) << "idle-release completion diverged at step " << step;
      now = a + 1.0;
    }
    ASSERT_EQ(scan.pool->blocks_in_use(), index.pool->blocks_in_use())
        << "step " << step;
    ASSERT_EQ(scan.pool->valid_sectors(), index.pool->valid_sectors())
        << "step " << step;
    ASSERT_EQ(scan.evicted.size(), index.evicted.size()) << "step " << step;
  }

  // Full-sequence agreement: every eviction, in order, with the same
  // retention/GC attribution; identical final mappings; identical
  // deterministic counters.
  ASSERT_EQ(scan.evicted, index.evicted);
  ASSERT_EQ(scan.mapped_sectors(), index.mapped_sectors());
  for (std::uint64_t sector = 0; sector < kSectors; ++sector) {
    EXPECT_EQ(scan.pool->subpage_of(sector), index.pool->subpage_of(sector))
        << "sector " << sector;
    EXPECT_EQ(scan.pool->hot(sector), index.pool->hot(sector))
        << "sector " << sector;
  }
  EXPECT_EQ(scan.stats.flash_prog_sub, index.stats.flash_prog_sub);
  EXPECT_EQ(scan.stats.flash_erases, index.stats.flash_erases);
  EXPECT_EQ(scan.stats.gc_invocations, index.stats.gc_invocations);
  EXPECT_EQ(scan.stats.gc_copy_sectors, index.stats.gc_copy_sectors);
  EXPECT_EQ(scan.stats.forward_migrations, index.stats.forward_migrations);
  EXPECT_EQ(scan.stats.cold_evictions, index.stats.cold_evictions);
  EXPECT_EQ(scan.stats.retention_evictions, index.stats.retention_evictions);
  EXPECT_EQ(scan.stats.wear_level_relocations,
            index.stats.wear_level_relocations);
  EXPECT_EQ(scan.pool->core().owned_pe_cycles(),
            index.pool->core().owned_pe_cycles());

  // Sanity: the sequence must have driven real maintenance work.
  EXPECT_GT(retention_calls, 0u);
  EXPECT_GT(wl_calls, 0u);
  EXPECT_GT(idle_calls, 0u);
  EXPECT_GT(scan.stats.retention_evictions, 0u)
      << "no retention eviction fired -- sequence too tame";
  EXPECT_GT(scan.stats.gc_invocations, 0u);
}

// --------------------------------------------------------------------------
// Append-only pools: the same stepwise duel for FullPagePool (page append,
// optionally copy-back GC) and FinePool (sector-group append, repacking
// GC). Their GC victims come from the core's victim heap in both modes;
// wear-leveling targets come from the wear index or the reference scan.

enum class AppendPool { kFull, kFullCopyback, kFine };

const char* append_pool_name(AppendPool kind) {
  switch (kind) {
    case AppendPool::kFull: return "FullPagePool";
    case AppendPool::kFullCopyback: return "FullPagePool+copyback";
    case AppendPool::kFine: return "FinePool";
  }
  return "?";
}

// ~60% of the device's pages (FinePool: one sector per program).
constexpr std::uint64_t kUnits = 1200;

struct AppendPoolHarness {
  nand::Geometry geo = test::tiny_geometry();
  std::unique_ptr<nand::NandDevice> dev;
  std::unique_ptr<ftl::BlockAllocator> allocator;
  ftl::FtlStats stats;
  std::unique_ptr<ftl::FullPagePool> full;
  std::unique_ptr<ftl::FinePool> fine;
  /// The pool's map (unit: lpn for FullPagePool, sector for FinePool)
  /// as of the last record_moves().
  std::vector<std::uint64_t> map =
      std::vector<std::uint64_t>(kUnits, nand::kUnmapped);
  /// Every map change, step by step in unit order: (unit, new linear
  /// address). Host writes, drops and GC relocations alike.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> moves;

  AppendPoolHarness(AppendPool kind, bool reference_scan) {
    dev = std::make_unique<nand::NandDevice>(geo);
    allocator = std::make_unique<ftl::BlockAllocator>(geo);
    if (kind == AppendPool::kFine) {
      ftl::FinePool::Config cfg;
      cfg.reserve_free_blocks = 4;
      cfg.reference_scan_maintenance = reference_scan;
      fine = std::make_unique<ftl::FinePool>(*dev, *allocator, cfg, stats,
                                             kUnits);
    } else {
      ftl::FullPagePool::Config cfg;
      cfg.reserve_free_blocks = 4;
      cfg.use_copyback = kind == AppendPool::kFullCopyback;
      cfg.reference_scan_maintenance = reference_scan;
      full = std::make_unique<ftl::FullPagePool>(*dev, *allocator, cfg,
                                                 stats, kUnits);
    }
  }

  const ftl::BlockPoolCore& core() const {
    return full ? full->core() : fine->core();
  }
  std::uint64_t address(std::uint64_t unit) const {
    return full ? full->page_of(unit) : fine->subpage_of(unit);
  }
  bool mapped(std::uint64_t unit) const {
    return address(unit) != nand::kUnmapped;
  }

  /// Appends this step's map changes to `moves`.
  void record_moves() {
    for (std::uint64_t unit = 0; unit < kUnits; ++unit) {
      if (address(unit) == map[unit]) continue;
      map[unit] = address(unit);
      moves.emplace_back(unit, map[unit]);
    }
  }

  /// Overwrites `unit`; returns the program's completion time.
  SimTime write(std::uint64_t unit, std::uint64_t token, SimTime now) {
    if (fine) {
      const ftl::SectorWrite group[] = {{unit, token}};
      return fine->write_group(group, now);
    }
    const std::vector<std::uint64_t> tokens(geo.subpages_per_page, token);
    return full->write_page(unit, tokens, now);
  }

  void drop(std::uint64_t unit) {
    if (full)
      full->drop(unit);
    else
      fine->drop(unit);
  }

  SimTime static_wear_level(SimTime now, std::uint32_t threshold) {
    return full ? full->static_wear_level(now, threshold)
                : fine->static_wear_level(now, threshold);
  }
};

TEST(MaintenanceDifferential, AppendOnlyPoolsStepwiseAgreement) {
  for (const AppendPool kind :
       {AppendPool::kFull, AppendPool::kFullCopyback, AppendPool::kFine}) {
    SCOPED_TRACE(append_pool_name(kind));
    AppendPoolHarness scan(kind, true);
    AppendPoolHarness index(kind, false);
    util::Xoshiro256 rng(2017);
    // A fifth of the units are hot: cold blocks stay sealed at low P/E, so
    // the low threshold below keeps wear leveling busy.
    constexpr std::uint64_t kHotUnits = kUnits / 5;
    constexpr std::uint32_t kWlThreshold = 2;
    std::vector<std::uint64_t> version(kUnits, 0);
    SimTime now = 0.0;
    std::uint64_t wl_calls = 0, trims = 0;

    for (int step = 0; step < 12000; ++step) {
      const std::uint64_t roll = rng.below(100);
      if (roll < 90) {
        const std::uint64_t unit =
            rng.below(10) < 8 ? rng.below(kHotUnits) : rng.below(kUnits);
        const std::uint64_t token = ftl::make_token(unit, ++version[unit]);
        const SimTime a = scan.write(unit, token, now);
        const SimTime b = index.write(unit, token, now);
        ASSERT_EQ(a, b) << "completion diverged at step " << step;
        ASSERT_EQ(scan.address(unit), index.address(unit))
            << "placement diverged at step " << step;
        now = a + 1.0;
      } else if (roll < 94) {
        const std::uint64_t unit = rng.below(kUnits);
        if (scan.mapped(unit)) {
          ++trims;
          scan.drop(unit);
          index.drop(unit);
        }
      } else {
        ++wl_calls;
        const SimTime a = scan.static_wear_level(now, kWlThreshold);
        const SimTime b = index.static_wear_level(now, kWlThreshold);
        ASSERT_EQ(a, b) << "wear-level completion diverged at step " << step;
        now = a + 1.0;
      }
      scan.record_moves();
      index.record_moves();
      ASSERT_EQ(scan.moves.size(), index.moves.size()) << "step " << step;
      if (!scan.moves.empty()) {
        ASSERT_EQ(scan.moves.back(), index.moves.back()) << "step " << step;
      }
      ASSERT_EQ(scan.core().blocks_in_use(), index.core().blocks_in_use())
          << "step " << step;
      ASSERT_EQ(scan.core().valid_slots(), index.core().valid_slots())
          << "step " << step;
    }

    EXPECT_EQ(scan.moves, index.moves);
    EXPECT_EQ(scan.map, index.map);
    EXPECT_EQ(scan.stats.flash_prog_full, index.stats.flash_prog_full);
    EXPECT_EQ(scan.stats.flash_reads, index.stats.flash_reads);
    EXPECT_EQ(scan.stats.flash_erases, index.stats.flash_erases);
    EXPECT_EQ(scan.stats.gc_invocations, index.stats.gc_invocations);
    EXPECT_EQ(scan.stats.gc_copy_sectors, index.stats.gc_copy_sectors);
    EXPECT_EQ(scan.stats.wear_level_relocations,
              index.stats.wear_level_relocations);
    EXPECT_EQ(scan.stats.maint_wear_level_calls,
              index.stats.maint_wear_level_calls);
    EXPECT_EQ(scan.core().owned_pe_cycles(), index.core().owned_pe_cycles());

    // Sanity: the sequence must have driven GC and real wear leveling.
    EXPECT_GT(trims, 0u);
    EXPECT_EQ(scan.stats.maint_wear_level_calls, wl_calls);
    EXPECT_GT(scan.stats.gc_invocations, 0u);
    EXPECT_GT(scan.stats.wear_level_relocations, 0u)
        << "no wear-leveling relocation fired -- sequence too tame";
  }
}

}  // namespace
}  // namespace esp
