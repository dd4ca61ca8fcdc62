// Google-benchmark micro-benchmarks of the simulator's hot paths: these
// bound the wall-clock cost of the figure-reproduction benches and catch
// accidental complexity regressions in the FTL data structures.
#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/ssd.h"
#include "ftl/block_allocator.h"
#include "ftl/fullpage_pool.h"
#include "ftl/subpage_pool.h"
#include "ftl/write_buffer.h"
#include "nand/cell_model.h"
#include "nand/device.h"
#include "util/rng.h"
#include "util/zipf.h"
#include "workload/synthetic.h"

namespace {

using namespace esp;

void BM_RngDraw(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng());
}
BENCHMARK(BM_RngDraw);

void BM_ZipfSample(benchmark::State& state) {
  util::ScatteredZipf zipf(1 << 20, 0.9);
  util::Xoshiro256 rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample);

void BM_WorkloadNext(benchmark::State& state) {
  workload::SyntheticParams params;
  params.footprint_sectors = 1 << 20;
  params.request_count = ~0ull >> 1;
  params.r_small = 0.8;
  params.read_fraction = 0.3;
  workload::SyntheticWorkload stream(params);
  for (auto _ : state) benchmark::DoNotOptimize(stream.next());
}
BENCHMARK(BM_WorkloadNext);

void BM_WriteBufferInsertExtract(benchmark::State& state) {
  ftl::WriteBuffer buffer(4096, 4);
  std::vector<ftl::BufferedSector> run;  // reused, as the FTLs do
  util::Xoshiro256 rng(3);
  for (auto _ : state) {
    const std::uint64_t sector = rng.below(1 << 16);
    buffer.insert(sector, sector + 1, true);
    if (buffer.size() > 2048) {
      buffer.extract_oldest_page_group(run);
      benchmark::DoNotOptimize(run.data());
    }
  }
}
BENCHMARK(BM_WriteBufferInsertExtract);

void BM_DeviceSubpageProgram(benchmark::State& state) {
  nand::Geometry geo;
  geo.channels = 8;
  geo.chips_per_channel = 4;
  geo.blocks_per_chip = 8;
  geo.pages_per_block = 128;
  nand::NandDevice dev(geo);
  SimTime now = 0.0;
  std::uint64_t i = 0;
  const std::uint64_t slots = geo.total_subpages();
  for (auto _ : state) {
    if (i >= slots) {  // wrap: erase everything and restart
      state.PauseTiming();
      for (std::uint32_t c = 0; c < geo.total_chips(); ++c)
        for (std::uint32_t b = 0; b < geo.blocks_per_chip; ++b)
          dev.erase_block(c, b, now);
      i = 0;
      state.ResumeTiming();
    }
    const nand::AddressCodec codec(geo);
    const auto addr = codec.decode_subpage(i++);
    now = dev.program_subpage(addr, i, now).done;
  }
}
BENCHMARK(BM_DeviceSubpageProgram);

void BM_SsdSyncSmallWrite(benchmark::State& state) {
  core::SsdConfig cfg;
  nand::Geometry geo;
  geo.channels = 4;
  geo.chips_per_channel = 2;
  geo.blocks_per_chip = 32;
  geo.pages_per_block = 64;
  cfg.geometry = geo;
  cfg.ftl = core::FtlKind::kSub;
  cfg.logical_fraction = 0.6;
  core::Ssd ssd(cfg);
  ssd.precondition(0.5);
  util::Xoshiro256 rng(4);
  const std::uint64_t sectors = ssd.logical_sectors() / 8;
  for (auto _ : state) {
    const std::uint64_t sector = rng.below(sectors);
    ssd.driver().submit(
        {workload::Request::Type::kWrite, sector, 1, true, 0.0}, false);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SsdSyncSmallWrite);

// ---------------------------------------------------------------------------
// Maintenance-path asymptotics (the production-scale replay work).
//
// Each BM_Maint* benchmark times ONE steady-state maintenance call --
// retention scan, static wear leveling, idle-block release -- on a device
// whose block count is the benchmark argument, in both implementations:
// Arg(1) == 1 selects the original O(device)/O(owned) reference scans
// (Config::reference_scan_maintenance), Arg(1) == 0 the incremental
// indices. The interesting read-out is the growth ACROSS the block-count
// range: the scan rows grow linearly, the index rows must stay flat.
// Decisions are bit-identical between the two modes (see
// docs/PERFORMANCE.md); here only the per-call cost differs.
//
// The harness populates a SubpagePool at level 0 with one live subpage per
// page and never expires or unbalances anything, so every timed call is the
// no-eviction fast path -- pure traversal/index overhead, no flash work.

/// A standalone subpage region on an 8-chip device: Arg blocks per chip,
/// half given to the pool. Kept small enough that setup (one write per
/// page of every owned block) stays in the low milliseconds.
struct MaintHarness final : ftl::EvictionTarget {
  nand::Geometry geo;
  std::unique_ptr<nand::NandDevice> dev;
  std::unique_ptr<ftl::BlockAllocator> allocator;
  ftl::FtlStats stats;
  std::unique_ptr<ftl::SubpagePool> pool;
  SimTime now = 0.0;

  MaintHarness(std::uint32_t blocks_per_chip, bool reference_scan) {
    geo.channels = 4;
    geo.chips_per_channel = 2;
    geo.blocks_per_chip = blocks_per_chip;
    geo.pages_per_block = 64;
    dev = std::make_unique<nand::NandDevice>(geo);
    allocator = std::make_unique<ftl::BlockAllocator>(geo);
    ftl::SubpagePool::Config cfg;
    cfg.quota_blocks = geo.total_blocks() / 2;
    cfg.retention_evict_age = 15 * sim_time::kDay;
    cfg.reference_scan_maintenance = reference_scan;
    // One live subpage per page of every quota block (level 0 fills the
    // 0th slot of each page before any block advances).
    const std::uint64_t sectors = cfg.quota_blocks * geo.pages_per_block;
    pool = std::make_unique<ftl::SubpagePool>(*dev, *allocator, cfg, stats,
                                              sectors, *this);
    for (std::uint64_t s = 0; s < sectors; ++s) {
      now = pool->try_write_sector(s, ftl::make_token(s, 1), now).value();
      now += 1.0;  // distinct written_at per page
    }
  }

  /// Evictions (none fire in these benchmarks) go nowhere.
  SimTime merge_sectors(std::span<const ftl::SectorWrite>,
                        SimTime t) override {
    return t;
  }
};

void BM_MaintRetentionScan(benchmark::State& state) {
  MaintHarness h(static_cast<std::uint32_t>(state.range(0)),
                 state.range(1) != 0);
  // Well before any page's eviction age: every call scans and finds
  // nothing (the steady state between expiry waves).
  const SimTime at = h.now + sim_time::kDay;
  for (auto _ : state) benchmark::DoNotOptimize(h.pool->retention_scan(at));
  state.SetLabel(state.range(1) ? "scan" : "index");
}
BENCHMARK(BM_MaintRetentionScan)
    ->ArgsProduct({{128, 512, 2048}, {1, 0}})
    ->Unit(benchmark::kMicrosecond);

void BM_MaintStaticWearLevel(benchmark::State& state) {
  MaintHarness h(static_cast<std::uint32_t>(state.range(0)),
                 state.range(1) != 0);
  // Uniform wear, huge threshold: the call locates the least-worn sealed
  // block and decides "balanced" -- the every-wl_check_interval fast path.
  for (auto _ : state)
    benchmark::DoNotOptimize(h.pool->static_wear_level(h.now, 1u << 30));
  state.SetLabel(state.range(1) ? "scan" : "index");
}
BENCHMARK(BM_MaintStaticWearLevel)
    ->ArgsProduct({{128, 512, 2048}, {1, 0}})
    ->Unit(benchmark::kMicrosecond);

void BM_MaintReleaseIdleBlocks(benchmark::State& state) {
  MaintHarness h(static_cast<std::uint32_t>(state.range(0)),
                 state.range(1) != 0);
  // Every owned block still holds valid data: each call is the "nothing to
  // release" probe the owning FTL issues whenever free blocks run low.
  for (auto _ : state)
    benchmark::DoNotOptimize(h.pool->release_idle_blocks(h.now));
  state.SetLabel(state.range(1) ? "scan" : "index");
}
BENCHMARK(BM_MaintReleaseIdleBlocks)
    ->ArgsProduct({{128, 512, 2048}, {1, 0}})
    ->Unit(benchmark::kMicrosecond);

// GC allocation churn (FullPagePool::collect_block): steady-state greedy GC
// driven by random full-page overwrites over a small logical space. Before
// recycled per-slot storage (today BlockPoolCore's owner slabs) and the
// pooled GC-token scratch, every collected block freed and re-grew its
// per-page vectors, so this benchmark's ns/op tracked the allocator; now
// the slabs recycle and the timed loop is allocation-free after warm-up.
void BM_FullPoolGcChurn(benchmark::State& state) {
  nand::Geometry geo;
  geo.channels = 4;
  geo.chips_per_channel = 2;
  geo.blocks_per_chip = 64;
  geo.pages_per_block = 64;
  nand::NandDevice dev(geo);
  ftl::BlockAllocator allocator(geo);
  ftl::FtlStats stats;
  const std::uint64_t lpns =
      geo.total_pages() * 7 / 10;  // 30% over-provisioning
  ftl::FullPagePool::Config cfg;
  cfg.reserve_free_blocks = 8;
  ftl::FullPagePool pool(dev, allocator, cfg, stats, lpns);
  std::vector<std::uint64_t> tokens(geo.subpages_per_page);
  util::Xoshiro256 rng(6);
  SimTime now = 0.0;
  auto write = [&](std::uint64_t lpn) {
    for (std::uint32_t s = 0; s < geo.subpages_per_page; ++s)
      tokens[s] = ftl::make_token(lpn * geo.subpages_per_page + s, 1);
    now = pool.write_page(lpn, tokens, now);
  };
  for (std::uint64_t lpn = 0; lpn < lpns; ++lpn) write(lpn);  // fill
  for (auto _ : state) write(rng.below(lpns));  // steady-state GC
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullPoolGcChurn);

// ---------------------------------------------------------------------------
// Device-state layout: random access over the whole device.
//
// Both benchmarks run on an 8-chip device with 64 pages per block and the
// argument's blocks per chip: 128 keeps the state within a few MiB (cache
// and TLB resident), 2,048 is prod geometry's block count per chip (the
// state spans tens of MiB, so every access is a cache and TLB miss). The
// growth between the two rows is what the flat page-record arena and the
// pools' owner slabs (docs/PERFORMANCE.md, "Flat device state") reduce.

nand::Geometry layout_geo(std::uint32_t blocks_per_chip) {
  nand::Geometry geo;
  geo.channels = 4;
  geo.chips_per_channel = 2;
  geo.blocks_per_chip = blocks_per_chip;
  geo.pages_per_block = 64;
  return geo;
}

// NandDevice::read_page of a random fully programmed page: one page-record
// decode plus the retention verdict of every slot.
void BM_DeviceReadPageRandom(benchmark::State& state) {
  const nand::Geometry geo =
      layout_geo(static_cast<std::uint32_t>(state.range(0)));
  nand::NandDevice dev(geo);
  const nand::AddressCodec codec(geo);
  std::vector<std::uint64_t> tokens(geo.subpages_per_page);
  for (std::uint64_t lin = 0; lin < geo.total_pages(); ++lin) {
    for (std::uint32_t s = 0; s < geo.subpages_per_page; ++s)
      tokens[s] = ftl::make_token(lin * geo.subpages_per_page + s, 1);
    dev.program_full(codec.decode_page(lin), tokens, 0.0);
  }
  util::Xoshiro256 rng(7);
  for (auto _ : state) {
    const auto ack =
        dev.read_page(codec.decode_page(rng.below(geo.total_pages())), 1.0);
    benchmark::DoNotOptimize(ack.token[0]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeviceReadPageRandom)->Arg(128)->Arg(2048);

/// A FullPagePool with 90% of the device's pages written once, and their
/// lpns in shuffled order.
struct FullPoolFill {
  explicit FullPoolFill(std::uint32_t blocks_per_chip)
      : geo(layout_geo(blocks_per_chip)),
        dev(geo),
        allocator(geo),
        pool(dev, allocator, ftl::FullPagePool::Config{}, stats,
             geo.total_pages() * 9 / 10) {
    std::vector<std::uint64_t> tokens(geo.subpages_per_page, 1);
    SimTime now = 0.0;
    for (std::uint64_t lpn = 0; lpn < pool.lpns(); ++lpn) {
      now = pool.write_page(lpn, tokens, now);
      lpns.push_back(lpn);
    }
    util::Xoshiro256 rng(8);
    for (std::size_t i = lpns.size(); i > 1; --i)
      std::swap(lpns[i - 1], lpns[rng.below(i)]);
  }

  nand::Geometry geo;
  nand::NandDevice dev;
  ftl::BlockAllocator allocator;
  ftl::FtlStats stats;
  ftl::FullPagePool pool;
  std::vector<std::uint64_t> lpns;
};

// FullPagePool::drop of a random live lpn: the map lookup, the owner-slab
// lookup, the valid-count update and the lazy victim-heap push that every
// cgmFTL overwrite pays. When every lpn is dropped the pool is rebuilt
// untimed.
void BM_FullPoolInvalidateRandom(benchmark::State& state) {
  const auto blocks = static_cast<std::uint32_t>(state.range(0));
  auto fill = std::make_unique<FullPoolFill>(blocks);
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == fill->lpns.size()) {
      state.PauseTiming();
      fill.reset();
      fill = std::make_unique<FullPoolFill>(blocks);
      next = 0;
      state.ResumeTiming();
    }
    fill->pool.drop(fill->lpns[next++]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullPoolInvalidateRandom)->Arg(128)->Arg(2048);

void BM_CellModelProgram(benchmark::State& state) {
  nand::WordLine wl(4, 8192, nand::CellModelParams{}, util::Xoshiro256(5));
  for (auto _ : state) {
    if (wl.slots_programmed() == 4) wl.erase();
    wl.program_subpage_random(wl.slots_programmed());
  }
}
BENCHMARK(BM_CellModelProgram);

}  // namespace

BENCHMARK_MAIN();
