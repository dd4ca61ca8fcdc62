// Extension bench: synchronous-write latency distributions.
//
// The paper reports IOPS and GC counts; for latency-sensitive systems
// (databases committing transactions) the distribution matters too. A
// sync 4-KB write costs:
//   cgmFTL      read 16-KB + program 16-KB (~1.8 ms) + GC stalls
//   fgmFTL      program 16-KB (~1.65 ms) + GC stalls
//   sectorLog   program 16-KB (~1.65 ms) + merge stalls
//   subFTL      program 4-KB subpage (~1.3 ms) + rare forwarding chains
// This bench measures the full percentile profile per FTL under the
// Sysbench-like sync-small stream.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "util/table_printer.h"

int main() {
  using namespace esp;
  bench::print_header(
      "Extension -- sync small-write latency percentiles per FTL");

  util::TablePrinter t({"FTL", "p50 us", "p95 us", "p99 us", "max-ish us",
                        "MB/s"});
  for (const auto kind :
       {core::FtlKind::kCgm, core::FtlKind::kFgm, core::FtlKind::kSectorLog,
        core::FtlKind::kSub}) {
    core::SsdConfig config = bench::scaled_config(kind);
    core::Ssd ssd(config);
    ssd.precondition(0.78);

    workload::SyntheticParams params;
    params.footprint_sectors =
        static_cast<std::uint64_t>(0.78 * ssd.logical_sectors()) / 4 * 4;
    params.request_count = 200000;
    params.r_small = 1.0;
    params.r_synch = 1.0;
    params.small_footprint_fraction = 0.018;
    params.seed = 99;
    workload::SyntheticWorkload stream(params);
    // The profile covers this run's requests only: the window histogram
    // excludes the preconditioning fill.
    const auto metrics = ssd.driver().run(stream, /*verify=*/false);
    const auto& hist = metrics.latency_hist;
    t.add_row({core::ftl_kind_name(kind),
               util::TablePrinter::num(hist.percentile(0.50), 0),
               util::TablePrinter::num(hist.percentile(0.95), 0),
               util::TablePrinter::num(hist.percentile(0.99), 0),
               util::TablePrinter::num(hist.percentile(0.9999), 0),
               util::TablePrinter::num(metrics.host_mb_per_sec, 1)});
  }
  t.print(std::cout);
  std::printf(
      "\nExpected shape: subFTL's median tracks the 1300-us subpage program\n"
      "and its tail is the shortest (GC is rare and cheap); cgmFTL pays the\n"
      "extra page read at the median AND the heaviest GC tail.\n");
  return 0;
}
