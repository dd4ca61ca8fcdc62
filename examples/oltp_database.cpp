// OLTP scenario (TPC-C-like): a database mixing synchronous redo-log
// writes (small, latency-critical) with page-cleaner bulk writes and a
// read-heavy buffer pool. Shows where ESP helps (commit latency) and what
// it costs on bulk traffic, with per-FTL latency percentiles.
//
//   $ ./oltp_database [requests]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/ssd.h"
#include "util/table_printer.h"
#include "workload/profiles.h"

int main(int argc, char** argv) {
  using namespace esp;

  const std::uint64_t requests =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 60000;

  core::SsdConfig base;
  base.geometry.channels = 8;
  base.geometry.chips_per_channel = 4;
  base.geometry.blocks_per_chip = 16;
  base.geometry.pages_per_block = 128;
  base.logical_fraction = 0.80;
  base.queue_depth = 128;

  std::printf("OLTP workload (TPC-C profile) on %s\n",
              base.geometry.describe().c_str());
  std::printf(
      "%llu requests per FTL; ~12%% small sync redo writes, 50%% reads\n\n",
      static_cast<unsigned long long>(requests));

  util::TablePrinter t({"FTL", "host MB/s", "p50 us", "p99 us",
                        "GC invocations", "req WAF (small)"});
  for (const auto kind :
       {core::FtlKind::kCgm, core::FtlKind::kFgm, core::FtlKind::kSub}) {
    core::SsdConfig config = base;
    config.ftl = kind;
    core::Ssd ssd(config);
    ssd.precondition(0.78);  // tablespaces

    auto params = workload::benchmark_profile(
        workload::Benchmark::kTpcc,
        static_cast<std::uint64_t>(0.78 * ssd.logical_sectors()) / 4 * 4,
        requests, config.geometry.subpages_per_page);
    workload::SyntheticWorkload stream(params);
    const auto metrics = ssd.driver().run(stream, /*verify=*/true);
    if (metrics.verify_failures)
      std::fprintf(stderr, "verify failures on %s!\n",
                   ssd.ftl().name().c_str());

    t.add_row({ssd.ftl().name(),
               util::TablePrinter::num(metrics.host_mb_per_sec, 1),
               util::TablePrinter::num(metrics.latency_p50_us, 0),
               util::TablePrinter::num(metrics.latency_p99_us, 0),
               std::to_string(metrics.ftl_stats.gc_invocations),
               util::TablePrinter::num(metrics.small_request_waf, 3)});
  }
  t.print(std::cout);
  std::printf(
      "\nThe redo-log fsyncs dominate commit latency: under ESP each one is\n"
      "a single 4-KB subpage program instead of a 16-KB read-modify-write\n"
      "(cgm) or a padded 16-KB page (fgm) -- compare the request WAF.\n");
  return 0;
}
