// Mail-server scenario (the paper's Varmail motivation): fsync-heavy small
// appends are the worst case for large-page NAND. Runs the same mail-spool
// workload through all three FTLs and reports throughput, latency, and a
// lifetime estimate from erase counts.
//
//   $ ./mail_server [requests]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/ssd.h"
#include "util/table_printer.h"
#include "workload/profiles.h"

int main(int argc, char** argv) {
  using namespace esp;

  const std::uint64_t requests =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 120000;

  core::SsdConfig base;
  base.geometry.channels = 8;
  base.geometry.chips_per_channel = 4;
  base.geometry.blocks_per_chip = 16;
  base.geometry.pages_per_block = 128;
  base.logical_fraction = 0.80;
  base.queue_depth = 128;

  std::printf("Mail-server workload (Varmail profile) on %s\n",
              base.geometry.describe().c_str());
  std::printf("%llu requests per FTL; ~95%% small writes, ~99%% fsync'd\n\n",
              static_cast<unsigned long long>(requests));

  util::TablePrinter t({"FTL", "host MB/s", "p50 us", "p99 us", "erases",
                        "est. lifetime vs cgm"});
  double cgm_erases = 0.0;
  for (const auto kind :
       {core::FtlKind::kCgm, core::FtlKind::kFgm, core::FtlKind::kSub}) {
    core::SsdConfig config = base;
    config.ftl = kind;
    core::Ssd ssd(config);
    ssd.precondition(0.78);  // the mail spool + cold files

    auto params = workload::benchmark_profile(
        workload::Benchmark::kVarmail,
        static_cast<std::uint64_t>(0.78 * ssd.logical_sectors()) / 4 * 4,
        requests, config.geometry.subpages_per_page);
    workload::SyntheticWorkload stream(params);
    const auto metrics = ssd.driver().run(stream, /*verify=*/true);
    if (metrics.verify_failures)
      std::fprintf(stderr, "verify failures on %s!\n",
                   ssd.ftl().name().c_str());

    if (kind == core::FtlKind::kCgm)
      cgm_erases = static_cast<double>(metrics.erases_during_run);
    const double lifetime =
        metrics.erases_during_run
            ? cgm_erases / static_cast<double>(metrics.erases_during_run)
            : 0.0;
    t.add_row({ssd.ftl().name(),
               util::TablePrinter::num(metrics.host_mb_per_sec, 1),
               util::TablePrinter::num(metrics.latency_p50_us, 0),
               util::TablePrinter::num(metrics.latency_p99_us, 0),
               std::to_string(metrics.erases_during_run),
               util::TablePrinter::num(lifetime, 2) + "x"});
  }
  t.print(std::cout);
  std::printf(
      "\nLifetime proxy: flash wears out by erases; fewer erases for the\n"
      "same mail traffic means proportionally longer device life.\n");
  return 0;
}
