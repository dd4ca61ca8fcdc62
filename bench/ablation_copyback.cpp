// Ablation: NAND copy-back for GC page moves (a device feature beyond the
// paper, common on the 2x-nm TLC parts it characterizes).
//
// A GC page move normally costs sense + 16-KB transfer out + 16-KB
// transfer in + program; copy-back keeps the data in the chip's page
// buffer, eliminating both transfers (~40 us each at 800 MB/s) and the
// channel occupancy they cause. This matters most where GC copies are
// heavy: cgmFTL under small-write churn.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "util/table_printer.h"

namespace {

using namespace esp;

core::RunResult run_one(core::FtlKind kind, bool copyback) {
  core::ExperimentSpec spec;
  spec.ssd = bench::scaled_config(kind);
  spec.ssd.use_copyback = copyback;
  spec.warmup_requests = 150000;
  spec.workload.request_count = spec.warmup_requests + 60000;
  spec.workload.r_small = 1.0;
  spec.workload.r_synch = 1.0;
  spec.workload.small_footprint_fraction = 0.10;  // GC-copy-heavy regime
  spec.workload.small_zipf_theta = 0.8;
  spec.workload.seed = 404;
  return core::run_experiment(spec);
}

}  // namespace

int main() {
  bench::print_header("Ablation -- copy-back GC page moves");

  util::TablePrinter t({"FTL", "plain GC MB/s", "copyback MB/s", "gain",
                        "GC copy sectors"});
  for (const auto kind :
       {core::FtlKind::kCgm, core::FtlKind::kSub, core::FtlKind::kSectorLog}) {
    const auto plain = run_one(kind, false);
    const auto fast = run_one(kind, true);
    if (core::lost_data(plain, plain.ftl_name) ||
        core::lost_data(fast, fast.ftl_name + " copyback"))
      return 1;
    const double plain_mbps = plain.raw.host_mb_per_sec;
    const double fast_mbps = fast.raw.host_mb_per_sec;
    t.add_row({core::ftl_kind_name(kind),
               util::TablePrinter::num(plain_mbps, 1),
               util::TablePrinter::num(fast_mbps, 1),
               util::TablePrinter::pct(fast_mbps / plain_mbps - 1.0, 1),
               std::to_string(fast.raw.ftl_stats.gc_copy_sectors)});
  }
  t.print(std::cout);
  std::printf(
      "\nExpected shape: the gain tracks GC copy volume -- largest for the\n"
      "RMW-bound cgmFTL, small for FTLs whose GC copies little. (fgmFTL's\n"
      "sector-repacking GC cannot use page copy-back and is omitted.)\n");
  return 0;
}
