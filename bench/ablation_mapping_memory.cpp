// Ablation: L2P mapping DRAM footprint (paper Sec. 1/4: subFTL
// "significantly reduced the L2P mapping memory requirement over the FGM
// scheme" by managing the two regions with different mapping methods).
//
// Reports modeled mapping bytes for the three FTLs at the bench geometry
// and extrapolates to the paper's 16-GB device and a 512-GB product, after
// populating subFTL's hash with a sync-small-heavy workload (the hash is
// bounded by one valid subpage per region page).
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "util/table_printer.h"

int main() {
  using namespace esp;
  bench::print_header("Ablation -- L2P mapping memory (CGM vs FGM vs subFTL)");

  util::TablePrinter t({"FTL", "mapping bytes @1GiB", "per logical GB",
                        "extrapolated @16GB", "@512GB"});
  double per_gb[3] = {};
  int idx = 0;
  for (const auto kind :
       {core::FtlKind::kCgm, core::FtlKind::kFgm, core::FtlKind::kSub}) {
    core::ExperimentSpec spec;
    spec.ssd = bench::scaled_config(kind);
    auto params = workload::benchmark_profile(
        workload::Benchmark::kSysbench, 0, 0,
        spec.ssd.geometry.subpages_per_page, 2017);
    spec.warmup_requests = 0;
    params.request_count = 120000;  // populate the hash to steady state
    spec.workload = params;
    spec.verify = false;
    const auto result = core::run_experiment(spec);
    // Verify is off here, so this catches read errors only.
    if (core::lost_data(result, result.ftl_name)) return 1;

    const double logical_gb =
        static_cast<double>(spec.ssd.logical_sectors()) * 4096.0 /
        (1024.0 * 1024.0 * 1024.0);
    per_gb[idx] = static_cast<double>(result.mapping_bytes) / logical_gb;
    auto mb_at = [&](double gb) {
      return util::TablePrinter::num(per_gb[idx] * gb / (1024.0 * 1024.0),
                                     1) + " MiB";
    };
    t.add_row({result.ftl_name,
               std::to_string(result.mapping_bytes),
               util::TablePrinter::num(per_gb[idx] / 1024.0, 0) + " KiB",
               mb_at(16.0), mb_at(512.0)});
    ++idx;
  }
  t.print(std::cout);
  std::printf(
      "\nExpected shape: FGM needs Nsub (= 4) x the CGM table; subFTL sits\n"
      "close to CGM because only the 20%% subpage region is fine-mapped and\n"
      "its hash is bounded by one valid subpage per physical page.\n"
      "ordering check (cgm < sub < fgm): %s\n",
      (per_gb[0] < per_gb[2] && per_gb[2] < per_gb[1]) ? "PASS" : "FAIL");
  return (per_gb[0] < per_gb[2] && per_gb[2] < per_gb[1]) ? 0 : 1;
}
