// Ablation: subpage-region size (the paper fixes it at 20% of flash).
//
// Sweeps the region fraction on a sync-small-heavy (Varmail-like) workload
// and reports throughput, GC, erases and the subFTL mapping footprint.
// Expected trade-off: a tiny region thrashes (evictions + forwarding), an
// oversized one taxes the full-page region's over-provisioning and DRAM.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "util/table_printer.h"

int main() {
  using namespace esp;
  bench::print_header(
      "Ablation -- subpage-region fraction (paper default: 0.20)");

  util::TablePrinter t({"region", "MB/s", "req WAF", "GC", "erases",
                        "forwards", "evictions", "mapping KiB"});
  for (const double fraction : {0.05, 0.10, 0.20, 0.30, 0.40}) {
    core::ExperimentSpec spec;
    spec.ssd = bench::scaled_config(core::FtlKind::kSub);
    spec.ssd.subpage_region_fraction = fraction;
    // Feasibility: logical + region quota must fit (see SubFtl); trim the
    // logical space for the largest regions.
    if (fraction > 0.2)
      spec.ssd.logical_fraction = 1.0 - fraction - 0.02;
    auto params = workload::benchmark_profile(
        workload::Benchmark::kVarmail, 0, 0,
        spec.ssd.geometry.subpages_per_page, 2017);
    spec.warmup_requests = 150000;
    params.request_count = spec.warmup_requests + 80000;
    spec.workload = params;
    const auto result = core::run_experiment(spec);
    if (core::lost_data(result,
                         "region " + util::TablePrinter::pct(fraction, 0)))
      return 1;
    const sim::RunMetrics& m = result.raw;
    const auto& stats = m.ftl_stats;
    t.add_row({util::TablePrinter::pct(fraction, 0),
               util::TablePrinter::num(m.host_mb_per_sec, 1),
               util::TablePrinter::num(m.small_request_waf, 3),
               std::to_string(stats.gc_invocations),
               std::to_string(m.erases_during_run),
               std::to_string(stats.forward_migrations),
               std::to_string(stats.cold_evictions +
                              stats.retention_evictions),
               util::TablePrinter::num(
                   static_cast<double>(result.mapping_bytes) / 1024.0, 0)});
  }
  t.print(std::cout);
  std::printf(
      "\nDesign insight (DESIGN.md): 20%% gives ESP headroom (low region\n"
      "occupancy -> cheap forwarding) without starving the full-page\n"
      "region's over-provisioning or growing the hash table.\n");
  return 0;
}
