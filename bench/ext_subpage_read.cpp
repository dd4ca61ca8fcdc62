// Extension bench: subpage READ operations (paper Sec. 7, future work).
//
// "If subpage read operations can be made faster than full-page reads, we
// believe that they can be useful for read latency-sensitive
// applications." The device model supports a reduced subpage-read array
// time (TimingSpec::read_sub_us); this bench quantifies the end-to-end
// benefit on a read-heavy small-I/O workload for subFTL (which reads 4-KB
// sectors from the subpage region) at several speedup factors.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "util/table_printer.h"

int main() {
  using namespace esp;
  bench::print_header(
      "Extension -- subpage reads (paper Sec. 7 future work)");

  util::TablePrinter t({"subpage tR", "MB/s", "speedup vs baseline"});
  double baseline = 0.0;
  for (const double tr_us : {90.0, 65.0, 45.0, 25.0}) {
    core::ExperimentSpec spec;
    spec.ssd = bench::scaled_config(core::FtlKind::kSub);
    spec.ssd.timing.read_sub_us = tr_us;
    auto params = workload::benchmark_profile(
        workload::Benchmark::kSysbench, 0, 0,
        spec.ssd.geometry.subpages_per_page, 2017);
    params.read_fraction = 0.7;  // read-latency-sensitive mix
    params.reads_follow_small = true;  // point reads of the hot small set
    spec.warmup_requests = 60000;
    params.request_count = spec.warmup_requests + 60000;
    spec.workload = params;
    const auto result = core::run_experiment(spec);
    if (core::lost_data(result, "subpage tR " +
                                     util::TablePrinter::num(tr_us, 0) + " us"))
      return 1;
    const double mbps = result.raw.host_mb_per_sec;
    if (baseline == 0.0) baseline = mbps;
    t.add_row({util::TablePrinter::num(tr_us, 0) + " us",
               util::TablePrinter::num(mbps, 1),
               util::TablePrinter::num(mbps / baseline, 2) + "x"});
  }
  t.print(std::cout);
  std::printf(
      "\nBaseline (90 us) equals the full-page tR -- the paper's current\n"
      "hardware. Faster subpage sensing shortens every subpage-region read\n"
      "and the forwarding reads of the ESP writing policy.\n");
  return 0;
}
