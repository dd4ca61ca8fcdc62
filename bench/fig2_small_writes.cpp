// Reproduces paper Fig. 2: effect of small writes on the CGM and FGM
// baselines.
//   (a) normalized IOPS vs r_small for r_synch in {0, 0.3, 0.5, 1}
//   (b) normalized number of GC invocations (FGM) over the same sweep
//
// Methodology notes:
//   * every sweep point transfers the same HOST DATA volume (the paper's
//     benchmarks run fixed working sets), so "normalized IOPS" is the
//     normalized host data rate;
//   * IOPS is normalized to the FGM scheme at r_small = r_synch = 0 (the
//     fastest point), GC invocations to FGM at r_small = r_synch = 1 (the
//     worst point), exactly as in the paper.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/table_printer.h"

namespace {

using namespace esp;

constexpr std::uint64_t kWarmupSectors = 120000;   // ~470 MB
constexpr std::uint64_t kMeasureSectors = 60000;   // ~235 MB

struct Cell {
  double throughput = 0.0;  // host MB/s
  std::uint64_t gc = 0;
};

std::uint64_t requests_for(double r_small, std::uint64_t budget_sectors) {
  const double avg_sectors = r_small * 1.0 + (1.0 - r_small) * 4.0;
  return static_cast<std::uint64_t>(
      static_cast<double>(budget_sectors) / avg_sectors);
}

Cell run_point(core::FtlKind kind, double r_small, double r_synch) {
  core::ExperimentSpec spec;
  spec.ssd = bench::scaled_config(kind);
  spec.warmup_requests = requests_for(r_small, kWarmupSectors);
  spec.workload.request_count =
      spec.warmup_requests + requests_for(r_small, kMeasureSectors);
  spec.workload.r_small = r_small;
  spec.workload.r_synch = r_synch;
  spec.workload.read_fraction = 0.0;  // Fig. 2 sweeps writes only
  spec.workload.small_zipf_theta = 0.9;
  // Sysbench-style file I/O is not page-aligned; this reproduces the CGM
  // gap at r_small = 0 explained in the paper's footnote 1.
  spec.workload.large_align_prob = 0.5;
  spec.workload.seed = 20170618;
  const auto result = core::run_experiment(spec);
  if (core::lost_data(result, result.ftl_name + " r_small=" +
                                   util::TablePrinter::num(r_small, 1)))
    std::exit(1);
  return Cell{result.raw.host_mb_per_sec,
              result.raw.ftl_stats.gc_invocations};
}

}  // namespace

int main() {
  bench::print_header(
      "Fig. 2 -- Effects of small writes (CGM vs FGM baselines)");

  const std::vector<double> r_smalls = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  const std::vector<double> r_synchs = {0.0, 0.3, 0.5, 1.0};

  std::map<std::pair<int, int>, Cell> fgm, cgm;
  for (std::size_t i = 0; i < r_smalls.size(); ++i) {
    for (std::size_t j = 0; j < r_synchs.size(); ++j) {
      fgm[{int(i), int(j)}] =
          run_point(core::FtlKind::kFgm, r_smalls[i], r_synchs[j]);
      cgm[{int(i), int(j)}] =
          run_point(core::FtlKind::kCgm, r_smalls[i], r_synchs[j]);
    }
  }

  const double iops_base = fgm[{0, 0}].throughput;
  const double gc_base =
      static_cast<double>(fgm[{int(r_smalls.size()) - 1,
                               int(r_synchs.size()) - 1}].gc);

  auto grid_header = [&] {
    std::vector<std::string> h = {"r_small"};
    for (const double rs : r_synchs)
      h.push_back("r_synch(" + util::TablePrinter::num(rs, 1) + ")");
    return h;
  };

  std::printf("\n(a) Normalized IOPS (1.0 = FGM @ r_small=0, r_synch=0)\n\n");
  for (const auto* scheme : {"FGM", "CGM"}) {
    auto& grid = std::string(scheme) == "FGM" ? fgm : cgm;
    std::printf("--- %s ---\n", scheme);
    util::TablePrinter t(grid_header());
    for (std::size_t i = 0; i < r_smalls.size(); ++i) {
      std::vector<std::string> row = {util::TablePrinter::num(r_smalls[i], 1)};
      for (std::size_t j = 0; j < r_synchs.size(); ++j)
        row.push_back(util::TablePrinter::num(
            grid[{int(i), int(j)}].throughput / iops_base, 3));
      t.add_row(row);
    }
    t.print(std::cout);
    std::printf("\n");
  }

  std::printf(
      "(b) Normalized GC invocations in FGM "
      "(1.0 = FGM @ r_small=1, r_synch=1)\n\n");
  util::TablePrinter t(grid_header());
  for (std::size_t i = 0; i < r_smalls.size(); ++i) {
    std::vector<std::string> row = {util::TablePrinter::num(r_smalls[i], 1)};
    for (std::size_t j = 0; j < r_synchs.size(); ++j)
      row.push_back(util::TablePrinter::num(
          static_cast<double>(fgm[{int(i), int(j)}].gc) / gc_base, 3));
    t.add_row(row);
  }
  t.print(std::cout);

  // Footnote 2 of the paper: "the result for the CGM scheme is very
  // similar" -- print it so the claim is checkable here.
  std::printf(
      "\n(b') Normalized GC invocations in CGM (same normalization)\n\n");
  util::TablePrinter tc(grid_header());
  for (std::size_t i = 0; i < r_smalls.size(); ++i) {
    std::vector<std::string> row = {util::TablePrinter::num(r_smalls[i], 1)};
    for (std::size_t j = 0; j < r_synchs.size(); ++j)
      row.push_back(util::TablePrinter::num(
          static_cast<double>(cgm[{int(i), int(j)}].gc) / gc_base, 3));
    tc.add_row(row);
  }
  tc.print(std::cout);

  std::printf(
      "\nExpected shape (paper): IOPS falls as r_small and r_synch rise;\n"
      "CGM sits well below FGM everywhere (RMW-dominated) including the\n"
      "r_small=0 gap caused by misaligned 16-KB writes; FGM GC invocations\n"
      "grow with r_small and r_synch.\n");
  return 0;
}
