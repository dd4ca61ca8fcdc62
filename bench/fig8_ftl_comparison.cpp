// Reproduces paper Fig. 8: cgmFTL vs fgmFTL vs subFTL across the five
// evaluation benchmarks.
//   (a) normalized IOPS (per benchmark, cgmFTL = 1.0)
//   (b) normalized GC invocations (fgmFTL vs subFTL)
//
// Each benchmark profile matches the paper's reported characteristics
// (fraction of small writes, sync-heaviness -- see workload/profiles.cpp),
// and every FTL runs the identical request stream after identical
// preconditioning. The key published claims this regenerates:
//   * subFTL improves IOPS by up to 249%/74% (avg 121%/35%) over
//     cgmFTL/fgmFTL;
//   * gains are large for the sync-small-heavy Sysbench/Varmail/Postmark
//     and modest (~10-20%) for YCSB/TPC-C;
//   * subFTL's GC invocations drop dramatically vs fgmFTL.
// The run exits 1 unless subFTL beats both baselines in IOPS and fgmFTL
// out-collects subFTL on Sysbench, Varmail and Postmark; YCSB/TPC-C are
// a known deviation (EXPERIMENTS.md) and stay ungated.
//
// The 15-cell grid runs on the parallel experiment runner (--jobs N); the
// per-cell numbers are bit-identical for every job count (see
// docs/PARALLEL_RUNNER.md). The --json payload separates the
// NON-deterministic "run" section (wall times, worker ids) from the
// bit-stable "benchmarks"/"summary" sections that CI diffs across --jobs.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/cli.h"
#include "core/parallel_runner.h"
#include "telemetry/json.h"
#include "util/table_printer.h"

namespace {

using namespace esp;

constexpr std::uint64_t kBaseSeed = 2017;

core::ExperimentCell make_cell(workload::Benchmark bench, core::FtlKind kind,
                               const core::GeometryOverrides& geo) {
  core::ExperimentCell cell;
  cell.key = "fig8/" + workload::benchmark_name(bench) + "/" +
             core::ftl_kind_name(kind);
  cell.spec.ssd = bench::scaled_config(kind);
  cell.spec.ssd.geometry = geo.apply(cell.spec.ssd.geometry);

  // Seed per BENCHMARK, not per cell: every FTL of a benchmark must see
  // the identical request stream (the paper's comparison methodology).
  // Derived from the stable benchmark key, never from grid order.
  auto params = workload::benchmark_profile(
      bench, /*footprint=*/0, /*request_count=*/0,
      cell.spec.ssd.geometry.subpages_per_page,
      core::stable_cell_seed("fig8/" + workload::benchmark_name(bench),
                             kBaseSeed));
  cell.spec.warmup_requests = bench::requests_writing(params, 120000);
  params.request_count =
      cell.spec.warmup_requests + bench::requests_writing(params, 60000);
  cell.spec.workload = params;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  unsigned jobs = 0;    // 0 = hardware concurrency
  unsigned shards = 1;  // >1 = shared-nothing intra-cell sharding
  core::ObserveSpec observe;
  core::GeometryOverrides geo;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json") {
        json_out = core::flag_value(argc, argv, i);
      } else if (arg == "--jobs") {
        jobs = core::number_flag<unsigned>(argc, argv, i);
      } else if (arg == "--shards") {
        shards = core::number_flag<unsigned>(argc, argv, i);
      } else if (!observe.parse_flag(argc, argv, i) &&
                 !geo.parse_flag(argc, argv, i)) {
        std::fprintf(stderr,
                     "usage: %s [--json PATH] [--jobs N] [--shards N]\n"
                     "          %s\n          %s\n",
                     argv[0], core::ObserveSpec::kUsage,
                     core::GeometryOverrides::kUsage);
        return 2;
      }
    }
    bench::print_header(
        "Fig. 8 -- cgmFTL vs fgmFTL vs subFTL on 5 benchmarks",
        geo.apply(bench::scaled_geometry()));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  const auto kinds = {core::FtlKind::kCgm, core::FtlKind::kFgm,
                      core::FtlKind::kSub};
  std::vector<core::ExperimentCell> cells;
  for (const auto bench : workload::all_benchmarks()) {
    for (const auto kind : kinds) {
      auto cell = make_cell(bench, kind, geo);
      cell.spec.observe = observe.for_cell(cell.key);
      // Grid cells are the parallelism unit; a sharded cell runs its
      // shards serially on its own worker (results identical either way).
      cell.spec.shards = shards;
      cell.spec.shard_jobs = 1;
      cells.push_back(std::move(cell));
    }
  }

  core::ParallelRunner runner(jobs);
  const auto results = runner.run(cells);
  std::printf("ran %zu cells on %u worker(s) in %.1fs\n", cells.size(),
              runner.manifest().jobs_used, runner.manifest().wall_seconds);

  std::map<std::pair<workload::Benchmark, core::FtlKind>, core::RunResult>
      grid;
  {
    std::size_t i = 0;
    for (const auto bench : workload::all_benchmarks()) {
      for (const auto kind : kinds) {
        const auto& cell = results[i++];
        if (!cell.ok) {
          std::fprintf(stderr, "FATAL: cell %s failed: %s\n",
                       cell.key.c_str(), cell.error.c_str());
          return 1;
        }
        if (core::lost_data(cell.result, cell.key)) return 1;
        grid[{bench, kind}] = cell.result;
      }
    }
  }

  std::printf("\n(a) Normalized IOPS (cgmFTL = 1.0 per benchmark)\n\n");
  util::TablePrinter iops_table(
      {"benchmark", "cgmFTL", "fgmFTL", "subFTL", "sub/fgm gain"});
  double sum_vs_cgm = 0.0, sum_vs_fgm = 0.0;
  double max_vs_cgm = 0.0, max_vs_fgm = 0.0;
  for (const auto bench : workload::all_benchmarks()) {
    const double cgm = grid[{bench, core::FtlKind::kCgm}].raw.host_mb_per_sec;
    const double fgm = grid[{bench, core::FtlKind::kFgm}].raw.host_mb_per_sec;
    const double sub = grid[{bench, core::FtlKind::kSub}].raw.host_mb_per_sec;
    iops_table.add_row({workload::benchmark_name(bench),
                        util::TablePrinter::num(1.0, 2),
                        util::TablePrinter::num(fgm / cgm, 2),
                        util::TablePrinter::num(sub / cgm, 2),
                        util::TablePrinter::pct(sub / fgm - 1.0, 1)});
    sum_vs_cgm += sub / cgm - 1.0;
    sum_vs_fgm += sub / fgm - 1.0;
    max_vs_cgm = std::max(max_vs_cgm, sub / cgm - 1.0);
    max_vs_fgm = std::max(max_vs_fgm, sub / fgm - 1.0);
  }
  iops_table.print(std::cout);
  std::printf(
      "\nsubFTL IOPS improvement: up to %s / avg %s over cgmFTL, "
      "up to %s / avg %s over fgmFTL\n"
      "(paper: up to 249.2%% / avg 120.8%% over cgmFTL, "
      "up to 74.3%% / avg 35.1%% over fgmFTL)\n",
      util::TablePrinter::pct(max_vs_cgm, 1).c_str(),
      util::TablePrinter::pct(sum_vs_cgm / 5.0, 1).c_str(),
      util::TablePrinter::pct(max_vs_fgm, 1).c_str(),
      util::TablePrinter::pct(sum_vs_fgm / 5.0, 1).c_str());

  std::printf("\n(b) GC invocations over the measured window\n\n");
  util::TablePrinter gc_table({"benchmark", "fgmFTL", "subFTL",
                               "fgm/sub ratio", "erases fgm", "erases sub"});
  for (const auto bench : workload::all_benchmarks()) {
    const auto& fgm = grid[{bench, core::FtlKind::kFgm}].raw;
    const auto& sub = grid[{bench, core::FtlKind::kSub}].raw;
    const std::uint64_t fgm_gc = fgm.ftl_stats.gc_invocations;
    const std::uint64_t sub_gc = sub.ftl_stats.gc_invocations;
    const double ratio = sub_gc ? static_cast<double>(fgm_gc) /
                                      static_cast<double>(sub_gc)
                                : 0.0;
    gc_table.add_row({workload::benchmark_name(bench),
                      std::to_string(fgm_gc), std::to_string(sub_gc),
                      util::TablePrinter::num(ratio, 2),
                      std::to_string(fgm.erases_during_run),
                      std::to_string(sub.erases_during_run)});
  }
  gc_table.print(std::cout);

  // The paper's claims this reproduction meets are gated: on the sync-
  // small-heavy benchmarks subFTL out-runs both baselines (Fig. 8(a)) and
  // invokes GC less often than fgmFTL (Fig. 8(b)). YCSB/TPC-C land near
  // parity, not at the paper's +19.3%/+10.3% over cgmFTL, for the reasons
  // EXPERIMENTS.md gives; they are reported, not gated.
  std::printf("\nPaper claims (Fig. 8):\n");
  bool claims_hold = true;
  for (const auto bench : workload::all_benchmarks()) {
    const std::string name = workload::benchmark_name(bench);
    const auto& cgm = grid[{bench, core::FtlKind::kCgm}].raw;
    const auto& fgm = grid[{bench, core::FtlKind::kFgm}].raw;
    const auto& sub = grid[{bench, core::FtlKind::kSub}].raw;
    const double vs_cgm = sub.host_mb_per_sec / cgm.host_mb_per_sec;
    const double vs_fgm = sub.host_mb_per_sec / fgm.host_mb_per_sec;
    if (bench == workload::Benchmark::kYcsb ||
        bench == workload::Benchmark::kTpcc) {
      std::printf("  %-8s sub/cgm IOPS %.2f, sub/fgm %.2f: known deviation "
                  "from the paper's gain, not gated (EXPERIMENTS.md)\n",
                  name.c_str(), vs_cgm, vs_fgm);
      continue;
    }
    const bool faster = vs_cgm > 1.0 && vs_fgm > 1.0;
    const bool fewer_gc =
        fgm.ftl_stats.gc_invocations > sub.ftl_stats.gc_invocations;
    std::printf("  %-8s sub/cgm IOPS %.2f, sub/fgm %.2f, GC fgm %llu > sub "
                "%llu: %s\n",
                name.c_str(), vs_cgm, vs_fgm,
                static_cast<unsigned long long>(fgm.ftl_stats.gc_invocations),
                static_cast<unsigned long long>(sub.ftl_stats.gc_invocations),
                faster && fewer_gc ? "PASS" : "FAIL");
    if (!faster)
      std::fprintf(stderr,
                   "FATAL: %s: subFTL IOPS does not beat both cgmFTL and "
                   "fgmFTL (Fig. 8(a))\n",
                   name.c_str());
    if (!fewer_gc)
      std::fprintf(stderr,
                   "FATAL: %s: fgmFTL GC invocations do not exceed subFTL's "
                   "(Fig. 8(b))\n",
                   name.c_str());
    claims_hold &= faster && fewer_gc;
  }

  if (!json_out.empty()) {
    std::ofstream os(json_out);
    if (!os) {
      std::fprintf(stderr, "failed to open %s\n", json_out.c_str());
      return 1;
    }
    telemetry::JsonWriter w(os);
    w.begin_object();
    w.kv("figure", "fig8_ftl_comparison");
    w.newline();
    // Host-side provenance: wall times and worker ids vary run to run.
    // Determinism checks must diff "benchmarks" and "summary" only.
    w.key("run");
    w.begin_object();
    w.kv("jobs", static_cast<std::uint64_t>(runner.manifest().jobs_used));
    w.kv("shards", static_cast<std::uint64_t>(shards));
    w.kv("base_seed", kBaseSeed);
    w.kv("wall_seconds", runner.manifest().wall_seconds);
    w.end_object();
    w.newline();
    w.key("benchmarks");
    w.begin_object();
    for (const auto bench : workload::all_benchmarks()) {
      w.newline();
      w.key(workload::benchmark_name(bench));
      w.begin_object();
      const double cgm =
          grid[{bench, core::FtlKind::kCgm}].raw.host_mb_per_sec;
      for (const auto kind : kinds) {
        const core::RunResult& r = grid[{bench, kind}];
        w.key(core::ftl_kind_name(kind));
        w.begin_object();
        w.kv("host_mb_per_sec", r.raw.host_mb_per_sec);
        w.kv("normalized_iops", cgm > 0.0 ? r.raw.host_mb_per_sec / cgm : 0.0);
        w.kv("gc_invocations", r.raw.ftl_stats.gc_invocations);
        w.kv("erases", r.raw.erases_during_run);
        // Observability health of the measurement itself: nonzero drops or
        // truncation mean the trace/journal under-reports this cell.
        w.kv("trace_dropped", r.sidecars.trace_dropped);
        w.kv("journal_events", r.sidecars.journal_events);
        w.kv("journal_truncated", r.sidecars.journal_truncated);
        w.kv("chip_util", r.raw.chip_util_mean);
        w.kv("channel_util", r.raw.channel_util_mean);
        w.end_object();
      }
      w.end_object();
    }
    w.end_object();
    w.newline();
    w.key("summary");
    w.begin_object();
    w.kv("iops_gain_vs_cgm_max", max_vs_cgm);
    w.kv("iops_gain_vs_cgm_avg", sum_vs_cgm / 5.0);
    w.kv("iops_gain_vs_fgm_max", max_vs_fgm);
    w.kv("iops_gain_vs_fgm_avg", sum_vs_fgm / 5.0);
    w.end_object();
    w.end_object();
    os << "\n";
    std::printf("wrote %s\n", json_out.c_str());
  }
  return claims_hold ? 0 : 1;
}
