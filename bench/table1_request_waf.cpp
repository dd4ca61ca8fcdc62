// Reproduces paper Table 1: detailed analysis of subFTL.
//   row 1 -- % of small writes per benchmark
//   row 2 -- average request WAF of small writes in subFTL
//
// The paper's claim: the request WAF stays within ~1.003-1.008 of the
// ideal 1.0 -- subFTL avoids essentially all internal fragmentation, with
// only the small extra I/O of in-region migrations and cold evictions.
//
// The five cells run on the parallel experiment runner (--jobs N); the
// JSON's "benchmarks"/"pass" payload is bit-identical for every job count,
// only the "run" section (wall times) varies.
#include <cstdio>
#include <fstream>
#include <iostream>
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

/// Share of host write requests that were small writes.
double small_write_fraction(const ftl::FtlStats& stats) {
  return stats.host_write_requests
             ? static_cast<double>(stats.small_write_requests) /
                   static_cast<double>(stats.host_write_requests)
             : 0.0;
}

core::ExperimentCell make_cell(workload::Benchmark bench,
                               const core::GeometryOverrides& geo) {
  core::ExperimentCell cell;
  cell.key = "table1/" + workload::benchmark_name(bench);
  cell.spec.ssd = bench::scaled_config(core::FtlKind::kSub);
  cell.spec.ssd.geometry = geo.apply(cell.spec.ssd.geometry);
  // Seed derived from the cell's stable key (matches fig8's per-benchmark
  // stream seeding), never from grid order.
  auto params = workload::benchmark_profile(
      bench, 0, 0, cell.spec.ssd.geometry.subpages_per_page,
      core::stable_cell_seed(cell.key, kBaseSeed));
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
    bench::print_header("Table 1 -- Detailed analysis of subFTL",
                        geo.apply(bench::scaled_geometry()));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::vector<core::ExperimentCell> cells;
  for (const auto bench : workload::all_benchmarks()) {
    auto cell = make_cell(bench, geo);
    cell.spec.observe = observe.for_cell(cell.key);
    // Grid cells are the parallelism unit; a sharded cell runs its shards
    // serially on its own worker (results identical either way).
    cell.spec.shards = shards;
    cell.spec.shard_jobs = 1;
    cells.push_back(std::move(cell));
  }

  core::ParallelRunner runner(jobs);
  const auto results = runner.run(cells);
  std::printf("ran %zu cells on %u worker(s) in %.1fs\n", cells.size(),
              runner.manifest().jobs_used, runner.manifest().wall_seconds);

  util::TablePrinter t({"", "Sysbench", "Varmail", "Postmark", "YCSB",
                        "TPC-C"});
  std::vector<std::string> pct_row = {"% of small write"};
  std::vector<std::string> waf_row = {"average request WAF"};
  bool all_near_one = true;
  for (const auto& cell : results) {
    if (!cell.ok) {
      std::fprintf(stderr, "FATAL: cell %s failed: %s\n", cell.key.c_str(),
                   cell.error.c_str());
      return 1;
    }
    if (core::lost_data(cell.result, cell.key)) return 1;
    pct_row.push_back(util::TablePrinter::pct(
        small_write_fraction(cell.result.raw.ftl_stats), 1));
    waf_row.push_back(
        util::TablePrinter::num(cell.result.raw.small_request_waf, 3));
    all_near_one &= cell.result.raw.small_request_waf < 1.25;
  }
  t.add_row(pct_row);
  t.add_row(waf_row);
  t.print(std::cout);

  if (!json_out.empty()) {
    std::ofstream os(json_out);
    if (!os) {
      std::fprintf(stderr, "failed to open %s\n", json_out.c_str());
      return 1;
    }
    telemetry::JsonWriter w(os);
    w.begin_object();
    w.kv("table", "table1_request_waf");
    w.newline();
    // Non-deterministic provenance; determinism checks diff "benchmarks"
    // and "pass" only.
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
    std::size_t i = 0;
    for (const auto bench : workload::all_benchmarks()) {
      const core::RunResult& r = results[i++].result;
      w.newline();
      w.key(workload::benchmark_name(bench));
      w.begin_object();
      w.kv("small_write_fraction", small_write_fraction(r.raw.ftl_stats));
      w.kv("request_waf", r.raw.small_request_waf);
      w.kv("verify_failures", r.raw.verify_failures);
      // Observability health of the measurement itself: nonzero drops or
      // truncation mean the trace/journal under-reports this cell.
      w.kv("trace_dropped", r.sidecars.trace_dropped);
      w.kv("journal_events", r.sidecars.journal_events);
      w.kv("journal_truncated", r.sidecars.journal_truncated);
      w.end_object();
    }
    w.end_object();
    w.newline();
    w.kv("pass", all_near_one);
    w.end_object();
    os << "\n";
    std::printf("wrote %s\n", json_out.c_str());
  }

  std::printf(
      "\nPaper Table 1:  %% small writes 99.7 / 95.3 / 99.9 / 19.3 / 11.8;\n"
      "request WAF 1.005 / 1.007 / 1.003 / 1.005 / 1.008.\n"
      "The WAF exceeds 1.0 only by in-region migrations of long-lived\n"
      "subpages and evictions of cold subpages to the full-page region.\n");
  std::printf("shape check (WAF ~= 1 for every benchmark): %s\n",
              all_near_one ? "PASS" : "FAIL");
  return all_near_one ? 0 : 1;
}
