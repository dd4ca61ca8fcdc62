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
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/parallel_runner.h"
#include "telemetry/json.h"
#include "util/table_printer.h"

namespace {

using namespace esp;

constexpr std::uint64_t kBaseSeed = 2017;

struct Row {
  double small_pct = 0.0;
  double request_waf = 0.0;
  std::uint64_t verify_failures = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t journal_events = 0;
  std::uint64_t journal_truncated = 0;
};

core::ExperimentCell make_cell(workload::Benchmark bench,
                               const bench::GeometryOverrides& geo) {
  core::ExperimentCell cell;
  cell.key = "table1/" + workload::benchmark_name(bench);
  cell.spec.ssd = bench::scaled_config(core::FtlKind::kSub);
  cell.spec.ssd.geometry = geo.apply(cell.spec.ssd.geometry);
  // Seed derived from the cell's stable key (matches fig8's per-benchmark
  // stream seeding), never from grid order.
  auto params = workload::benchmark_profile(
      bench, 0, 0, cell.spec.ssd.geometry.subpages_per_page,
      core::stable_cell_seed(cell.key, kBaseSeed));
  const double write_fraction = 1.0 - params.read_fraction;
  const double avg_large =
      0.5 * (params.large_pages_min + params.large_pages_max) *
      params.sectors_per_page;
  const double avg_small =
      0.5 * (params.small_sectors_min + params.small_sectors_max);
  const double avg_write =
      params.r_small * avg_small + (1.0 - params.r_small) * avg_large;
  const auto reqs = [&](double budget) {
    return static_cast<std::uint64_t>(budget / (write_fraction * avg_write));
  };
  cell.spec.warmup_requests = reqs(120000);
  params.request_count = cell.spec.warmup_requests + reqs(60000);
  cell.spec.workload = params;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  std::string journal_out;
  std::string forensics_out;
  std::uint32_t forensics_top = 16;
  bool audit = false;
  unsigned jobs = 0;    // 0 = hardware concurrency
  unsigned shards = 1;  // >1 = shared-nothing intra-cell sharding
  bench::GeometryOverrides geo;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--journal-out" && i + 1 < argc) {
      journal_out = argv[++i];
    } else if (arg == "--forensics-out" && i + 1 < argc) {
      forensics_out = argv[++i];
    } else if (arg == "--forensics-top" && i + 1 < argc) {
      forensics_top =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--audit") {
      audit = true;
    } else if (geo.parse_flag(argc, argv, i)) {
      // consumed a geometry override
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json PATH] [--jobs N] [--shards N] "
                   "[--journal-out PATH] [--forensics-out PATH] "
                   "[--forensics-top N] [--audit]\n          %s\n",
                   argv[0], bench::GeometryOverrides::kUsage);
      return 2;
    }
  }

  bench::print_header("Table 1 -- Detailed analysis of subFTL",
                      geo.apply(bench::scaled_geometry()));

  std::vector<core::ExperimentCell> cells;
  for (const auto bench : workload::all_benchmarks()) {
    auto cell = make_cell(bench, geo);
    if (!journal_out.empty())
      cell.spec.journal_path = core::cell_sidecar_path(journal_out, cell.key);
    if (!forensics_out.empty())
      cell.spec.forensics_path =
          core::cell_sidecar_path(forensics_out, cell.key);
    cell.spec.forensics_top = forensics_top;
    cell.spec.audit = audit;
    // Grid cells are the parallelism unit; a sharded cell runs its shards
    // serially on its own worker (results identical either way).
    cell.spec.shards = shards;
    cell.spec.shard_jobs = 1;
    cells.push_back(std::move(cell));
  }

  core::ParallelRunnerConfig runner_cfg;
  runner_cfg.jobs = jobs;
  runner_cfg.base_seed = kBaseSeed;
  runner_cfg.derive_seeds = false;  // seeds fixed per cell above
  core::ParallelRunner runner(runner_cfg);
  const auto results = runner.run(cells);
  std::printf("ran %zu cells on %u worker(s) in %.1fs\n", cells.size(),
              runner.manifest().jobs_used, runner.manifest().wall_seconds);

  util::TablePrinter t({"", "Sysbench", "Varmail", "Postmark", "YCSB",
                        "TPC-C"});
  std::vector<std::string> pct_row = {"% of small write"};
  std::vector<std::string> waf_row = {"average request WAF"};
  std::vector<std::pair<workload::Benchmark, Row>> rows;
  bool all_near_one = true;
  {
    std::size_t i = 0;
    for (const auto bench : workload::all_benchmarks()) {
      const auto& cell = results[i++];
      if (!cell.ok) {
        std::fprintf(stderr, "FATAL: cell %s failed: %s\n", cell.key.c_str(),
                     cell.error.c_str());
        return 1;
      }
      if (bench::lost_data(cell.result, cell.key)) return 1;
      const auto& stats = cell.result.raw.ftl_stats;
      Row row;
      row.small_pct = stats.host_write_requests
                          ? static_cast<double>(stats.small_write_requests) /
                                static_cast<double>(stats.host_write_requests)
                          : 0.0;
      row.request_waf = cell.result.small_request_waf;
      row.verify_failures = cell.result.verify_failures;
      row.trace_dropped = cell.result.trace_dropped;
      row.journal_events = cell.result.journal_events;
      row.journal_truncated = cell.result.journal_truncated;
      rows.emplace_back(bench, row);
      pct_row.push_back(util::TablePrinter::pct(row.small_pct, 1));
      waf_row.push_back(util::TablePrinter::num(row.request_waf, 3));
      all_near_one &= row.request_waf < 1.25;
    }
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
    for (const auto& [bench, row] : rows) {
      w.newline();
      w.key(workload::benchmark_name(bench));
      w.begin_object();
      w.kv("small_write_fraction", row.small_pct);
      w.kv("request_waf", row.request_waf);
      w.kv("verify_failures", row.verify_failures);
      // Observability health of the measurement itself: nonzero drops or
      // truncation mean the trace/journal under-reports this cell.
      w.kv("trace_dropped", row.trace_dropped);
      w.kv("journal_events", row.journal_events);
      w.kv("journal_truncated", row.journal_truncated);
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
