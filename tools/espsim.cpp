// espsim: command-line experiment runner for the espnand simulator.
//
//   espsim --ftl sub --profile varmail --requests 100000
//   espsim --ftl fgm --r-small 1.0 --r-synch 0.5 --reads 0.2
//   espsim --ftl cgm,fgm,sub --profile varmail,ycsb --jobs 4   # sweep
//   espsim --help
//
// Builds an SSD per the flags, preconditions it, runs the workload and
// prints throughput, latency percentiles, WAF, GC/erase counts, wear and
// mapping-memory numbers -- everything a quick what-if needs without
// writing code against the library.
//
// SWEEP MODE: when --ftl and/or --profile carry comma-separated lists, the
// cross product of cells runs on the parallel experiment runner (--jobs N
// workers, default hardware concurrency) and prints one comparison row per
// cell. Per-cell results are bit-identical for every --jobs value; the
// --manifest-out JSON records what ran where (see docs/PARALLEL_RUNNER.md).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/build_info.h"
#include "core/cli.h"
#include "core/experiment.h"
#include "core/parallel_runner.h"
#include "core/ssd.h"
#include "ftl/wear_metrics.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "util/table_printer.h"
#include "workload/profiles.h"

namespace {

using namespace esp;

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --ftl cgm|fgm|sub|sectorlog   FTL to run (default sub); a comma\n"
      "                                list sweeps several FTLs in parallel\n"
      "  --profile NAME                sysbench|varmail|postmark|ycsb|tpcc;\n"
      "                                a comma list sweeps several profiles\n"
      "  --jobs N                      sweep worker threads (default: hw\n"
      "                                concurrency; results identical for\n"
      "                                any N)\n"
      "  --manifest-out PATH           write the sweep's run manifest JSON\n"
      "  --requests N                  measured requests (default 100000)\n"
      "  --warmup N                    unmeasured warmup requests (default N)\n"
      "  --r-small F --r-synch F       workload mix (ignored with --profile)\n"
      "  --reads F                     read fraction (ignored with --profile)\n"
      "  --small-footprint F           small-write working-set fraction\n"
      "  --capacity-gib F              raw capacity (default 1.0); scales\n"
      "                                block count, keeps the paper layout\n"
      "  --geometry paper|prod         run a full named geometry profile\n"
      "                                instead of the capacity-scaled\n"
      "                                default (paper: 16 GiB / 4096 blocks,\n"
      "                                prod: 64 GiB / 65536 blocks);\n"
      "                                incompatible with --capacity-gib\n"
      "  --channels N                  explicit device shape overrides,\n"
      "  --chips-per-channel N         applied on top of --geometry (or the\n"
      "  --blocks-per-chip N           paper channel/page layout when no\n"
      "  --pages-per-block N           profile is named)\n"
      "  --shards N                    split the cell into N shared-nothing\n"
      "                                shard simulations (channel groups +\n"
      "                                page-striped LBA slices) run in\n"
      "                                parallel and merged deterministically\n"
      "                                (default 1 = unsharded; N must divide\n"
      "                                the channel count; single-tenant only)\n"
      "  --shard-stripe-pages N        LBA-routing stripe unit in full pages\n"
      "                                (default 64; part of the sharded\n"
      "                                run's identity)\n"
      "  --maintenance scan|index      FTL maintenance implementation:\n"
      "                                original O(device) scans or the\n"
      "                                incremental indices (default index;\n"
      "                                decisions are bit-identical -- CI\n"
      "                                diffs the journals to prove it)\n"
      "  --region F                    subpage/log region fraction (0.20)\n"
      "  --queue-depth N               host queue depth (default 128)\n"
      "  --tenants N                   multi-tenant mode: N tenants, each on\n"
      "                                its own namespace slice of the shared\n"
      "                                device (see docs/QOS.md)\n"
      "  --qos fifo|rr|wshare          scheduler between tenants (fifo)\n"
      "  --tenant-profile LIST         per-tenant workload profiles (comma\n"
      "                                list, cycled over tenants; default:\n"
      "                                the run's --profile / manual mix)\n"
      "  --tenant-weights LIST         per-tenant wshare weights (cycled)\n"
      "  --tenant-qd LIST              per-tenant queue depths (cycled,\n"
      "                                default 8)\n"
      "  --tenant-think LIST           per-tenant think time us/request\n"
      "                                (cycled; paces a tenant's arrivals)\n"
      "  --precondition F              fraction of logical space pre-filled\n"
      "  --seed N                      workload seed (default 42)\n"
      "  --no-verify                   skip end-to-end data verification\n"
      "  --metrics-out PATH            write metrics JSON (counters, gauges,\n"
      "                                latency histograms, samples)\n"
      "  --trace-out PATH              write per-request op trace; Chrome\n"
      "                                trace_event if PATH ends in .json,\n"
      "                                JSONL otherwise\n"
      "  --samples-out PATH            write time-series rows (.csv or JSON)\n"
      "  --sample-interval SECONDS     time-series sampling period in\n"
      "                                simulated seconds (default 0 = off)\n"
      "  --trace-capacity N            trace ring size (default 65536)\n"
      "%s"
      "  --snapshot-out PATH           write a deterministic whole-simulator\n"
      "                                snapshot during the run (see\n"
      "                                docs/LIFETIME.md; single runs only)\n"
      "  --snapshot-after N            measured requests completed before\n"
      "                                the snapshot is taken (default 0 =\n"
      "                                at the start of the measured window)\n"
      "  --snapshot-in PATH            restore from a snapshot instead of\n"
      "                                preconditioning + warmup; with the\n"
      "                                saving run's --seed the run continues\n"
      "                                it bit-identically, with a different\n"
      "                                --seed it starts a fresh measurement\n"
      "                                leg over the restored device\n"
      "  --version                     print build provenance and exit\n",
      argv0, core::ObserveSpec::kHelp);
}

std::optional<core::FtlKind> parse_ftl(const std::string& name) {
  if (name == "cgm") return core::FtlKind::kCgm;
  if (name == "fgm") return core::FtlKind::kFgm;
  if (name == "sub") return core::FtlKind::kSub;
  if (name == "sectorlog") return core::FtlKind::kSectorLog;
  return std::nullopt;
}

std::optional<workload::Benchmark> parse_profile(const std::string& name) {
  if (name == "sysbench") return workload::Benchmark::kSysbench;
  if (name == "varmail") return workload::Benchmark::kVarmail;
  if (name == "postmark") return workload::Benchmark::kPostmark;
  if (name == "ycsb") return workload::Benchmark::kYcsb;
  if (name == "tpcc") return workload::Benchmark::kTpcc;
  return std::nullopt;
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) items.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentSpec spec;
  spec.ssd.geometry.channels = 8;
  spec.ssd.geometry.chips_per_channel = 4;
  spec.ssd.geometry.blocks_per_chip = 16;
  spec.ssd.geometry.pages_per_block = 128;
  spec.ssd.logical_fraction = 0.80;
  spec.ssd.queue_depth = 128;
  spec.ssd.ftl = core::FtlKind::kSub;

  std::vector<core::FtlKind> kinds;         // empty -> default sub
  std::vector<workload::Benchmark> profiles;  // empty -> manual workload
  unsigned jobs = 0;  // 0 = hardware concurrency (sweep mode only)
  std::string manifest_out;
  std::uint64_t requests = 100000;
  std::optional<std::uint64_t> warmup;
  double capacity_gib = 1.0;
  bool capacity_set = false;
  core::GeometryOverrides geo;
  workload::SyntheticParams manual;
  manual.r_small = 1.0;
  manual.r_synch = 1.0;
  manual.small_footprint_fraction = 0.02;
  std::uint64_t seed = 42;
  std::string metrics_out;
  std::string trace_out;
  std::string samples_out;
  double sample_interval_s = 0.0;
  std::size_t trace_capacity = 1 << 16;
  core::ObserveSpec observe;
  std::string snapshot_in;
  std::string snapshot_out;
  std::uint64_t snapshot_after = 0;
  unsigned shards = 1;
  std::uint32_t shard_stripe_pages = 64;
  std::size_t tenants = 0;
  sim::QosPolicy qos = sim::QosPolicy::kFifo;
  std::vector<workload::Benchmark> tenant_profiles;
  std::vector<double> tenant_weights;
  std::vector<std::uint32_t> tenant_qds;
  std::vector<double> tenant_thinks;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&] { return core::flag_value(argc, argv, i); };
      // The flag's value as the type of `out` (strict, see core/cli.h).
      const auto number = [&](auto& out) {
        out = core::number_flag<std::decay_t<decltype(out)>>(argc, argv, i);
      };
      // A comma list of numbers, each item as the list's element type.
      const auto numbers = [&](auto& out) {
        using T = typename std::decay_t<decltype(out)>::value_type;
        for (const auto& item : split_list(next()))
          out.push_back(core::parse_number<T>(arg, item));
      };
      if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        return 0;
      } else if (arg == "--version") {
        std::printf("%s\n", core::build_info_line().c_str());
        return 0;
      } else if (arg == "--ftl") {
        for (const auto& name : split_list(next())) {
          const auto kind = parse_ftl(name);
          if (!kind) {
            std::fprintf(stderr, "unknown --ftl value '%s'\n", name.c_str());
            return 2;
          }
          kinds.push_back(*kind);
        }
      } else if (arg == "--profile") {
        for (const auto& name : split_list(next())) {
          const auto bench = parse_profile(name);
          if (!bench) {
            std::fprintf(stderr, "unknown --profile value '%s'\n",
                         name.c_str());
            return 2;
          }
          profiles.push_back(*bench);
        }
      } else if (arg == "--jobs") {
        number(jobs);
      } else if (arg == "--manifest-out") {
        manifest_out = next();
      } else if (arg == "--requests") {
        number(requests);
      } else if (arg == "--warmup") {
        warmup = core::number_flag<std::uint64_t>(argc, argv, i);
      } else if (arg == "--r-small") {
        number(manual.r_small);
      } else if (arg == "--r-synch") {
        number(manual.r_synch);
      } else if (arg == "--reads") {
        number(manual.read_fraction);
      } else if (arg == "--small-footprint") {
        number(manual.small_footprint_fraction);
      } else if (arg == "--capacity-gib") {
        number(capacity_gib);
        capacity_set = true;
      } else if (arg == "--maintenance") {
        const std::string mode = next();
        if (mode == "scan") {
          spec.ssd.reference_scan_maintenance = true;
        } else if (mode == "index") {
          spec.ssd.reference_scan_maintenance = false;
        } else {
          std::fprintf(stderr, "--maintenance must be scan|index\n");
          return 2;
        }
      } else if (arg == "--region") {
        number(spec.ssd.subpage_region_fraction);
      } else if (arg == "--queue-depth") {
        number(spec.ssd.queue_depth);
      } else if (arg == "--precondition") {
        number(spec.precondition_fraction);
      } else if (arg == "--seed") {
        number(seed);
      } else if (arg == "--no-verify") {
        spec.verify = false;
      } else if (arg == "--metrics-out") {
        metrics_out = next();
      } else if (arg == "--trace-out") {
        trace_out = next();
      } else if (arg == "--samples-out") {
        samples_out = next();
      } else if (arg == "--sample-interval") {
        number(sample_interval_s);
      } else if (arg == "--trace-capacity") {
        number(trace_capacity);
      } else if (arg == "--snapshot-in") {
        snapshot_in = next();
      } else if (arg == "--snapshot-out") {
        snapshot_out = next();
      } else if (arg == "--snapshot-after") {
        number(snapshot_after);
      } else if (arg == "--shards") {
        number(shards);
        if (shards == 0) {
          std::fprintf(stderr, "--shards must be >= 1\n");
          return 2;
        }
      } else if (arg == "--shard-stripe-pages") {
        number(shard_stripe_pages);
      } else if (arg == "--tenants") {
        number(tenants);
      } else if (arg == "--qos") {
        const std::string name = next();
        const auto policy = sim::parse_qos_policy(name);
        if (!policy) {
          std::fprintf(stderr, "--qos must be fifo|rr|wshare, got '%s'\n",
                       name.c_str());
          return 2;
        }
        qos = *policy;
      } else if (arg == "--tenant-profile") {
        for (const auto& name : split_list(next())) {
          const auto bench = parse_profile(name);
          if (!bench) {
            std::fprintf(stderr, "unknown --tenant-profile value '%s'\n",
                         name.c_str());
            return 2;
          }
          tenant_profiles.push_back(*bench);
        }
      } else if (arg == "--tenant-weights") {
        numbers(tenant_weights);
      } else if (arg == "--tenant-qd") {
        numbers(tenant_qds);
      } else if (arg == "--tenant-think") {
        numbers(tenant_thinks);
      } else if (!observe.parse_flag(argc, argv, i) &&
                 !geo.parse_flag(argc, argv, i)) {
        std::fprintf(stderr, "unknown option %s\n", arg.c_str());
        usage(argv[0]);
        return 2;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  // Device shape. An explicit geometry (named profile and/or per-dimension
  // overrides) is taken literally and bypasses the capacity scaling; the
  // default path scales block count to the requested capacity (keeping the
  // paper's channel layout and page geometry).
  if (geo.any()) {
    if (capacity_set) {
      std::fprintf(stderr,
                   "--capacity-gib is incompatible with --geometry / "
                   "explicit device-shape overrides\n");
      return 2;
    }
    try {
      spec.ssd.geometry = geo.apply(spec.ssd.geometry);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad geometry: %s\n", e.what());
      return 2;
    }
  } else {
    const double gib_per_block_row =  // one block on every chip
        static_cast<double>(spec.ssd.geometry.total_chips()) *
        spec.ssd.geometry.block_bytes() / (1024.0 * 1024.0 * 1024.0);
    spec.ssd.geometry.blocks_per_chip = std::max(
        4u,
        static_cast<std::uint32_t>(capacity_gib / gib_per_block_row + 0.5));
  }
  // On tiny devices the region quota is floored at one block per chip,
  // which can exceed the requested fraction; shrink the logical exposure
  // so the subFTL/sectorLog feasibility bound (logical + region <= total)
  // still holds.
  {
    const double total_blocks =
        static_cast<double>(spec.ssd.geometry.total_blocks());
    const double region_fraction =
        std::max(spec.ssd.subpage_region_fraction,
                 static_cast<double>(spec.ssd.geometry.total_chips()) /
                     total_blocks);
    spec.ssd.logical_fraction =
        std::min(spec.ssd.logical_fraction, 0.97 - region_fraction);
  }

  if (kinds.empty()) kinds.push_back(core::FtlKind::kSub);
  spec.warmup_requests = warmup.value_or(requests);
  spec.shards = shards;
  spec.shard_stripe_pages = shard_stripe_pages;

  // Builds the workload for one cell. Every cell of a sweep uses the SAME
  // seed, so all FTLs of a profile replay the identical request stream
  // (the paper's comparison methodology).
  const auto workload_for =
      [&](const std::optional<workload::Benchmark>& bench) {
        workload::SyntheticParams params;
        if (bench) {
          params = workload::benchmark_profile(
              *bench, 0, 0, spec.ssd.geometry.subpages_per_page, seed);
        } else {
          params = manual;
          params.seed = seed;
        }
        params.request_count = spec.warmup_requests + requests;
        return params;
      };

  // Names a run: its sweep cell key and the run in a FATAL line.
  const auto run_key = [](const std::optional<workload::Benchmark>& bench,
                          core::FtlKind kind) {
    return "espsim/" +
           (bench ? workload::benchmark_name(*bench) : std::string("manual")) +
           "/" + core::ftl_kind_name(kind);
  };

  // Multi-tenant mode: replace the single stream with N tenant lanes. The
  // request budget is split evenly; per-tenant seeds derive from the run
  // seed so no two lanes replay the same sequence. List-valued flags cycle
  // over tenants (one value = all tenants).
  if (tenants > 0) {
    const std::uint64_t total = spec.warmup_requests + requests;
    const std::uint64_t per_tenant = (total + tenants - 1) / tenants;
    for (std::size_t i = 0; i < tenants; ++i) {
      core::TenantSpec t;
      std::optional<workload::Benchmark> bench;
      if (!tenant_profiles.empty())
        bench = tenant_profiles[i % tenant_profiles.size()];
      else if (!profiles.empty())
        bench = profiles.front();
      t.name = (bench ? workload::benchmark_name(*bench)
                      : std::string("manual")) +
               "-" + std::to_string(i);
      t.workload = workload_for(bench);
      t.workload.footprint_sectors = 0;  // default: the tenant's slice share
      t.workload.request_count = per_tenant;
      t.workload.seed =
          core::stable_cell_seed("tenant/" + std::to_string(i), seed);
      if (!tenant_thinks.empty())
        t.workload.think_us = tenant_thinks[i % tenant_thinks.size()];
      if (!tenant_weights.empty())
        t.weight = tenant_weights[i % tenant_weights.size()];
      if (!tenant_qds.empty()) t.queue_depth = tenant_qds[i % tenant_qds.size()];
      spec.tenants.push_back(std::move(t));
    }
    spec.qos = qos;
  }

  const std::size_t cell_count =
      kinds.size() * std::max<std::size_t>(profiles.size(), 1);
  if (cell_count > 1) {
    // ---- sweep mode: cross product of profiles x FTLs on the runner ----
    if (!snapshot_in.empty() || !snapshot_out.empty()) {
      std::fprintf(stderr,
                   "--snapshot-in/--snapshot-out only apply to single runs, "
                   "not sweeps\n");
      return 2;
    }
    if (!metrics_out.empty() || !trace_out.empty() || !samples_out.empty() ||
        sample_interval_s > 0.0) {
      std::fprintf(stderr,
                   "telemetry outputs (--metrics-out/--trace-out/"
                   "--samples-out/--sample-interval) only apply to single "
                   "runs, not sweeps\n");
      return 2;
    }
    std::vector<std::optional<workload::Benchmark>> sweep_profiles;
    if (profiles.empty()) {
      sweep_profiles.emplace_back(std::nullopt);
    } else {
      for (const auto bench : profiles) sweep_profiles.emplace_back(bench);
    }
    // Sweep workers are the parallelism unit; each sharded cell runs its
    // shards serially on its own worker (results identical either way).
    spec.shard_jobs = 1;
    std::vector<core::ExperimentCell> cells;
    for (const auto& bench : sweep_profiles) {
      for (const auto kind : kinds) {
        core::ExperimentCell cell;
        cell.key = run_key(bench, kind);
        cell.spec = spec;
        cell.spec.ssd.ftl = kind;
        cell.spec.workload = workload_for(bench);
        cell.spec.observe = observe.for_cell(cell.key);
        cells.push_back(std::move(cell));
      }
    }

    std::printf("device   : %s\n", spec.ssd.geometry.describe().c_str());
    std::printf("sweep    : %zu cells (%zu workload(s) x %zu FTL(s)), "
                "seed %llu\n\n",
                cells.size(), sweep_profiles.size(), kinds.size(),
                static_cast<unsigned long long>(seed));

    core::ParallelRunner runner(jobs);
    const auto results = runner.run(cells);
    std::printf("ran %zu cells on %u worker(s) in %.1fs\n\n", cells.size(),
                runner.manifest().jobs_used, runner.manifest().wall_seconds);

    util::TablePrinter t({"cell", "MB/s", "IOPS", "svc p50/p99",
                          "resp p50/p99", "WAF", "req WAF", "GC", "erases",
                          "chip/chan util", "verify"});
    int exit_code = 0;
    for (const auto& cell : results) {
      if (!cell.ok) {
        std::fprintf(stderr, "FAILED: %s: %s\n", cell.key.c_str(),
                     cell.error.c_str());
        exit_code = 1;
        continue;
      }
      const sim::RunMetrics& r = cell.result.raw;
      t.add_row({cell.key, util::TablePrinter::num(r.host_mb_per_sec, 1),
                 util::TablePrinter::num(r.iops(), 0),
                 util::TablePrinter::num(r.latency_p50_us, 0) + "/" +
                     util::TablePrinter::num(r.latency_p99_us, 0),
                 util::TablePrinter::num(r.response_p50_us, 0) + "/" +
                     util::TablePrinter::num(r.response_p99_us, 0),
                 util::TablePrinter::num(r.overall_waf, 3),
                 util::TablePrinter::num(r.small_request_waf, 3),
                 std::to_string(r.ftl_stats.gc_invocations),
                 std::to_string(r.erases_during_run),
                 util::TablePrinter::num(r.chip_util_mean * 100.0, 1) + "/" +
                     util::TablePrinter::num(r.channel_util_mean * 100.0, 1) +
                     "%",
                 std::to_string(r.verify_failures)});
      if (core::lost_data(cell.result, cell.key)) exit_code = 1;
    }
    t.print(std::cout);

    if (!manifest_out.empty()) {
      std::ofstream os(manifest_out);
      if (!os) {
        std::fprintf(stderr, "failed to open %s\n", manifest_out.c_str());
        return 1;
      }
      core::ParallelRunner::write_manifest_json(runner.manifest(), results,
                                                os);
      std::printf("\nmanifest : wrote %s\n", manifest_out.c_str());
    }
    return exit_code;
  }

  // ---- single-run mode (unchanged behavior, full telemetry support) ----
  if (!manifest_out.empty())
    std::fprintf(stderr,
                 "note: --manifest-out only applies to sweeps; ignored\n");
  spec.ssd.ftl = kinds.front();
  spec.shard_jobs = jobs;  // single run: shards are the parallelism unit
  spec.observe = observe;
  spec.snapshot_in = snapshot_in;
  spec.snapshot_out = snapshot_out;
  spec.snapshot_after_requests = snapshot_after;
  const std::optional<workload::Benchmark> profile =
      profiles.empty() ? std::nullopt
                       : std::optional<workload::Benchmark>(profiles.front());
  spec.workload = workload_for(profile);

  std::printf("device   : %s\n", spec.ssd.geometry.describe().c_str());
  std::printf("ftl      : %s   queue depth %u\n",
              core::ftl_kind_name(spec.ssd.ftl).c_str(),
              spec.ssd.queue_depth);
  if (!spec.tenants.empty())
    std::printf("tenants  : %zu, qos %s\n", spec.tenants.size(),
                sim::qos_policy_name(spec.qos).c_str());
  if (spec.shards > 1)
    std::printf("shards   : %u (stripe %u pages)\n", spec.shards,
                spec.shard_stripe_pages);
  std::printf("workload : %s, %llu measured requests (+%llu warmup), "
              "r_small %.2f r_synch %.2f reads %.2f\n\n",
              profile ? workload::benchmark_name(*profile).c_str()
                      : "manual",
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(spec.warmup_requests),
              spec.workload.r_small, spec.workload.r_synch,
              spec.workload.read_fraction);

  // Telemetry is optional: only instantiated when an output or sampling
  // flag asks for it, so the default run stays sink-free.
  std::optional<telemetry::Telemetry> tel;
  if (!metrics_out.empty() || !trace_out.empty() || !samples_out.empty() ||
      sample_interval_s > 0.0) {
    telemetry::TelemetryConfig tcfg;
    tcfg.trace_capacity = trace_capacity;
    tcfg.sample_interval_us = sample_interval_s * sim_time::kSecond;
    tel.emplace(tcfg);
    spec.telemetry = &*tel;
  }

  core::RunResult result;
  try {
    result = core::run_experiment(spec);
  } catch (const std::exception& e) {
    // Auditor violations (std::logic_error) and journal I/O failures land
    // here; the message carries the offending cause chain.
    std::fprintf(stderr, "run failed: %s\n", e.what());
    return 1;
  }
  const sim::RunMetrics& m = result.raw;
  const auto& stats = m.ftl_stats;

  if (!snapshot_in.empty())
    std::printf("snapshot : restored %s\n", snapshot_in.c_str());
  if (!snapshot_out.empty())
    std::printf("snapshot : wrote %s (after %llu measured requests)\n",
                snapshot_out.c_str(),
                static_cast<unsigned long long>(snapshot_after));
  const core::SidecarCounts& sc = result.sidecars;
  if (!observe.journal_path.empty())
    std::printf("journal  : wrote %s (%llu events, %llu truncated)\n",
                observe.journal_path.c_str(),
                static_cast<unsigned long long>(sc.journal_events),
                static_cast<unsigned long long>(sc.journal_truncated));
  if (!observe.health_path.empty())
    std::printf("health   : wrote %s (%llu epochs, %llu lines)\n",
                observe.health_path.c_str(),
                static_cast<unsigned long long>(sc.health_epochs),
                static_cast<unsigned long long>(sc.health_lines));
  if (!observe.forensics_path.empty())
    std::printf("forensics: wrote %s (%llu requests, %llu exemplars)\n",
                observe.forensics_path.c_str(),
                static_cast<unsigned long long>(sc.forensics_requests),
                static_cast<unsigned long long>(sc.forensics_exemplars));

  if (tel) {
    auto emit = [](const char* what, const std::string& path, bool ok) {
      if (ok)
        std::printf("%-8s : wrote %s\n", what, path.c_str());
      else
        std::fprintf(stderr, "%s: failed to write %s\n", what, path.c_str());
      return ok;
    };
    bool io_ok = true;
    if (!metrics_out.empty())
      io_ok &= emit("metrics", metrics_out,
                    telemetry::write_metrics_file(metrics_out, *tel));
    if (!trace_out.empty())
      io_ok &= emit("trace", trace_out,
                    telemetry::write_trace_file(trace_out, *tel));
    if (!samples_out.empty())
      io_ok &= emit("samples", samples_out,
                    telemetry::write_samples_file(samples_out, *tel));
    if (!io_ok) return 1;
    std::printf("\n");
  }

  util::TablePrinter t({"metric", "value"});
  t.add_row({"host throughput",
             util::TablePrinter::num(m.host_mb_per_sec, 1) + " MB/s"});
  t.add_row({"IOPS", util::TablePrinter::num(m.iops(), 0)});
  t.add_row({"latency p50 / p99 / p999",
             util::TablePrinter::num(m.latency_p50_us, 0) + " / " +
                 util::TablePrinter::num(m.latency_p99_us, 0) + " / " +
                 util::TablePrinter::num(m.latency_p999_us, 0) + " us"});
  t.add_row({"response p50 / p99 / p999",
             util::TablePrinter::num(m.response_p50_us, 0) + " / " +
                 util::TablePrinter::num(m.response_p99_us, 0) + " / " +
                 util::TablePrinter::num(m.response_p999_us, 0) + " us"});
  t.add_row({"overall WAF", util::TablePrinter::num(m.overall_waf, 3)});
  t.add_row({"small-write request WAF",
             util::TablePrinter::num(m.small_request_waf, 3)});
  t.add_row({"GC invocations", std::to_string(stats.gc_invocations)});
  t.add_row({"erases (window)", std::to_string(m.erases_during_run)});
  t.add_row({"RMW operations", std::to_string(stats.rmw_ops)});
  t.add_row({"forward migrations", std::to_string(stats.forward_migrations)});
  t.add_row({"evictions (cold+retention)",
             std::to_string(stats.cold_evictions +
                            stats.retention_evictions)});
  t.add_row({"chip util min/mean/max",
             util::TablePrinter::num(m.chip_util_min * 100.0, 1) + " / " +
                 util::TablePrinter::num(m.chip_util_mean * 100.0, 1) + " / " +
                 util::TablePrinter::num(m.chip_util_max * 100.0, 1) + " %"});
  t.add_row({"channel util min/mean/max",
             util::TablePrinter::num(m.channel_util_min * 100.0, 1) + " / " +
                 util::TablePrinter::num(m.channel_util_mean * 100.0, 1) +
                 " / " +
                 util::TablePrinter::num(m.channel_util_max * 100.0, 1) +
                 " %"});
  t.add_row({"mapping memory",
             util::TablePrinter::num(
                 static_cast<double>(result.mapping_bytes) / 1024.0, 1) +
                 " KiB"});
  t.add_row({"verify failures", std::to_string(m.verify_failures)});
  if (tel || !observe.journal_path.empty() || observe.audit)
    t.add_row({"trace events dropped", std::to_string(sc.trace_dropped)});
  if (!observe.journal_path.empty()) {
    t.add_row({"journal events", std::to_string(sc.journal_events)});
    t.add_row({"journal truncated", std::to_string(sc.journal_truncated)});
  }
  if (!observe.health_path.empty()) {
    t.add_row({"health epochs", std::to_string(sc.health_epochs)});
    t.add_row({"health lines", std::to_string(sc.health_lines)});
  }
  if (!observe.forensics_path.empty()) {
    t.add_row({"forensics requests", std::to_string(sc.forensics_requests)});
    t.add_row({"forensics exemplars", std::to_string(sc.forensics_exemplars)});
    t.add_row({"forensics truncated", std::to_string(sc.forensics_truncated)});
  }
  t.print(std::cout);

  if (!result.tenants.empty()) {
    const double secs = sim_time::to_seconds(m.elapsed_us());
    const std::uint64_t total_writes = [&] {
      std::uint64_t sum = 0;
      for (const auto& tm : result.tenants) sum += tm.host_write_sectors;
      return sum;
    }();
    std::printf("\nper-tenant (%s):\n",
                sim::qos_policy_name(spec.qos).c_str());
    util::TablePrinter tt({"tenant", "reqs", "IOPS", "svc p50/p99",
                           "wait p50/p99", "resp p50/p99/p999", "wr share"});
    for (const auto& tm : result.tenants) {
      const double iops =
          secs > 0.0 ? static_cast<double>(tm.requests) / secs : 0.0;
      tt.add_row(
          {tm.name, std::to_string(tm.requests),
           util::TablePrinter::num(iops, 0),
           util::TablePrinter::num(tm.service_p50_us, 0) + "/" +
               util::TablePrinter::num(tm.service_p99_us, 0),
           util::TablePrinter::num(tm.wait_p50_us, 0) + "/" +
               util::TablePrinter::num(tm.wait_p99_us, 0),
           util::TablePrinter::num(tm.response_p50_us, 0) + "/" +
               util::TablePrinter::num(tm.response_p99_us, 0) + "/" +
               util::TablePrinter::num(tm.response_p999_us, 0),
           util::TablePrinter::num(tm.write_share(total_writes), 3)});
    }
    tt.print(std::cout);
  }

  // Per-tenant tail blame: which phase the slowest retained requests of
  // each tenant spent their time in (multi-tenant forensics runs only).
  if (!result.tenant_blame.empty() && result.tenant_blame.size() > 1) {
    std::printf("\nper-tenant tail blame (slowest %u retained):\n",
                observe.forensics_top);
    std::vector<std::string> cols = {"tenant", "reqs", "tail", "worst us"};
    for (std::size_t p = 0; p < telemetry::kPhaseCount; ++p)
      cols.push_back(phase_name(static_cast<telemetry::Phase>(p)));
    util::TablePrinter bt(cols);
    for (const auto& tb : result.tenant_blame) {
      double tail_total = 0.0;
      for (const double us : tb.tail_phase_us) tail_total += us;
      std::vector<std::string> row = {
          result.tenants.size() > tb.tenant ? result.tenants[tb.tenant].name
                                            : std::to_string(tb.tenant),
          std::to_string(tb.requests), std::to_string(tb.tail_requests),
          util::TablePrinter::num(tb.worst_response_us, 0)};
      for (const double us : tb.tail_phase_us)
        row.push_back(
            tail_total > 0.0
                ? util::TablePrinter::num(us / tail_total * 100.0, 1) + "%"
                : "-");
      bt.add_row(std::move(row));
    }
    bt.print(std::cout);
  }
  return core::lost_data(result, run_key(profile, spec.ssd.ftl)) ? 1 : 0;
}
