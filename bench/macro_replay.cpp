// Macro replay: the two measurements that have to time the simulator.
//
// One seeded mixed workload (small sync updates + large cold writes +
// reads + trims) replays through all four FTLs at two geometries,
//
//   paper: 8ch x 4chip, 128 blk/chip, 256 pg/blk  (16 GiB, 4096 blocks)
//   prod:  8ch x 4chip, 2048 blk/chip, 64 pg/blk  (64 GiB, 65536 blocks)
//
// and the bench times it in two ways:
//
//   --health-gate / --forensics-gate PCT   observer-overhead duels: per
//       (geometry, FTL), an observed and a baseline simulator stepped in
//       alternating chunks on one thread (run_duel); fails when the
//       thread-CPU overhead averaged over the FTLs exceeds PCT.
//   --shards N[,N...]   sharded speedup: per (geometry, FTL), the whole
//       unsharded cell, then the whole N-shard cell, timed on the steady
//       clock; the speedup is their ratio averaged over the FTLs.
//
// Everything deterministic about these cells -- scan vs index decisions,
// shard merges and shard-alone journals, restartable replay -- is checked
// by the ctest suite (MaintenanceDifferential, ShardInvariance,
// SnapshotRoundtrip), not here.
//
// Maintenance cadence is deliberately aggressive (seconds, not the paper's
// days) plus per-request think time for dilation, so retention eviction and
// wear-leveling checks actually fire inside a minutes-long replay window;
// the *decisions* stay workload-driven, only the clock is compressed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/cli.h"
#include "core/observers.h"
#include "core/parallel_runner.h"  // stable_cell_seed
#include "sim/driver.h"
#include "telemetry/json.h"
#include "util/table_printer.h"

namespace {

using namespace esp;

constexpr std::uint64_t kBaseSeed = 2017;

/// The replayed stream: a mixed profile rather than one of the paper's five
/// benchmarks -- small hot sync updates over a confined working set, colder
/// multi-page writes, a read-heavy tail and occasional trims, so every
/// maintenance path (GC, retention, wear leveling, idle release) has work.
workload::SyntheticParams mixed_workload(std::uint32_t sectors_per_page,
                                         std::uint64_t seed) {
  workload::SyntheticParams p;
  p.sectors_per_page = sectors_per_page;
  p.r_small = 0.6;
  p.r_synch = 0.9;
  p.read_fraction = 0.35;
  p.trim_fraction = 0.02;
  p.small_sectors_min = 1;
  p.small_sectors_max = 3;
  p.large_pages_min = 1;
  p.large_pages_max = 4;
  p.large_align_prob = 0.85;
  p.small_footprint_fraction = 0.25;
  p.think_us = 400.0;  // time dilation so retention scans fire mid-replay
  p.seed = seed;
  return p;
}

/// The unobserved replay cell of one (geometry, FTL); `measure_scale`
/// multiplies its measured request budget.
core::ExperimentSpec make_spec(const std::string& geom_name,
                               const nand::Geometry& geo, core::FtlKind kind,
                               double budget_scale, double measure_scale) {
  core::ExperimentSpec spec;
  core::SsdConfig& ssd = spec.ssd;
  ssd.geometry = geo;
  ssd.ftl = kind;
  // A point under the 0.80 bound: quota rounding at reduced (--quick)
  // block counts can push 0.80 + the 20% region over physical capacity.
  ssd.logical_fraction = 0.79;
  ssd.buffer_sectors = 1024;
  ssd.gc_reserve_blocks = 16;
  ssd.queue_depth = 128;
  // Compressed maintenance clock (see header comment).
  ssd.retention_scan_interval = 2 * sim_time::kSecond;
  ssd.retention_evict_age = 8 * sim_time::kSecond;
  ssd.wl_check_interval = 256;
  ssd.wl_pe_threshold = 8;

  // Seed per GEOMETRY: every FTL of a geometry replays the identical
  // request stream.
  auto params =
      mixed_workload(geo.subpages_per_page,
                     core::stable_cell_seed("replay/" + geom_name, kBaseSeed));
  const double write_fraction =
      1.0 - params.read_fraction - params.trim_fraction;
  const double avg_write_sectors =
      params.r_small * 0.5 *
          (params.small_sectors_min + params.small_sectors_max) +
      (1.0 - params.r_small) * 0.5 *
          (params.large_pages_min + params.large_pages_max) *
          params.sectors_per_page;
  const double warmup_sectors = 200000 * budget_scale;
  const double measure_sectors = 400000 * budget_scale * measure_scale;
  const auto reqs_for = [&](double budget) {
    return static_cast<std::uint64_t>(budget /
                                      (write_fraction * avg_write_sectors));
  };
  spec.warmup_requests = reqs_for(warmup_sectors);
  params.request_count = spec.warmup_requests + reqs_for(measure_sectors);
  spec.workload = params;
  return spec;
}

/// Steady-clock seconds of one whole run_experiment call -- construct,
/// precondition, warmup and measure: the time a user waits for the cell's
/// result. Negative, after a FATAL line, when the run lost data.
double cell_seconds(const core::ExperimentSpec& spec, const std::string& what) {
  const auto start = std::chrono::steady_clock::now();
  const core::RunResult r = core::run_experiment(spec);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return core::lost_data(r, what) ? -1.0 : seconds;
}

/// Result of one paired observer duel (run_duel).
struct DuelResult {
  double cpu_base = 0.0;      ///< thread-CPU seconds, baseline side
  double cpu_observed = 0.0;  ///< thread-CPU seconds, observed side
  std::uint64_t requests = 0;
  core::RunResult observed;   ///< carries the observer's stream counters
  bool same_decisions = true;
  /// Summed over both sides: reads whose tokens did not match the shadow
  /// map, and reads that reported an error.
  std::uint64_t verify_failures = 0;
  std::uint64_t io_errors = 0;

  double overhead() const {
    return cpu_base > 0.0 ? cpu_observed / cpu_base - 1.0 : 0.0;
  }
};

/// One overhead gate's measurement: two identical simulators -- the
/// baseline (A) and the one carrying the observers `observed_spec`
/// requests (B) -- stepped on ONE thread in alternating 1024-request
/// chunks, accumulating each side's thread-CPU time. With `lean_baseline`
/// side A carries the lean facade B's observers hang off, so the gate
/// prices the observer's marginal cost (forensics: the decision a user
/// makes when switching --forensics-out on); without it A runs bare, so
/// the facade is priced too (health: the always-on stream's whole tax).
///
/// Why not compare two whole cells? Per-cell CPU time on a shared,
/// frequency-scaled host wanders by far more than the gate thresholds
/// (the thread CPU clock counts seconds, not cycles, so it cannot see
/// DVFS), and no estimator over serially-run cells cancels drift on that
/// scale. Chunk interleaving makes both sides sample the same machine
/// state at millisecond granularity; the chunk order also flips every
/// iteration (A B | B A | ...) so linear drift cancels within each pair.
/// The ratio of accumulated CPU times then isolates the observer's own
/// per-op cost. The duel also proves the observer passive: both sides must
/// end in the same simulated state.
DuelResult run_duel(const core::ExperimentSpec& base_spec,
                    const core::ExperimentSpec& observed_spec,
                    bool lean_baseline) {
  // Facades and observers outlive the Ssds: the Ssd destructor
  // materializes the telemetry registry.
  telemetry::Telemetry tel_a(core::lean_telemetry_config());
  telemetry::Telemetry tel_b(core::lean_telemetry_config());
  core::Observers observers(observed_spec, tel_b);

  core::Ssd a(base_spec.ssd);
  core::Ssd b(observed_spec.ssd);
  a.precondition(base_spec.precondition_fraction);
  b.precondition(observed_spec.precondition_fraction);
  if (lean_baseline) a.attach_telemetry(&tel_a);
  b.attach_telemetry(&tel_b);  // health epoch 0: the post-precondition state

  // The duel drives the drivers directly so chunk boundaries stay under
  // its control; the streams are the ones run_experiment would build.
  const auto params = [](const core::ExperimentSpec& spec,
                         const core::Ssd& ssd) {
    return core::with_default_footprint(spec.workload,
                                        spec.precondition_fraction,
                                        ssd.logical_sectors(),
                                        spec.ssd.geometry.subpages_per_page);
  };
  workload::SyntheticWorkload sa(params(base_spec, a));
  workload::SyntheticWorkload sb(params(observed_spec, b));

  if (base_spec.warmup_requests > 0) {
    a.driver().run(sa, /*verify=*/false, base_spec.warmup_requests);
    b.driver().run(sb, /*verify=*/false, observed_spec.warmup_requests);
  }
  // The end-of-warmup health epoch lands outside the timed chunks.
  b.driver().close_health_epoch();

  DuelResult out;
  SimTime end_a = 0.0, end_b = 0.0;
  std::uint64_t remaining =
      base_spec.workload.request_count > base_spec.warmup_requests
          ? base_spec.workload.request_count - base_spec.warmup_requests
          : 0;
  bool flip = false;
  while (remaining > 0) {
    const std::uint64_t n = std::min<std::uint64_t>(1024, remaining);
    const auto step = [n, &out](core::Ssd& ssd,
                                workload::SyntheticWorkload& stream,
                                double& cpu, SimTime& end_us) {
      const double t0 = core::thread_cpu_seconds();
      const sim::RunMetrics m = ssd.driver().run(stream, /*verify=*/true, n);
      cpu += core::thread_cpu_seconds() - t0;
      out.verify_failures += m.verify_failures;
      out.io_errors += m.io_errors;
      end_us = m.end_us;
      return m.requests;
    };
    if (flip) {
      step(b, sb, out.cpu_observed, end_b);
      out.requests += step(a, sa, out.cpu_base, end_a);
    } else {
      out.requests += step(a, sa, out.cpu_base, end_a);
      step(b, sb, out.cpu_observed, end_b);
    }
    flip = !flip;
    remaining -= n;
  }

  // The end-of-run health epoch and the stream trailers are teardown I/O,
  // outside the timed chunks.
  b.driver().close_health_epoch();
  observers.finish(out.observed);

  out.same_decisions =
      end_a == end_b &&
      ftl::same_simulated_stats(a.ftl().stats(), b.ftl().stats()) &&
      a.device().counters().erases == b.device().counters().erases;
  return out;
}

/// One observer overhead gate (--health-gate / --forensics-gate): one duel
/// per (geometry, FTL), failing when the duel overhead averaged over the
/// FTLs exceeds `pct`.
struct Gate {
  std::string name;            ///< keys the tables, JSON and stream paths
  core::ObserveSpec observe;   ///< what the observed side streams
  bool lean_baseline;          ///< see run_duel
  double pct = -1.0;           ///< bound in percent; < 0 = gate off
  /// The two stream counters shown per FTL (column, SidecarCounts field).
  using Counter = std::pair<const char*, std::uint64_t core::SidecarCounts::*>;
  Counter counters[2];
  std::map<std::string, std::map<std::string, DuelResult>> duels;
  std::map<std::string, double> avg;
  bool pass = true;

  Gate(std::string n, bool lean, Counter c0, Counter c1)
      : name(std::move(n)), lean_baseline(lean), counters{c0, c1} {}
  bool on() const { return pct >= 0.0; }
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--json PATH] [--geometry paper|prod|both] [--quick]\n"
      "          [--shards N[,N...]] [--health-gate PCT] "
      "[--forensics-gate PCT]\n"
      "          [--health-out PATH] [--health-interval SECONDS] "
      "[--health-rated-pe N]\n"
      "          [--forensics-out PATH] [--forensics-top N]\n"
      "Needs --shards or a gate.\n"
      "--shards times, per (geometry, FTL), the whole unsharded cell and "
      "then\neach whole N-shard cell (construct, precondition, warmup, "
      "measure; see\ndocs/PERFORMANCE.md) on the steady clock, one after "
      "another, and reports\ntheir ratio averaged over the FTLs.\n"
      "--health-gate runs, per (geometry, FTL), a paired in-process "
      "duel:\nhealth-on vs health-off simulators stepped in alternating "
      "1024-request\nchunks on one thread. Fails if the avg over FTLs of "
      "the duel's\nCPU-time overhead exceeds PCT%%. "
      "--health-out/--health-interval/\n--health-rated-pe set its stream "
      "(default replay_health.jsonl,\nendpoint epochs).\n"
      "--forensics-gate PCT does the same for the latency-forensics "
      "collector\n(per-request phase attribution + top-K exemplars) "
      "against the lean\nfacade. --forensics-out/--forensics-top set the "
      "sidecar path and\nexemplar count.\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  std::string geometry_filter = "both";
  bool quick = false;
  // The gates' streams. Health epochs default to the endpoints: the gate
  // bounds the ALWAYS-ON per-op tax of the health stream. Snapshot cost is
  // a separate, user-chosen knob -- O(blocks) per epoch at whatever cadence
  // --health-interval picks -- and this bench's deliberately compressed
  // clock (400 us think time) would make any fixed simulated-seconds
  // cadence absurdly aggressive: 1 sim-s is ~2500 requests here, vs minutes
  // of real traffic on a device.
  core::ObserveSpec observe;
  observe.health_path = "replay_health.jsonl";
  observe.forensics_path = "replay_forensics.jsonl";
  Gate health("health", /*lean_baseline=*/false,
              {"epochs", &core::SidecarCounts::health_epochs},
              {"lines", &core::SidecarCounts::health_lines});
  Gate forensics("forensics", /*lean_baseline=*/true,
                 {"requests", &core::SidecarCounts::forensics_requests},
                 {"exemplars", &core::SidecarCounts::forensics_exemplars});
  std::vector<unsigned> shard_counts;  // --shards 4,8
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json") {
        json_out = core::flag_value(argc, argv, i);
      } else if (arg == "--shards") {
        std::stringstream ss(core::flag_value(argc, argv, i));
        std::string item;
        while (std::getline(ss, item, ',')) {
          const unsigned n = core::parse_number<unsigned>(arg, item);
          if (n < 2)
            throw std::invalid_argument("--shards values must be >= 2");
          shard_counts.push_back(n);
        }
      } else if (arg == "--geometry") {
        geometry_filter = core::flag_value(argc, argv, i);
        if (geometry_filter != "paper" && geometry_filter != "prod" &&
            geometry_filter != "both")
          throw std::invalid_argument("--geometry must be paper|prod|both");
      } else if (arg == "--quick") {
        quick = true;
      } else if (arg == "--health-gate") {
        health.pct = core::number_flag<double>(argc, argv, i);
      } else if (arg == "--forensics-gate") {
        forensics.pct = core::number_flag<double>(argc, argv, i);
      } else if (!observe.parse_flag(argc, argv, i)) {
        usage(argv[0]);
        return 2;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  // A duel's observed side carries only the observer under test.
  if (observe.audit || !observe.journal_path.empty() ||
      observe.journal_max_events != 0) {
    std::fprintf(stderr,
                 "--journal-out, --journal-max-events and --audit do not "
                 "apply: each gate observes health or forensics alone\n");
    return 2;
  }
  health.observe = observe;
  health.observe.forensics_path.clear();
  forensics.observe = observe;
  forensics.observe.health_path.clear();
  Gate* const gates[] = {&health, &forensics};
  if (shard_counts.empty() && !health.on() && !forensics.on()) {
    usage(argv[0]);
    return 2;
  }

  // --quick (the CI scale): quarter the block count of both profiles and
  // an eighth of the request budget.
  std::vector<std::pair<std::string, nand::Geometry>> geometries;
  for (const char* name : {"paper", "prod"}) {
    if (geometry_filter != "both" && geometry_filter != name) continue;
    nand::Geometry g = nand::geometry_profile(name);
    if (quick) g.blocks_per_chip /= 4;
    geometries.emplace_back(name, g);
  }
  const double budget_scale = quick ? 0.125 : 1.0;

  std::printf("==============================================================\n");
  std::printf("Macro replay -- sharded speedup and observer-overhead gates\n");
  for (const auto& [name, geo] : geometries)
    std::printf("%-6s %s\n", name.c_str(), geo.describe().c_str());
  std::printf("==============================================================\n");

  const auto kinds = {core::FtlKind::kCgm, core::FtlKind::kFgm,
                      core::FtlKind::kSub, core::FtlKind::kSectorLog};

  // Sharded speedup: per (geometry, FTL), the unsharded cell and then each
  // N-shard cell run whole, one after another on this thread (the shards
  // of a sharded cell fan out over the hardware threads). Timing the whole
  // cell puts setup on both sides of the ratio.
  std::map<std::string, std::map<unsigned, double>> avg_shard_speedup;
  for (const auto& [geom, geo] : geometries) {
    if (shard_counts.empty()) break;
    std::printf("\n%s geometry -- whole-cell wall time, sharded vs "
                "unsharded\n\n",
                geom.c_str());
    std::vector<std::string> header = {"FTL", "unsharded s"};
    for (const unsigned n : shard_counts) {
      header.push_back("s" + std::to_string(n) + " s");
      header.push_back("speedup");
    }
    util::TablePrinter t(header);
    for (const auto kind : kinds) {
      const std::string what =
          "replay/" + geom + "/" + core::ftl_kind_name(kind);
      core::ExperimentSpec spec =
          make_spec(geom, geo, kind, budget_scale, /*measure_scale=*/1.0);
      const double unsharded = cell_seconds(spec, what);
      if (unsharded < 0.0) return 1;
      std::vector<std::string> row = {core::ftl_kind_name(kind),
                                      util::TablePrinter::num(unsharded, 3)};
      for (const unsigned n : shard_counts) {
        spec.shards = n;
        const double s =
            cell_seconds(spec, what + "/shard" + std::to_string(n));
        if (s < 0.0) return 1;
        avg_shard_speedup[geom][n] += unsharded / s / 4.0;
        row.push_back(util::TablePrinter::num(s, 3));
        row.push_back(util::TablePrinter::num(unsharded / s, 2) + "x");
      }
      t.add_row(row);
    }
    t.print(std::cout);
    for (const unsigned n : shard_counts)
      std::printf("avg sharded speedup (shards %u vs unsharded, whole "
                  "cell): %.2fx\n",
                  n, avg_shard_speedup[geom][n]);
  }
  if (!shard_counts.empty() && std::thread::hardware_concurrency() <= 1)
    std::printf("single-core host: shard speedups are provenance only "
                "(the JSON records host_cores; CI skips the speedup "
                "comparison at 1 core)\n");

  // Observer overhead gates: one paired in-process duel per (geometry,
  // FTL) -- observed vs baseline simulators stepped in alternating
  // 1024-request chunks on this thread (see run_duel), compared in
  // thread-CPU time so neither other tenants of the machine nor frequency
  // scaling can move the ratio. Overheads are averaged over the four FTLs.
  // The duel gets a 4x measure budget: a 3% ratio needs a few hundred
  // milliseconds of CPU per side to be readable at all.
  for (Gate* gate : gates) {
    if (!gate->on()) continue;
    const std::string& name = gate->name;
    for (const auto& [geom, geo] : geometries) {
      std::printf("\n%s geometry -- %s-stream overhead (gate %.1f%%)\n\n",
                  geom.c_str(), name.c_str(), gate->pct);
      util::TablePrinter t({"FTL", "base ops/cpu-s", name + " ops/cpu-s",
                            "overhead", gate->counters[0].first,
                            gate->counters[1].first});
      double sum = 0.0;
      for (const auto kind : kinds) {
        const std::string ftl = core::ftl_kind_name(kind);
        const core::ExperimentSpec base_spec =
            make_spec(geom, geo, kind, budget_scale, /*measure_scale=*/4.0);
        core::ExperimentSpec observed_spec = base_spec;
        observed_spec.observe = gate->observe.for_cell(
            "replay/" + geom + "/" + ftl + "/" + name + "#duel");
        const DuelResult d =
            run_duel(base_spec, observed_spec, gate->lean_baseline);
        if (d.verify_failures != 0 || d.io_errors != 0) {
          std::fprintf(stderr,
                       "FATAL: %llu verify failures, %llu io errors in the "
                       "%s duel for %s/%s\n",
                       static_cast<unsigned long long>(d.verify_failures),
                       static_cast<unsigned long long>(d.io_errors),
                       name.c_str(), geom.c_str(), ftl.c_str());
          return 1;
        }
        if (!d.same_decisions) {
          std::fprintf(stderr,
                       "FATAL: %s observation changed duel decisions for "
                       "%s/%s\n",
                       name.c_str(), geom.c_str(), ftl.c_str());
          return 1;
        }
        const auto per_cpu_s = [&d](double cpu) {
          return cpu > 0.0 ? static_cast<double>(d.requests) / cpu : 0.0;
        };
        sum += d.overhead();
        gate->duels[geom][ftl] = d;
        const core::SidecarCounts& sc = d.observed.sidecars;
        t.add_row({ftl, util::TablePrinter::num(per_cpu_s(d.cpu_base), 0),
                   util::TablePrinter::num(per_cpu_s(d.cpu_observed), 0),
                   util::TablePrinter::pct(d.overhead(), 2),
                   std::to_string(sc.*gate->counters[0].second),
                   std::to_string(sc.*gate->counters[1].second)});
      }
      t.print(std::cout);
      const double avg = sum / 4.0;
      gate->avg[geom] = avg;
      const bool ok = avg <= gate->pct / 100.0;
      gate->pass &= ok;
      std::printf("avg %s-stream overhead: %.2f%% -- %s\n", name.c_str(),
                  avg * 100.0, ok ? "PASS" : "FAIL");
    }
  }

  if (!json_out.empty()) {
    std::ofstream os(json_out);
    if (!os) {
      std::fprintf(stderr, "failed to open %s\n", json_out.c_str());
      return 1;
    }
    // Every figure here is a host measurement: this artifact documents the
    // machine it ran on.
    telemetry::JsonWriter w(os);
    w.begin_object();
    w.kv("figure", "macro_replay");
    w.newline();
    w.key("run");
    w.begin_object();
    w.kv("host_cores",
         static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    w.kv("base_seed", kBaseSeed);
    w.kv("quick", quick);
    w.end_object();
    for (const Gate* gate : gates) {
      if (!gate->on()) continue;
      const std::string& name = gate->name;
      w.newline();
      // The gate's raw duel measurements.
      w.key(name + "_gate");
      w.begin_object();
      for (const auto& [geom, per_ftl] : gate->duels) {
        w.key(geom);
        w.begin_object();
        for (const auto& [ftl, d] : per_ftl) {
          w.key(ftl);
          w.begin_object();
          w.kv("cpu_base_seconds", d.cpu_base);
          w.kv("cpu_" + name + "_seconds", d.cpu_observed);
          w.kv("requests", d.requests);
          w.kv("overhead", d.overhead());
          for (const auto& [column, field] : gate->counters)
            w.kv(name + "_" + column, d.observed.sidecars.*field);
          w.end_object();
        }
        w.end_object();
      }
      w.end_object();
    }
    w.newline();
    w.key("summary");
    w.begin_object();
    for (const auto& [geom, per_n] : avg_shard_speedup)
      for (const auto& [n, speedup] : per_n)
        w.kv("avg_speedup_shard" + std::to_string(n) + "_" + geom, speedup);
    for (const Gate* gate : gates) {
      if (!gate->on()) continue;
      for (const auto& [geom, avg] : gate->avg)
        w.kv("avg_" + gate->name + "_overhead_" + geom, avg);
      w.kv(gate->name + "_gate_pct", gate->pct);
      w.kv(gate->name + "_gate_pass", gate->pass);
    }
    w.end_object();
    w.end_object();
    os << "\n";
    std::printf("wrote %s\n", json_out.c_str());
  }
  for (const Gate* gate : gates)
    if (gate->on() && !gate->pass) {
      std::fprintf(stderr, "FATAL: %s-stream overhead above %.1f%% gate\n",
                   gate->name.c_str(), gate->pct);
      return 1;
    }
  return 0;
}
