// Macro replay: production-scale end-to-end throughput of the whole stack.
//
// The figure/table benches run on a capacity-scaled device (bench_common.h)
// because the paper's *simulated-time* results are capacity-insensitive.
// Host-side replay speed is NOT: the maintenance paths the FTLs run between
// requests -- retention scans, static wear leveling, idle-block release --
// were O(device) linear scans, so wall-clock throughput collapsed once the
// geometry grew to production block counts. This bench pins the fix: it
// replays one seeded mixed workload (small sync updates + large cold writes
// + reads + trims) through all four FTLs at two geometries,
//
//   paper: 8ch x 4chip, 128 blk/chip, 256 pg/blk  (16 GiB, 4096 blocks)
//   prod:  8ch x 4chip, 2048 blk/chip, 64 pg/blk  (64 GiB, 65536 blocks)
//
// and for each cell runs BOTH maintenance implementations: the original
// O(device) scans (--maintenance scan / reference_scan_maintenance) and the
// incremental indices (retention queue, wear index, idle list). It reports
// host-ops/sec of wall-clock replay and the share of wall time spent inside
// each maintenance path (FtlStats::maint_*); the run aborts if the two
// modes' simulated-side stats diverge at all, so the committed
// BENCH_replay.json doubles as an equivalence witness.
//
// Maintenance cadence is deliberately aggressive (seconds, not the paper's
// days) plus per-request think time for dilation, so retention eviction and
// wear-leveling checks actually fire inside a minutes-long replay window;
// the *decisions* stay workload-driven, only the clock is compressed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/cli.h"
#include "core/observers.h"
#include "core/parallel_runner.h"
#include "core/shard.h"
#include "sim/driver.h"
#include "telemetry/json.h"
#include "util/table_printer.h"
#include "workload/splitter.h"

namespace {

using namespace esp;

constexpr std::uint64_t kBaseSeed = 2017;

struct Mode {
  std::string name;
  bool reference_scan = false;
  /// > 1: run the cell as N shared-nothing shard simulations (core/shard.h)
  /// with index maintenance; the merged result is deterministic and the
  /// wall clock is the fork-to-join measure window.
  unsigned shards = 1;
  /// The observer a gate mode's cells stream (each cell splices its key
  /// into the paths); empty for the unobserved modes.
  core::ObserveSpec observe = {};
};

struct CellOut {
  core::RunResult r;
  double wall = 0.0;
};

double ops_per_sec(const CellOut& c) {
  return c.r.measure_wall_seconds > 0.0
             ? static_cast<double>(c.r.raw.requests) / c.r.measure_wall_seconds
             : 0.0;
}

/// CPU-time throughput: requests per CPU-second of the cell's worker
/// thread. Falls back to wall time where the platform lacks a thread CPU
/// clock. Informational in the per-cell JSON; the health gate uses the
/// in-process duel below instead.
double ops_per_cpu_sec(const CellOut& c) {
  return c.r.measure_cpu_seconds > 0.0
             ? static_cast<double>(c.r.raw.requests) / c.r.measure_cpu_seconds
             : ops_per_sec(c);
}

double maint_share(const ftl::FtlStats& s, double wall_seconds) {
  const double ns = static_cast<double>(s.maint_retention_ns +
                                        s.maint_wear_level_ns +
                                        s.maint_release_idle_ns);
  return wall_seconds > 0.0 ? ns / (wall_seconds * 1e9) : 0.0;
}

double gc_share(const ftl::FtlStats& s, double wall_seconds) {
  return wall_seconds > 0.0
             ? static_cast<double>(s.maint_gc_ns) / (wall_seconds * 1e9)
             : 0.0;
}

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

/// `path_tag` is appended to the cell key in stream paths, so a duel's
/// streams do not overwrite the parallel cell's.
core::ExperimentCell make_cell(const std::string& geom_name,
                               const nand::Geometry& geo, core::FtlKind kind,
                               const Mode& mode, double budget_scale,
                               double measure_scale,
                               const std::string& path_tag = "") {
  core::ExperimentCell cell;
  cell.key = "replay/" + geom_name + "/" + core::ftl_kind_name(kind) + "/" +
             mode.name;
  cell.spec.observe = mode.observe.for_cell(cell.key + path_tag);
  core::SsdConfig& ssd = cell.spec.ssd;
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
  ssd.reference_scan_maintenance = mode.reference_scan;
  cell.spec.shards = mode.shards;  // shard_jobs patched in by the caller

  // Seed per GEOMETRY: every FTL and both maintenance modes of a geometry
  // replay the identical request stream.
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
  cell.spec.warmup_requests = reqs_for(warmup_sectors);
  params.request_count = cell.spec.warmup_requests + reqs_for(measure_sectors);
  cell.spec.workload = params;
  return cell;
}

/// Simulated-side outcomes must be BIT-identical between scan and index
/// maintenance -- the tentpole's equivalence contract. Compares everything
/// deterministic in the result: every simulated FtlStats counter (the WAFs,
/// GC and RMW counts derive from them), device erases, requests and the
/// simulated end time. Wall times and maint_* are host-side.
bool same_decisions(const core::RunResult& a, const core::RunResult& b) {
  return a.erases == b.erases && a.verify_failures == b.verify_failures &&
         a.raw.requests == b.raw.requests && a.raw.end_us == b.raw.end_us &&
         ftl::same_simulated_stats(a.raw.ftl_stats, b.raw.ftl_stats);
}

/// Shard-merge reconciliation: the merged top-level counters of a sharded
/// run must equal the sums over its shard_results -- the join is pure
/// bookkeeping, never a re-simulation.
bool merged_equals_sum(const core::RunResult& m) {
  std::uint64_t requests = 0, erases = 0, verify = 0;
  ftl::FtlStats stats;
  for (const core::RunResult& r : m.shard_results) {
    requests += r.raw.requests;
    erases += r.erases;
    verify += r.verify_failures;
    stats = ftl::stats_sum(stats, r.raw.ftl_stats);
  }
  return m.raw.requests == requests && m.erases == erases &&
         m.verify_failures == verify &&
         m.gc_invocations == stats.gc_invocations &&
         m.rmw_ops == stats.rmw_ops &&
         ftl::same_simulated_stats(m.raw.ftl_stats, stats);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return {};
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Result of one paired observer duel (run_duel).
struct DuelResult {
  double cpu_base = 0.0;      ///< thread-CPU seconds, baseline side
  double cpu_observed = 0.0;  ///< thread-CPU seconds, observed side
  std::uint64_t requests = 0;
  core::RunResult observed;   ///< carries the observer's stream counters
  bool same_decisions = true;

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
  std::uint64_t failures_a = 0, failures_b = 0;
  SimTime end_a = 0.0, end_b = 0.0;
  std::uint64_t remaining =
      base_spec.workload.request_count > base_spec.warmup_requests
          ? base_spec.workload.request_count - base_spec.warmup_requests
          : 0;
  bool flip = false;
  while (remaining > 0) {
    const std::uint64_t n = std::min<std::uint64_t>(1024, remaining);
    const auto step = [n](core::Ssd& ssd, workload::SyntheticWorkload& stream,
                          double& cpu, std::uint64_t& failures,
                          SimTime& end_us) {
      const double t0 = core::thread_cpu_seconds();
      const sim::RunMetrics m = ssd.driver().run(stream, /*verify=*/true, n);
      cpu += core::thread_cpu_seconds() - t0;
      failures += m.verify_failures;
      end_us = m.end_us;
      return m.requests;
    };
    if (flip) {
      step(b, sb, out.cpu_observed, failures_b, end_b);
      out.requests += step(a, sa, out.cpu_base, failures_a, end_a);
    } else {
      out.requests += step(a, sa, out.cpu_base, failures_a, end_a);
      step(b, sb, out.cpu_observed, failures_b, end_b);
    }
    flip = !flip;
    remaining -= n;
  }

  // The end-of-run health epoch and the stream trailers are teardown I/O,
  // outside the timed chunks -- the same contract run_experiment applies
  // to its CPU window.
  b.driver().close_health_epoch();
  observers.finish(out.observed);

  out.same_decisions =
      end_a == end_b && failures_a == 0 && failures_b == 0 &&
      ftl::same_simulated_stats(a.ftl().stats(), b.ftl().stats()) &&
      a.device().counters().erases == b.device().counters().erases;
  return out;
}

/// One observer overhead gate (--health-gate / --forensics-gate): a mode
/// cell in the parallel grid plus one duel per (geometry, FTL), failing
/// when the duel overhead averaged over the FTLs exceeds `pct`.
struct Gate {
  Mode mode;           ///< the observed cells; mode.name keys tables + JSON
  bool lean_baseline;  ///< see run_duel
  double pct = -1.0;   ///< bound in percent; < 0 = gate off
  /// The two stream counters shown per FTL (column, SidecarCounts field).
  using Counter = std::pair<const char*, std::uint64_t core::SidecarCounts::*>;
  Counter counters[2];
  std::map<std::string, std::map<std::string, DuelResult>> duels;
  std::map<std::string, double> avg;
  bool pass = true;

  Gate(Mode m, bool lean, Counter c0, Counter c1)
      : mode(std::move(m)), lean_baseline(lean), counters{c0, c1} {}
  bool on() const { return pct >= 0.0; }
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--json PATH] [--jobs N] [--geometry paper|prod|both] "
      "[--quick]\n"
      "          [--shards N[,N...]] [--shard-jobs N] [--snapshot-every N]\n"
      "          [--health-gate PCT] [--health-out PATH] "
      "[--health-interval SECONDS]\n"
      "          [--health-rated-pe N] [--forensics-gate PCT] "
      "[--forensics-out PATH]\n"
      "          [--forensics-top N]\n"
      "--shards adds one sharded mode per listed count (index "
      "maintenance,\nN shared-nothing shard simulations merged "
      "deterministically; see\ndocs/PERFORMANCE.md) plus FATAL "
      "shard-invariance gates: merged counters\nmust equal the "
      "sum of shards, and a shard re-run alone must write a\n"
      "byte-identical journal. --shard-jobs caps the shard "
      "worker pool\n(0 = hardware concurrency). Measure sharded "
      "speedup with --jobs 1.\n"
      "--health-gate adds a third per-FTL mode (index "
      "maintenance + health\nstream enabled) plus, per "
      "(geometry, FTL), a paired in-process duel:\nhealth-on "
      "vs health-off simulators stepped in alternating 1024-"
      "request\nchunks on one thread. Fails if the avg over "
      "FTLs of the duel's\nCPU-time overhead exceeds PCT%%. "
      "--health-out/--health-interval/\n--health-rated-pe set "
      "its stream (default replay_health.jsonl,\nendpoint "
      "epochs).\n"
      "--forensics-gate PCT does the same for the latency-"
      "forensics collector\n(per-request phase attribution + "
      "top-K exemplars): a forensics mode cell\nplus a paired "
      "duel per (geometry, FTL). --forensics-out/--forensics-"
      "top\nset the sidecar path and exemplar count.\n"
      "--snapshot-every N adds a FATAL restartable-replay "
      "gate: a subFTL\njournal cell re-run as a chain of "
      "segments, each restoring the previous\ncheckpoint and "
      "replaying N more measured requests, must leave a\n"
      "byte-identical journal to the straight-through run.\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  std::string geometry_filter = "both";
  unsigned jobs = 0;
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
  Gate health({"health"}, /*lean_baseline=*/false,
              {"epochs", &core::SidecarCounts::health_epochs},
              {"lines", &core::SidecarCounts::health_lines});
  Gate forensics({"forensics"}, /*lean_baseline=*/true,
                 {"requests", &core::SidecarCounts::forensics_requests},
                 {"exemplars", &core::SidecarCounts::forensics_exemplars});
  std::vector<unsigned> shard_counts;  // --shards 4,8: extra sharded modes
  unsigned shard_jobs = 0;             // 0 = hardware concurrency
  std::uint64_t snapshot_every = 0;    // --snapshot-every N: restart gate
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json") {
        json_out = core::flag_value(argc, argv, i);
      } else if (arg == "--jobs") {
        jobs = core::number_flag<unsigned>(argc, argv, i);
      } else if (arg == "--shards") {
        std::stringstream ss(core::flag_value(argc, argv, i));
        std::string item;
        while (std::getline(ss, item, ',')) {
          const unsigned n = core::parse_number<unsigned>(arg, item);
          if (n < 2)
            throw std::invalid_argument("--shards values must be >= 2");
          shard_counts.push_back(n);
        }
      } else if (arg == "--shard-jobs") {
        shard_jobs = core::number_flag<unsigned>(argc, argv, i);
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
      } else if (arg == "--snapshot-every") {
        snapshot_every = core::number_flag<std::uint64_t>(argc, argv, i);
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
  health.mode.observe = observe;
  health.mode.observe.forensics_path.clear();
  forensics.mode.observe = observe;
  forensics.mode.observe.health_path.clear();
  Gate* const gates[] = {&health, &forensics};

  // --quick (the CI perf-smoke scale): quarter the block count of both
  // profiles and an eighth of the request budget. Shares and speedups keep
  // their shape; absolute numbers shrink.
  std::vector<std::pair<std::string, nand::Geometry>> geometries;
  for (const char* name : {"paper", "prod"}) {
    if (geometry_filter != "both" && geometry_filter != name) continue;
    nand::Geometry g = nand::geometry_profile(name);
    if (quick) g.blocks_per_chip /= 4;
    geometries.emplace_back(name, g);
  }
  const double budget_scale = quick ? 0.125 : 1.0;

  std::printf("==============================================================\n");
  std::printf("Macro replay -- wall-clock throughput, scan vs index maintenance\n");
  for (const auto& [name, geo] : geometries)
    std::printf("%-6s %s\n", name.c_str(), geo.describe().c_str());
  std::printf("==============================================================\n");

  const auto kinds = {core::FtlKind::kCgm, core::FtlKind::kFgm,
                      core::FtlKind::kSub, core::FtlKind::kSectorLog};
  std::vector<Mode> modes = {{"scan", true}, {"index"}};
  for (const unsigned n : shard_counts)
    modes.push_back({"shard" + std::to_string(n), false, n});
  for (const Gate* gate : gates)
    if (gate->on()) modes.push_back(gate->mode);
  std::vector<core::ExperimentCell> cells;
  for (const auto& [name, geo] : geometries)
    for (const auto kind : kinds)
      for (const auto& mode : modes) {
        cells.push_back(make_cell(name, geo, kind, mode, budget_scale,
                                  /*measure_scale=*/1.0));
        cells.back().spec.shard_jobs = shard_jobs;
      }

  core::ParallelRunnerConfig runner_cfg;
  runner_cfg.jobs = jobs;
  runner_cfg.base_seed = kBaseSeed;
  runner_cfg.derive_seeds = false;  // seeds fixed per geometry above
  core::ParallelRunner runner(runner_cfg);
  const auto results = runner.run(cells);
  std::printf("ran %zu cells on %u worker(s) in %.1fs\n", cells.size(),
              runner.manifest().jobs_used, runner.manifest().wall_seconds);

  // grid[geometry][ftl][mode] -> cell result.
  std::map<std::string, std::map<std::string, std::map<std::string, CellOut>>>
      grid;
  {
    std::size_t i = 0;
    for (const auto& [name, geo] : geometries) {
      (void)geo;
      for (const auto kind : kinds)
        for (const auto& mode : modes) {
          const auto& cell = results[i++];
          if (!cell.ok) {
            std::fprintf(stderr, "FATAL: cell %s failed: %s\n",
                         cell.key.c_str(), cell.error.c_str());
            return 1;
          }
          if (bench::lost_data(cell.result, cell.key)) return 1;
          grid[name][core::ftl_kind_name(kind)][mode.name] =
              CellOut{cell.result, cell.wall_seconds};
        }
    }
  }

  bool identical = true;
  for (const auto& [geom, per_ftl] : grid)
    for (const auto& [ftl, per_mode] : per_ftl) {
      const core::RunResult& index = per_mode.at("index").r;
      if (!same_decisions(per_mode.at("scan").r, index)) {
        std::fprintf(stderr,
                     "FATAL: scan/index decisions diverged for %s/%s\n",
                     geom.c_str(), ftl.c_str());
        identical = false;
      }
      // An observed cell must make the same simulated decisions as the
      // unobserved index cell: health and forensics are passive observers.
      for (const Gate* gate : gates)
        if (gate->on() &&
            !same_decisions(per_mode.at(gate->mode.name).r, index)) {
          std::fprintf(stderr,
                       "FATAL: %s observation changed decisions for %s/%s\n",
                       gate->mode.name.c_str(), geom.c_str(), ftl.c_str());
          identical = false;
        }
      // Sharded cells are a different (reproducible) model point, so they
      // are not compared against the unsharded decisions; their gate is
      // the merge reconciliation: merged counters == sum of shards.
      for (const unsigned n : shard_counts) {
        const core::RunResult& sharded =
            per_mode.at("shard" + std::to_string(n)).r;
        if (sharded.shard_results.size() != n ||
            !merged_equals_sum(sharded)) {
          std::fprintf(stderr,
                       "FATAL: sharded merge != sum of shards for %s/%s "
                       "(shards %u)\n",
                       geom.c_str(), ftl.c_str(), n);
          identical = false;
        }
      }
    }
  if (!identical) return 1;
  std::printf("\nscan/index simulated decisions identical for all cells\n");
  if (!shard_counts.empty())
    std::printf("sharded merges reconcile (merged == sum of shards) for all "
                "cells\n");

  // Shard-invariance journal gate: one subFTL sharded cell per (geometry,
  // shard count), re-run at reduced budget with journal sidecars; shard 0
  // is then re-run ALONE through the same leaf-spec construction and must
  // write a byte-identical journal -- a shard's simulation cannot depend
  // on its siblings or the thread schedule.
  for (const auto& [geom, geo] : geometries)
    for (const unsigned n : shard_counts) {
      const Mode gate_mode{"shard" + std::to_string(n) + "-gate", false, n};
      auto gate = make_cell(geom, geo, core::FtlKind::kSub, gate_mode,
                            budget_scale, /*measure_scale=*/0.25);
      gate.spec.shard_jobs = shard_jobs;
      gate.spec.observe.journal_path =
          "replay_shard_gate_" + geom + "_s" + std::to_string(n) + ".jsonl";
      gate.spec.observe.journal_max_events = 500000;  // per-shard cap
      const core::RunResult joint = core::run_experiment(gate.spec);

      core::ExperimentSpec alone_base = gate.spec;
      alone_base.observe.journal_path = "replay_shard_gate_" + geom + "_s" +
                                        std::to_string(n) + "_alone.jsonl";
      const core::ShardPlan plan = core::make_shard_plan(alone_base);
      const workload::SyntheticParams params =
          core::sharded_workload_params(alone_base, plan);
      workload::SyntheticWorkload generator(params);
      const workload::ShardSplitter splitter(
          plan.shards, plan.stripe_pages,
          alone_base.ssd.geometry.subpages_per_page, plan.shard_sectors);
      auto streams = workload::partition_stream(generator, splitter, 0,
                                                alone_base.warmup_requests);
      core::ExperimentSpec leaf = core::make_shard_spec(alone_base, plan, 0);
      leaf.warmup_requests = streams[0].warmup_requests;
      leaf.workload.request_count = streams[0].requests.size();
      workload::VectorSource source(std::move(streams[0].requests));
      leaf.stream = &source;
      const core::RunResult alone = core::run_experiment(leaf);

      const std::string joint_journal =
          slurp(core::shard_sidecar_path(gate.spec.observe.journal_path, 0));
      const std::string alone_journal = slurp(leaf.observe.journal_path);
      if (joint_journal.empty() || joint_journal != alone_journal ||
          !same_decisions(alone, joint.shard_results.at(0))) {
        std::fprintf(stderr,
                     "FATAL: shard 0 alone diverged from shard 0 among "
                     "siblings for %s (shards %u)\n",
                     geom.c_str(), n);
        return 1;
      }
    }
  if (!shard_counts.empty())
    std::printf("shard-invariance journal gate passed (alone == among "
                "siblings)\n");

  // Restartable-replay gate (--snapshot-every N): a replay interrupted at
  // any checkpoint and restarted from it must be indistinguishable from an
  // uninterrupted run. One subFTL journal cell per geometry runs straight
  // through as the reference, then again as a chain of segments: segment i
  // restores the previous checkpoint, replays N more measured requests,
  // checkpoints and exits (the final segment runs to the end of the
  // budget). Restores truncate the journal to the checkpoint offset and
  // append, so the chain leaves ONE journal file -- it must byte-match the
  // reference, and the cumulative simulated end state must agree.
  std::map<std::string, unsigned> restart_segments;
  if (snapshot_every > 0)
    for (const auto& [geom, geo] : geometries) {
      const Mode gate_mode{"restart-gate"};
      const auto cell = make_cell(geom, geo, core::FtlKind::kSub, gate_mode,
                                  budget_scale, /*measure_scale=*/0.25);

      core::ExperimentSpec ref = cell.spec;
      ref.observe.journal_path = "replay_restart_" + geom + "_ref.jsonl";
      ref.observe.journal_max_events = 500000;
      const core::RunResult straight = core::run_experiment(ref);

      const std::string ckpt = "replay_restart_" + geom + ".snap";
      const std::string chained_path =
          "replay_restart_" + geom + "_chained.jsonl";
      const std::uint64_t measured =
          cell.spec.workload.request_count - cell.spec.warmup_requests;
      std::uint64_t done = 0;
      unsigned segments = 0;
      core::RunResult last;
      while (true) {
        core::ExperimentSpec seg = cell.spec;
        seg.observe.journal_path = chained_path;
        seg.observe.journal_max_events = 500000;
        if (done > 0) seg.snapshot_in = ckpt;
        const bool final_segment = measured - done <= snapshot_every;
        if (!final_segment) {
          seg.snapshot_out = ckpt;
          seg.snapshot_after_requests = snapshot_every;
          // Exhaust the stream exactly at the cut: the checkpoint leg runs
          // N requests and the post-checkpoint leg finds nothing left.
          seg.workload.request_count =
              cell.spec.warmup_requests + done + snapshot_every;
          done += snapshot_every;
        }
        last = core::run_experiment(seg);
        ++segments;
        if (final_segment) break;
      }

      const std::string ref_journal = slurp(ref.observe.journal_path);
      const std::string chained_journal = slurp(chained_path);
      if (ref_journal.empty() || ref_journal != chained_journal ||
          last.raw.end_us != straight.raw.end_us ||
          last.raw.device_erases != straight.raw.device_erases ||
          last.verify_failures != 0 || straight.verify_failures != 0) {
        std::fprintf(stderr,
                     "FATAL: restart chain (%u segments of %llu) diverged "
                     "from straight-through replay for %s\n",
                     segments,
                     static_cast<unsigned long long>(snapshot_every),
                     geom.c_str());
        return 1;
      }
      restart_segments[geom] = segments;
      std::printf("restartable-replay gate passed for %s (%u segments, "
                  "journal byte-identical)\n",
                  geom.c_str(), segments);
    }

  std::map<std::string, double> avg_speedup;
  for (const auto& [geom, geo] : geometries) {
    std::printf("\n%s geometry (%s)\n\n", geom.c_str(),
                geo.describe().c_str());
    util::TablePrinter t({"FTL", "scan ops/s", "index ops/s", "speedup",
                          "maint% scan", "maint% index", "gc% index"});
    double sum = 0.0;
    for (const auto kind : kinds) {
      const auto& per_mode = grid[geom][core::ftl_kind_name(kind)];
      const CellOut& scan = per_mode.at("scan");
      const CellOut& index = per_mode.at("index");
      const double scan_ops = ops_per_sec(scan);
      const double index_ops = ops_per_sec(index);
      const double speedup = scan_ops > 0.0 ? index_ops / scan_ops : 0.0;
      sum += speedup;
      t.add_row({core::ftl_kind_name(kind),
                 util::TablePrinter::num(scan_ops, 0),
                 util::TablePrinter::num(index_ops, 0),
                 util::TablePrinter::num(speedup, 2),
                 util::TablePrinter::pct(
                     maint_share(scan.r.raw.ftl_stats,
                                 scan.r.measure_wall_seconds),
                     1),
                 util::TablePrinter::pct(
                     maint_share(index.r.raw.ftl_stats,
                                 index.r.measure_wall_seconds),
                     1),
                 util::TablePrinter::pct(
                     gc_share(index.r.raw.ftl_stats,
                              index.r.measure_wall_seconds),
                     1)});
    }
    t.print(std::cout);
    avg_speedup[geom] = sum / 4.0;
    std::printf("avg host-replay speedup (index vs scan): %.2fx\n",
                sum / 4.0);
  }

  // Intra-cell sharding: fork-to-join wall-clock throughput of each
  // sharded mode vs the unsharded index cell, plus shard balance (mean
  // per-chip utilization over the merged measured window).
  std::map<std::string, std::map<unsigned, double>> avg_shard_speedup;
  if (!shard_counts.empty()) {
    for (const auto& [geom, geo] : geometries) {
      std::printf("\n%s geometry -- intra-cell sharding (%s)\n\n",
                  geom.c_str(), geo.describe().c_str());
      std::vector<std::string> header = {"FTL", "index ops/s"};
      for (const unsigned n : shard_counts) {
        header.push_back("s" + std::to_string(n) + " ops/s");
        header.push_back("speedup");
        header.push_back("chip util");
      }
      util::TablePrinter t(header);
      std::map<unsigned, double> sums;
      for (const auto kind : kinds) {
        const auto& per_mode = grid[geom][core::ftl_kind_name(kind)];
        const double index_ops = ops_per_sec(per_mode.at("index"));
        std::vector<std::string> row = {
            core::ftl_kind_name(kind), util::TablePrinter::num(index_ops, 0)};
        for (const unsigned n : shard_counts) {
          const CellOut& c = per_mode.at("shard" + std::to_string(n));
          const double ops = ops_per_sec(c);
          const double speedup = index_ops > 0.0 ? ops / index_ops : 0.0;
          sums[n] += speedup;
          row.push_back(util::TablePrinter::num(ops, 0));
          row.push_back(util::TablePrinter::num(speedup, 2) + "x");
          row.push_back(
              util::TablePrinter::pct(c.r.chip_util_mean, 1));
        }
        t.add_row(row);
      }
      t.print(std::cout);
      for (const unsigned n : shard_counts) {
        avg_shard_speedup[geom][n] = sums[n] / 4.0;
        std::printf("avg sharded speedup (shards %u vs unsharded index): "
                    "%.2fx\n",
                    n, sums[n] / 4.0);
      }
    }
    if (std::thread::hardware_concurrency() <= 1)
      std::printf("single-core host: fork-to-join shard speedups are "
                  "provenance only (the JSON records host_cores; CI skips "
                  "the speedup comparison at 1 core)\n");
  }

  // Observer overhead gates: one paired in-process duel per (geometry,
  // FTL) -- observed vs baseline simulators stepped in alternating
  // 1024-request chunks on this thread (see run_duel), compared in
  // thread-CPU time so neither other tenants of the machine nor frequency
  // scaling can move the ratio. Overheads are averaged over the four FTLs.
  // The duel gets a 4x measure budget: a 3% ratio needs a few hundred
  // milliseconds of CPU per side to be readable at all.
  const Mode index_mode{"index"};
  for (Gate* gate : gates) {
    if (!gate->on()) continue;
    const std::string& name = gate->mode.name;
    for (const auto& [geom, geo] : geometries) {
      std::printf("\n%s geometry -- %s-stream overhead (gate %.1f%%)\n\n",
                  geom.c_str(), name.c_str(), gate->pct);
      util::TablePrinter t({"FTL", "index ops/cpu-s", name + " ops/cpu-s",
                            "overhead", gate->counters[0].first,
                            gate->counters[1].first});
      double sum = 0.0;
      for (const auto kind : kinds) {
        const auto base_cell =
            make_cell(geom, geo, kind, index_mode, budget_scale,
                      /*measure_scale=*/4.0);
        const auto observed_cell =
            make_cell(geom, geo, kind, gate->mode, budget_scale,
                      /*measure_scale=*/4.0, "#duel");
        const DuelResult d =
            run_duel(base_cell.spec, observed_cell.spec, gate->lean_baseline);
        if (!d.same_decisions) {
          std::fprintf(stderr,
                       "FATAL: %s observation changed duel decisions for "
                       "%s/%s\n",
                       name.c_str(), geom.c_str(),
                       core::ftl_kind_name(kind).c_str());
          return 1;
        }
        const auto per_cpu_s = [&d](double cpu) {
          return cpu > 0.0 ? static_cast<double>(d.requests) / cpu : 0.0;
        };
        sum += d.overhead();
        gate->duels[geom][core::ftl_kind_name(kind)] = d;
        const core::SidecarCounts& sc = d.observed.sidecars;
        t.add_row({core::ftl_kind_name(kind),
                   util::TablePrinter::num(per_cpu_s(d.cpu_base), 0),
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
    telemetry::JsonWriter w(os);
    w.begin_object();
    w.kv("figure", "macro_replay");
    w.newline();
    // Host-side provenance AND the wall-clock measurements themselves are
    // non-deterministic -- this artifact documents the machine it ran on;
    // only "identical_decisions" is a stable invariant.
    w.key("run");
    w.begin_object();
    w.kv("jobs", static_cast<std::uint64_t>(runner.manifest().jobs_used));
    w.kv("host_cores",
         static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    w.kv("shard_jobs", static_cast<std::uint64_t>(shard_jobs));
    w.kv("base_seed", kBaseSeed);
    w.kv("quick", quick);
    w.kv("wall_seconds", runner.manifest().wall_seconds);
    w.kv("identical_decisions", identical);
    w.kv("snapshot_every", snapshot_every);
    for (const auto& [geom, segments] : restart_segments)
      w.kv("restart_gate_segments_" + geom,
           static_cast<std::uint64_t>(segments));
    w.end_object();
    w.newline();
    w.key("geometries");
    w.begin_object();
    for (const auto& [name, geo] : geometries) {
      w.key(name);
      w.begin_object();
      w.kv("describe", geo.describe());
      w.kv("total_blocks", geo.total_blocks());
      w.kv("pages_per_block",
           static_cast<std::uint64_t>(geo.pages_per_block));
      w.kv("capacity_gib", static_cast<double>(geo.capacity_bytes()) /
                               (1024.0 * 1024.0 * 1024.0));
      w.end_object();
    }
    w.end_object();
    w.newline();
    w.key("cells");
    w.begin_object();
    for (const auto& [name, geo] : geometries) {
      (void)geo;
      w.newline();
      w.key(name);
      w.begin_object();
      for (const auto kind : kinds) {
        const auto& per_mode = grid[name][core::ftl_kind_name(kind)];
        w.newline();
        w.key(core::ftl_kind_name(kind));
        w.begin_object();
        for (const auto& mode : modes) {
          const CellOut& c = per_mode.at(mode.name);
          const ftl::FtlStats& s = c.r.raw.ftl_stats;
          w.key(mode.name);
          w.begin_object();
          w.kv("host_ops_per_sec", ops_per_sec(c));
          w.kv("host_ops_per_cpu_sec", ops_per_cpu_sec(c));
          w.kv("measure_wall_seconds", c.r.measure_wall_seconds);
          w.kv("measure_cpu_seconds", c.r.measure_cpu_seconds);
          w.kv("cell_wall_seconds", c.wall);
          w.kv("requests", c.r.raw.requests);
          w.kv("sim_host_mb_per_sec", c.r.host_mb_per_sec);
          w.kv("maintenance_share",
               maint_share(s, c.r.measure_wall_seconds));
          w.kv("retention_share",
               c.r.measure_wall_seconds > 0.0
                   ? static_cast<double>(s.maint_retention_ns) /
                         (c.r.measure_wall_seconds * 1e9)
                   : 0.0);
          w.kv("wear_level_share",
               c.r.measure_wall_seconds > 0.0
                   ? static_cast<double>(s.maint_wear_level_ns) /
                         (c.r.measure_wall_seconds * 1e9)
                   : 0.0);
          w.kv("release_idle_share",
               c.r.measure_wall_seconds > 0.0
                   ? static_cast<double>(s.maint_release_idle_ns) /
                         (c.r.measure_wall_seconds * 1e9)
                   : 0.0);
          w.kv("gc_share", gc_share(s, c.r.measure_wall_seconds));
          w.kv("maint_retention_calls", s.maint_retention_calls);
          w.kv("maint_wear_level_calls", s.maint_wear_level_calls);
          w.kv("maint_release_idle_calls", s.maint_release_idle_calls);
          w.kv("gc_invocations", c.r.gc_invocations);
          w.kv("erases", c.r.erases);
          w.kv("overall_waf", c.r.overall_waf);
          w.kv("retention_evictions", s.retention_evictions);
          w.kv("wear_level_relocations", s.wear_level_relocations);
          w.kv("chip_util", c.r.chip_util_mean);
          w.kv("channel_util", c.r.channel_util_mean);
          if (mode.shards > 1)
            w.kv("shards", static_cast<std::uint64_t>(mode.shards));
          const core::SidecarCounts& sc = c.r.sidecars;
          if (!mode.observe.health_path.empty()) {
            w.kv("health_epochs", sc.health_epochs);
            w.kv("health_lines", sc.health_lines);
          }
          if (!mode.observe.forensics_path.empty()) {
            w.kv("forensics_requests", sc.forensics_requests);
            w.kv("forensics_exemplars", sc.forensics_exemplars);
            w.kv("forensics_truncated", sc.forensics_truncated);
          }
          w.end_object();
        }
        const double scan_ops = ops_per_sec(per_mode.at("scan"));
        const double index_ops = ops_per_sec(per_mode.at("index"));
        w.kv("speedup_host_ops", scan_ops > 0.0 ? index_ops / scan_ops : 0.0);
        for (const unsigned n : shard_counts) {
          const double ops =
              ops_per_sec(per_mode.at("shard" + std::to_string(n)));
          w.kv("speedup_shard" + std::to_string(n),
               index_ops > 0.0 ? ops / index_ops : 0.0);
        }
        w.end_object();
      }
      w.end_object();
    }
    w.end_object();
    for (const Gate* gate : gates) {
      if (!gate->on()) continue;
      const std::string& name = gate->mode.name;
      w.newline();
      // The gate's raw duel measurements (non-deterministic, documentary).
      w.key(name + "_gate");
      w.begin_object();
      for (const auto& [geom, per_ftl] : gate->duels) {
        w.key(geom);
        w.begin_object();
        for (const auto& [ftl, d] : per_ftl) {
          w.key(ftl);
          w.begin_object();
          w.kv("cpu_index_seconds", d.cpu_base);
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
    for (const auto& [name, geo] : geometries) {
      (void)geo;
      w.kv("avg_speedup_" + name, avg_speedup[name]);
      for (const unsigned n : shard_counts)
        w.kv("avg_speedup_shard" + std::to_string(n) + "_" + name,
             avg_shard_speedup[name][n]);
    }
    for (const Gate* gate : gates) {
      if (!gate->on()) continue;
      const std::string& name = gate->mode.name;
      for (const auto& [geom, geo] : geometries) {
        (void)geo;
        w.kv("avg_" + name + "_overhead_" + geom, gate->avg.at(geom));
      }
      w.kv(name + "_gate_pct", gate->pct);
      w.kv(name + "_gate_pass", gate->pass);
    }
    w.end_object();
    w.end_object();
    os << "\n";
    std::printf("wrote %s\n", json_out.c_str());
  }
  for (const Gate* gate : gates)
    if (gate->on() && !gate->pass) {
      std::fprintf(stderr, "FATAL: %s-stream overhead above %.1f%% gate\n",
                   gate->mode.name.c_str(), gate->pct);
      return 1;
    }
  return 0;
}
