#include "core/shard.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/parallel_runner.h"
#include "telemetry/telemetry.h"
#include "workload/splitter.h"

namespace esp::core {
namespace {

/// Appends every shard's sidecar stream at `path` to `dest` in shard-index
/// order. The sidecars stay on disk: the invariance gates byte-compare them
/// against standalone re-runs.
void concat_sidecars(const std::string& dest,
                     const std::vector<ExperimentSpec>& leaves,
                     std::string ObserveSpec::*path) {
  std::ofstream os(dest, std::ios::out | std::ios::trunc | std::ios::binary);
  if (!os)
    throw std::runtime_error("run_sharded_experiment: cannot open " + dest);
  for (const ExperimentSpec& leaf : leaves) {
    const std::string& src = leaf.observe.*path;
    std::ifstream is(src, std::ios::in | std::ios::binary);
    if (!is)
      throw std::runtime_error("run_sharded_experiment: cannot read " + src);
    os << is.rdbuf();
  }
}

}  // namespace

ShardPlan make_shard_plan(const ExperimentSpec& spec) {
  if (spec.shards < 2)
    throw std::invalid_argument("make_shard_plan: shards must be >= 2");
  if (!spec.tenants.empty())
    throw std::invalid_argument(
        "make_shard_plan: sharding is single-tenant only");
  if (spec.stream != nullptr)
    throw std::invalid_argument(
        "make_shard_plan: sharding generates its own split streams; "
        "stream override is for leaf shard specs");
  if (spec.ssd.geometry.channels % spec.shards != 0)
    throw std::invalid_argument(
        "make_shard_plan: shards must divide the channel count (each "
        "shard owns a whole channel group)");

  ShardPlan plan;
  plan.shards = spec.shards;
  plan.stripe_pages = spec.shard_stripe_pages;
  const std::uint32_t subs = spec.ssd.geometry.subpages_per_page;
  const std::uint64_t shard_capacity =
      shard_ssd_config(spec.ssd, spec.shards).logical_sectors();
  const workload::ShardSplitter splitter(plan.shards, plan.stripe_pages, subs,
                                         shard_capacity);
  plan.stripe_sectors = splitter.stripe_sectors();
  plan.shard_sectors = splitter.shard_sectors();
  plan.usable_sectors = splitter.usable_sectors();
  return plan;
}

SsdConfig shard_ssd_config(const SsdConfig& full, std::uint32_t shards) {
  if (shards == 0 || full.geometry.channels % shards != 0)
    throw std::invalid_argument(
        "shard_ssd_config: shards must divide the channel count");
  SsdConfig cfg = full;
  cfg.geometry.channels /= shards;
  // Aggregate-preserving split of the host/FTL resources. Floors keep
  // degenerate divisions functional (a 1-deep window, a one-page buffer,
  // a 2-block GC reserve).
  cfg.queue_depth = std::max(1u, full.queue_depth / shards);
  cfg.buffer_sectors =
      std::max<std::size_t>(full.geometry.subpages_per_page,
                            full.buffer_sectors / shards);
  cfg.gc_reserve_blocks =
      std::max<std::size_t>(2, full.gc_reserve_blocks / shards);
  // The wear-leveling check counts HOST WRITES, and a shard sees ~1/N of
  // them: divide the interval so cadence relative to global traffic
  // holds. Sim-time cadences (retention scans) stay untouched -- the
  // splitter's think-time conservation keeps shard clocks on the global
  // arrival timeline.
  if (full.wl_check_interval > 0)
    cfg.wl_check_interval = std::max(1u, full.wl_check_interval / shards);
  return cfg;
}

std::uint64_t shard_seed(const ExperimentSpec& spec, std::uint32_t index) {
  return stable_cell_seed("shard/" + std::to_string(index),
                          spec.workload.seed);
}

std::string shard_sidecar_path(const std::string& path, std::uint32_t index) {
  return splice_path_tag(path, ".shard" + std::to_string(index));
}

workload::SyntheticParams sharded_workload_params(const ExperimentSpec& spec,
                                                  const ShardPlan& plan) {
  workload::SyntheticParams params = with_default_footprint(
      spec.workload, spec.precondition_fraction, plan.usable_sectors,
      spec.ssd.geometry.subpages_per_page);
  // Every global LBA must land inside its shard's addressed slice.
  params.footprint_sectors =
      std::min(params.footprint_sectors, plan.usable_sectors);
  return params;
}

ExperimentSpec make_shard_spec(const ExperimentSpec& spec,
                               const ShardPlan& plan, std::uint32_t index) {
  ExperimentSpec leaf = spec;
  leaf.shards = 1;
  leaf.shard_jobs = 0;
  leaf.stream = nullptr;     // the caller attaches the shard's slice
  leaf.telemetry = nullptr;  // ditto (per-shard facades, merged at join)
  leaf.ssd = shard_ssd_config(spec.ssd, plan.shards);
  leaf.workload.seed = shard_seed(spec, index);
  leaf.workload.footprint_sectors = plan.shard_sectors;
  leaf.shard_index = index;
  leaf.shard_count = plan.shards;
  leaf.observe = spec.observe.for_shard(index);
  return leaf;
}

RunResult run_sharded_experiment(const ExperimentSpec& spec) {
  const ShardPlan plan = make_shard_plan(spec);
  const std::uint32_t n = plan.shards;
  const auto& geo = spec.ssd.geometry;

  // One serial pass generates the global stream and deals it across
  // shards -- routing depends only on the splitter's mapping, never on
  // the schedule the shards will later run under.
  const workload::SyntheticParams params = sharded_workload_params(spec, plan);
  workload::SyntheticWorkload generator(params);
  const workload::ShardSplitter splitter(n, plan.stripe_pages,
                                         geo.subpages_per_page,
                                         plan.shard_sectors);
  std::vector<workload::ShardStream> streams = workload::partition_stream(
      generator, splitter, /*max_requests=*/0, spec.warmup_requests);

  std::vector<ExperimentSpec> leaves;
  std::vector<workload::VectorSource> sources;
  std::vector<std::unique_ptr<telemetry::Telemetry>> shard_tels(n);
  leaves.reserve(n);
  sources.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    leaves.push_back(make_shard_spec(spec, plan, i));
    leaves.back().warmup_requests = streams[i].warmup_requests;
    leaves.back().workload.request_count = streams[i].requests.size();
    sources.emplace_back(std::move(streams[i].requests));
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    leaves[i].stream = &sources[i];
    if (spec.telemetry != nullptr) {
      // Per-shard facades, reconciled into the caller's registry at join.
      // The small trace ring bounds memory; op-detail histograms stay on
      // so per-op metric sets merge like the parallel runner's cells do.
      telemetry::TelemetryConfig cfg;
      cfg.trace_capacity = 256;
      shard_tels[i] = std::make_unique<telemetry::Telemetry>(cfg);
      leaves[i].telemetry = shard_tels[i].get();
    }
  }

  // Fan out on the work-stealing pool. Each task writes only its own
  // pre-allocated slot; the first exception (if any) rethrows after all
  // workers drain.
  std::vector<RunResult> shard_results(n);
  run_tasks(spec.shard_jobs, n,
            [&](std::size_t i) { shard_results[i] = run_experiment(leaves[i]); });

  // ---- join: everything merges in shard-index order ---------------------
  if (spec.telemetry != nullptr)
    for (std::uint32_t i = 0; i < n; ++i) {
      shard_tels[i]->registry().materialize();
      spec.telemetry->registry().merge_from(shard_tels[i]->registry());
    }
  for (std::string ObserveSpec::*path : kStreamPaths)
    if (!(spec.observe.*path).empty())
      concat_sidecars(spec.observe.*path, leaves, path);

  // The merged window sums the shard windows; its rates and WAFs derive
  // from the SUMMED counters, so they are by construction the
  // sum-of-shards reconciliation the invariance tests pin.
  RunResult merged;
  merged.ftl_name = shard_results.front().ftl_name;
  sim::RunMetrics& m = merged.raw;
  SimTime min_start_us = std::numeric_limits<double>::infinity();
  SimTime max_elapsed_us = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const RunResult& r = shard_results[i];
    const sim::RunMetrics& w = r.raw;
    m.requests += w.requests;
    m.write_requests += w.write_requests;
    m.read_requests += w.read_requests;
    m.verify_failures += w.verify_failures;
    m.io_errors += w.io_errors;
    m.latency_hist.merge(w.latency_hist);
    m.response_hist.merge(w.response_hist);
    m.ftl_stats = ftl::stats_sum(m.ftl_stats, w.ftl_stats);
    m.device_erases += w.device_erases;
    m.erases_during_run += w.erases_during_run;
    min_start_us = std::min(min_start_us, w.start_us);
    max_elapsed_us = std::max(max_elapsed_us, w.elapsed_us());
    m.chips += w.chips;
    m.channels += w.channels;
    m.chip_util_mean += w.chip_util_mean * w.chips;
    m.channel_util_mean += w.channel_util_mean * w.channels;
    m.chip_util_min =
        i == 0 ? w.chip_util_min : std::min(m.chip_util_min, w.chip_util_min);
    m.chip_util_max = std::max(m.chip_util_max, w.chip_util_max);
    m.channel_util_min = i == 0 ? w.channel_util_min
                                : std::min(m.channel_util_min,
                                           w.channel_util_min);
    m.channel_util_max = std::max(m.channel_util_max, w.channel_util_max);
    merged.mapping_bytes += r.mapping_bytes;
    merged.sidecars += r.sidecars;
  }
  // Means weighted by each shard's chip (channel) count.
  if (m.chips > 0) m.chip_util_mean /= m.chips;
  if (m.channels > 0) m.channel_util_mean /= m.channels;
  // The merged window models N channel groups running concurrently: it
  // spans the slowest shard's measured window.
  m.start_us = min_start_us;
  m.end_us = min_start_us + max_elapsed_us;
  m.fill_percentiles();
  m.fill_rates(geo);
  merged.shard_results = std::move(shard_results);
  return merged;
}

}  // namespace esp::core
