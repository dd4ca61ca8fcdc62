#include "core/experiment.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cli.h"
#include "core/observers.h"
#include "core/shard.h"
#include "core/snapshot.h"
#include "telemetry/json.h"

namespace esp::core {

// The thread CPU clock counts the calling thread's compute alone, immune to
// preemption by other threads or tenants of the host.
double thread_cpu_seconds() {
#ifdef CLOCK_THREAD_CPUTIME_ID
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
#endif
  return 0.0;
}

bool lost_data(std::uint64_t verify_failures, std::uint64_t io_errors,
               const std::string& what) {
  if (verify_failures == 0 && io_errors == 0) return false;
  std::fprintf(stderr, "FATAL: %llu verify failures, %llu io errors (%s)\n",
               static_cast<unsigned long long>(verify_failures),
               static_cast<unsigned long long>(io_errors), what.c_str());
  return true;
}

workload::SyntheticParams with_default_footprint(
    workload::SyntheticParams params, double precondition_fraction,
    std::uint64_t sectors, std::uint32_t subs) {
  if (params.footprint_sectors == 0)
    params.footprint_sectors =
        static_cast<std::uint64_t>(precondition_fraction *
                                   static_cast<double>(sectors)) /
        subs * subs;
  return params;
}

std::string splice_path_tag(const std::string& path, const std::string& tag) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return path + tag;
  return path.substr(0, dot) + tag + path.substr(dot);
}

bool ObserveSpec::any() const {
  return audit || !journal_path.empty() || !health_path.empty() ||
         !forensics_path.empty();
}

ObserveSpec ObserveSpec::for_cell(std::string key) const {
  std::replace(key.begin(), key.end(), '/', '-');
  ObserveSpec cell = *this;
  for (std::string ObserveSpec::*path : kStreamPaths)
    if (!(cell.*path).empty())
      cell.*path = splice_path_tag(cell.*path, "." + key);
  return cell;
}

ObserveSpec ObserveSpec::for_shard(std::uint32_t index) const {
  ObserveSpec shard = *this;
  for (std::string ObserveSpec::*path : kStreamPaths)
    if (!(shard.*path).empty())
      shard.*path = shard_sidecar_path(shard.*path, index);
  return shard;
}

bool ObserveSpec::parse_flag(int argc, char** argv, int& i) {
  const std::string_view arg = argv[i];
  if (arg == "--audit")
    audit = true;
  else if (arg == "--journal-out")
    journal_path = flag_value(argc, argv, i);
  else if (arg == "--journal-max-events")
    journal_max_events = number_flag<std::uint64_t>(argc, argv, i);
  else if (arg == "--health-out")
    health_path = flag_value(argc, argv, i);
  else if (arg == "--health-interval")
    health_interval_us =
        number_flag<double>(argc, argv, i) * sim_time::kSecond;
  else if (arg == "--health-rated-pe")
    health_rated_pe = number_flag<std::uint32_t>(argc, argv, i);
  else if (arg == "--forensics-out")
    forensics_path = flag_value(argc, argv, i);
  else if (arg == "--forensics-top")
    forensics_top = number_flag<std::uint32_t>(argc, argv, i);
  else
    return false;
  return true;
}

SidecarCounts& SidecarCounts::operator+=(const SidecarCounts& other) {
  trace_dropped += other.trace_dropped;
  journal_events += other.journal_events;
  journal_truncated += other.journal_truncated;
  health_epochs += other.health_epochs;
  health_lines += other.health_lines;
  forensics_requests += other.forensics_requests;
  forensics_exemplars += other.forensics_exemplars;
  forensics_truncated += other.forensics_truncated;
  return *this;
}

bool SidecarCounts::reported() const {
  return trace_dropped != 0 || journal_events != 0 || health_lines != 0 ||
         forensics_requests != 0;
}

void SidecarCounts::write_json(telemetry::JsonWriter& w) const {
  w.begin_object();
  w.kv("trace_dropped", trace_dropped);
  w.kv("journal_events", journal_events);
  w.kv("journal_truncated", journal_truncated);
  w.kv("health_epochs", health_epochs);
  w.kv("health_lines", health_lines);
  w.kv("forensics_requests", forensics_requests);
  w.kv("forensics_exemplars", forensics_exemplars);
  w.kv("forensics_truncated", forensics_truncated);
  w.end_object();
}

RunResult run_experiment(const ExperimentSpec& spec) {
  // Sharded cells take the orchestrated path: N shared-nothing leaf runs
  // (each back through this function with shards == 1) merged in
  // shard-index order. See core/shard.h.
  if (spec.shards > 1) {
    if (!spec.snapshot_in.empty() || !spec.snapshot_out.empty())
      throw std::invalid_argument(
          "run_experiment: snapshots are unsharded-only (fan restored legs "
          "out with ParallelRunner instead)");
    return run_sharded_experiment(spec);
  }
  if (spec.stream != nullptr && !spec.tenants.empty())
    throw std::invalid_argument(
        "run_experiment: stream override is single-tenant only");
  const bool restoring = !spec.snapshot_in.empty();
  const bool checkpointing = !spec.snapshot_out.empty();
  if ((restoring || checkpointing) && !spec.tenants.empty())
    throw std::invalid_argument(
        "run_experiment: snapshots are single-tenant only");

  // Declared before the Ssd: the Ssd destructor materializes the telemetry
  // registry, so every sink it may reach must still be alive then.
  std::optional<telemetry::Telemetry> owned_tel;
  std::optional<Observers> observers;

  Ssd ssd(spec.ssd);

  // Restore path: validate the snapshot header up front (fingerprint gate)
  // and skip preconditioning -- the restored state replaces it. The state
  // itself loads after the telemetry facade and sinks exist.
  std::ifstream snap_is;
  SnapshotMeta snap_meta;
  if (restoring) {
    snap_is.open(spec.snapshot_in, std::ios::in | std::ios::binary);
    if (!snap_is)
      throw std::runtime_error("run_experiment: cannot open snapshot: " +
                               spec.snapshot_in);
    snap_meta = read_snapshot_meta(snap_is, spec.ssd);
  } else {
    ssd.precondition(spec.precondition_fraction);
  }
  // A matching workload seed continues the saved run: telemetry and the
  // sidecar streams resume where they left off and the consumed request
  // prefix is skip-replayed. A different seed is a fresh measurement leg
  // over the restored device: fresh streams, fresh baselines, request 0.
  const bool resume_stream =
      restoring && spec.workload.seed == snap_meta.workload_seed;

  // Journal/audit/health/forensics requested without an external facade:
  // own a lean private one for the duration of the call.
  telemetry::Telemetry* tel = spec.telemetry;
  if (tel == nullptr && spec.observe.any())
    tel = &owned_tel.emplace(lean_telemetry_config());
  if (tel) observers.emplace(spec, *tel, resume_stream ? &snap_meta : nullptr);
  // Restoring attaches AFTER load_state below: a fresh attach baselines
  // sampling cursors and the health epoch-0 from the restored (not blank)
  // state, and a resume attach re-bases a health monitor that has no epoch
  // yet from the restored counters.
  if (tel && !restoring) ssd.attach_telemetry(tel);

  if (restoring) {
    // The auditor's model mirrors device state, not stream position, so a
    // fresh-seed leg still loads it for full-strictness checking.
    SnapshotSinks sinks = observers ? observers->restore_sinks()
                                    : SnapshotSinks{};
    if (resume_stream && snap_meta.has_telemetry) sinks.telemetry = tel;
    read_snapshot_state(snap_is, snap_meta, ssd, sinks);
    snap_is.close();
    if (tel)
      ssd.attach_telemetry(tel, /*resume=*/resume_stream &&
                                    snap_meta.has_telemetry);
  }

  const auto& geo = spec.ssd.geometry;
  const std::uint32_t subs = geo.subpages_per_page;

  // Single-tenant: one stream over the whole logical space. Default the
  // workload footprint to the preconditioned LBA range -- the paper's
  // benchmarks run over the files laid down during preconditioning.
  std::optional<workload::SyntheticWorkload> stream;
  // Stream override (shard slices, recorded traces) replaces the
  // generator; the synthetic params then only stamp headers.
  workload::RequestSource* source = spec.stream;
  // Multi-tenant: each tenant's stream over its namespace slice, muxed by
  // the QoS scheduler.
  std::vector<workload::SyntheticWorkload> tenant_streams;
  std::optional<sim::TenantMux> mux;
  if (spec.tenants.empty()) {
    if (source == nullptr) {
      stream.emplace(with_default_footprint(spec.workload,
                                            spec.precondition_fraction,
                                            ssd.logical_sectors(), subs));
      source = &*stream;
    }
  } else {
    const std::vector<sim::TenantNamespace> slices = sim::partition_namespaces(
        ssd.logical_sectors(), spec.tenants.size(), subs);
    tenant_streams.reserve(spec.tenants.size());
    std::vector<sim::TenantMux::Lane> lanes;
    lanes.reserve(spec.tenants.size());
    for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
      const TenantSpec& t = spec.tenants[i];
      workload::SyntheticParams params = with_default_footprint(
          t.workload, spec.precondition_fraction, slices[i].sectors, subs);
      params.footprint_sectors =
          std::min(params.footprint_sectors, slices[i].sectors);
      tenant_streams.emplace_back(params);
      sim::TenantMux::Lane lane;
      lane.config.name =
          t.name.empty() ? std::string("t").append(std::to_string(i)) : t.name;
      lane.config.weight = t.weight;
      lane.config.queue_depth = t.queue_depth;
      lane.ns = slices[i];
      lane.source = &tenant_streams.back();
      lanes.push_back(std::move(lane));
    }
    mux.emplace(ssd.driver(), spec.qos, std::move(lanes));
    if (tel) mux->set_registry(&tel->registry());
  }

  // Requests pulled from the active source / completed in the measured
  // window so far -- the checkpoint cursors a later restore resumes from.
  std::uint64_t source_consumed = resume_stream ? snap_meta.source_consumed : 0;
  std::uint64_t measured_done = resume_stream ? snap_meta.measured_done : 0;
  if (resume_stream) {
    // Fast-forward the deterministic generator past the prefix the saved
    // run already consumed; the next next() continues the saved sequence.
    for (std::uint64_t i = 0; i < snap_meta.source_consumed; ++i)
      if (!source->next())
        throw std::runtime_error(
            "run_experiment: snapshot consumed more requests than the "
            "stream provides -- wrong stream for this snapshot?");
  }

  // A resumed stream restarts mid-measured-window: warmup already happened
  // before the checkpoint and its closing health epoch is part of the
  // restored state (repeating either would fork the sidecar bytes).
  if (!resume_stream) {
    if (spec.warmup_requests > 0) {
      if (mux) {
        mux->run(/*verify=*/false, spec.warmup_requests);
      } else {
        const sim::RunMetrics warm =
            ssd.driver().run(*source, /*verify=*/false, spec.warmup_requests);
        source_consumed += warm.requests;
      }
    }
    // End-of-warmup health epoch lands before the measured window opens.
    ssd.driver().close_health_epoch();
  }

  // Measured-window-start checkpoint (snapshot_after_requests == 0): the
  // shared aged-state anchor independent lifetime legs restore from.
  const auto write_checkpoint = [&] {
    SnapshotMeta m;
    m.workload_seed = spec.workload.seed;
    m.source_consumed = source_consumed;
    m.measured_done = measured_done;
    m.saved_at_us = ssd.driver().now();
    SnapshotSinks sinks = observers ? observers->checkpoint(m)
                                    : SnapshotSinks{};
    sinks.telemetry = tel;
    save_snapshot_file(spec.snapshot_out, m, ssd, sinks);
  };
  if (checkpointing && spec.snapshot_after_requests == 0) write_checkpoint();

  RunResult result;
  sim::RunMetrics& metrics = result.raw;
  if (mux) {
    sim::MuxRunMetrics mux_run = mux->run(spec.verify);
    metrics = std::move(mux_run.window);
    result.tenants = std::move(mux_run.tenants);
  } else if (checkpointing && spec.snapshot_after_requests > 0) {
    // Mid-window checkpoint: run up to the cut (leaving the sampling
    // window open, exactly as the uninterrupted run would), snapshot, then
    // finish the stream. One mark spans both legs, so the window closes
    // as the unsplit run's does.
    const sim::WindowMark mark = ssd.driver().mark_window();
    const sim::RunMetrics leg1 =
        ssd.driver().run(*source, spec.verify, spec.snapshot_after_requests,
                         /*final_sample=*/false);
    source_consumed += leg1.requests;
    measured_done += leg1.requests;
    write_checkpoint();
    const sim::RunMetrics leg2 = ssd.driver().run(*source, spec.verify);
    metrics.requests = leg1.requests + leg2.requests;
    metrics.write_requests = leg1.write_requests + leg2.write_requests;
    metrics.read_requests = leg1.read_requests + leg2.read_requests;
    ssd.driver().close_window(mark, metrics);
  } else {
    metrics = ssd.driver().run(*source, spec.verify);
  }
  // The end-of-run health epoch closes the measured window.
  ssd.driver().close_health_epoch();
  result.ftl_name = ssd.ftl().name();
  result.mapping_bytes = ssd.ftl().mapping_memory_bytes();
  if (observers) observers->finish(result);
  return result;
}

}  // namespace esp::core
