// QoS isolation: noisy-neighbor matrix over the multi-tenant namespace mux.
//
// Two tenants share one device (two page-aligned namespace slices over one
// FTL -- see docs/QOS.md):
//
//   reader -- latency-sensitive: paced (open-loop) small requests, 90%
//             reads + 10% small sync writes over a confined working set.
//             The write tail matters: its solo p99 already includes
//             program-path stalls, so the isolation gate compares like
//             with like.
//   writer -- noisy neighbor: duty-cycled bulk writer (a checkpointer's
//             arrival pattern): 4 MiB bursts of full-page writes landing
//             nearly at once, separated by gaps long enough that the
//             average rate stays under every FTL's sustainable rate.
//             Each burst plants a deep backlog whose requests all carry
//             older arrival timestamps than the reader's next request.
//
// That arrival-age inversion is exactly what separates the schedulers:
// FIFO serves the oldest arrival -- the writer's backlog -- and starves
// the reader for the length of each burst drain; round-robin alternates;
// weighted share ignores arrival age and serves by weighted virtual time,
// so the reader (weight 8 vs 1) preempts the backlog at every pick point.
// The device queue depth is kept small (16) so device slots are actually
// scarce and the scheduler's pick decides who gets them. The pressure is
// deliberately bursty rather than steady: a steady writer paced above
// device capacity collapses the device itself (reads stuck behind
// saturated chips, 5 ms erases, GC chains -- damage no submission-order
// scheduler can mask), while one paced below capacity never accumulates a
// backlog, so at most one lane is ever eligible per pick and all three
// schedulers degenerate to the same sequence.
//
// Matrix: {fifo, rr, wshare} x 4 FTLs, plus one solo-reader baseline per
// FTL (same slice-sized footprint, no writer). Gate: under wshare, every
// FTL must keep the reader's p99 RESPONSE time (arrival -> completion,
// scheduling delay included) within 2x of its solo run. The committed
// BENCH_qos.json records the full matrix; all simulated numbers in it are
// deterministic and --jobs-independent.
#include <algorithm>
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
#include "sim/qos.h"
#include "telemetry/json.h"
#include "util/table_printer.h"

namespace {

using namespace esp;

constexpr std::uint64_t kBaseSeed = 2017;
constexpr double kGate = 2.0;  // wshare reader p99 resp <= kGate x solo

struct Budget {
  std::uint64_t reader_requests;  ///< measured reader stream length
  std::uint64_t writer_requests;  ///< writer stream length (outlives reader)
  std::uint64_t warmup_requests;  ///< total warmup budget (duet cells)
};

/// Latency-sensitive tenant: paced small requests, read-mostly with a
/// 10% small-sync-write tail, confined working set.
workload::SyntheticParams reader_workload(std::uint32_t sectors_per_page,
                                          std::uint64_t requests) {
  workload::SyntheticParams p;
  p.sectors_per_page = sectors_per_page;
  p.request_count = requests;
  p.read_fraction = 0.9;
  p.r_small = 1.0;
  p.r_synch = 1.0;
  p.small_sectors_min = 1;
  p.small_sectors_max = 2;
  p.small_footprint_fraction = 0.25;
  p.reads_follow_small = true;  // re-reads its own working set
  p.think_us = 1200.0;          // ~830 IOPS demand: light, latency-bound
  p.seed = core::stable_cell_seed("qos/reader", kBaseSeed);
  return p;
}

/// Noisy neighbor: open-loop large cold writes, paced beyond device
/// capacity so a backlog (with old arrival timestamps) is always pending.
workload::SyntheticParams writer_workload(std::uint32_t sectors_per_page,
                                          std::uint64_t requests) {
  workload::SyntheticParams p;
  p.sectors_per_page = sectors_per_page;
  p.request_count = requests;
  p.read_fraction = 0.0;
  p.r_small = 0.0;
  p.large_pages_min = 1;
  p.large_pages_max = 1;  // one chip booked per write: bounded interference
  // Hot churn, not cold streaming: victims are mostly invalid, so GC stays
  // in its efficient regime (short, frequent reclaims the queue-depth
  // window absorbs). Cold near-uniform writes would instead drive every
  // victim to ~95% valid and collapse the device into multi-block
  // foreground GC -- a >1s stall no submission-level scheduler can hide.
  p.large_zipf_theta = 0.95;
  p.large_align_prob = 1.0;
  // Duty-cycled bursts, not a steady drizzle. The pressure level is a
  // razor's edge: a writer paced steadily ABOVE device capacity is a
  // device-level overload -- reads stuck behind saturated chips, 5 ms
  // erases and GC chains that no submission-order scheduler can mask --
  // while a writer paced steadily BELOW capacity never accumulates a
  // backlog at all, so at every pick at most one lane is eligible and all
  // three schedulers degenerate to the same sequence. Bursts square the
  // circle: each 256-page (4 MiB) burst arrives nearly at once, planting a
  // deep backlog of old-arrival requests that FIFO insists on draining
  // ahead of the reader, while the 45 ms gap (~93 MB/s average, under
  // every FTL's sustainable rate) lets the device drain fully so the
  // weighted-share reader's device-level service floor stays near solo.
  p.think_us = 1.0;  // intra-burst spacing: near-simultaneous arrivals
  p.burst_len = 256;
  p.burst_gap_us = 45000.0;
  p.seed = core::stable_cell_seed("qos/writer", kBaseSeed);
  return p;
}

core::SsdConfig qos_ssd(core::FtlKind kind) {
  core::SsdConfig cfg = bench::scaled_config(kind);
  // Scarce device slots: with the default 128 the device window never
  // binds and every scheduler degenerates to "submit immediately".
  cfg.queue_depth = 16;
  return cfg;
}

/// Preconditioned share of each namespace. The default 0.78 leaves the
/// device ~62% full of valid data, where greedy GC victims are mostly
/// valid and every reclaim turns into a multi-hundred-ms compaction storm
/// that books all chips solid -- device-level stalls no submission
/// scheduler can mask, drowning the signal this bench measures. Keeping
/// the preconditioned share low keeps GC in its short-burst regime.
constexpr double kPreconditionFraction = 0.22;

/// Writer hot-set size as a share of its namespace slice (see the duet
/// cell for why it must stay small).
constexpr double kWriterFootprintFraction = 0.08;

core::ExperimentCell make_duet_cell(core::FtlKind kind, sim::QosPolicy policy,
                                    const Budget& budget) {
  core::ExperimentCell cell;
  cell.key = "qos/" + core::ftl_kind_name(kind) + "/" +
             sim::qos_policy_name(policy);
  cell.spec.ssd = qos_ssd(kind);
  cell.spec.qos = policy;
  cell.spec.precondition_fraction = kPreconditionFraction;
  cell.spec.warmup_requests = budget.warmup_requests;

  core::TenantSpec reader;
  reader.name = "reader";
  reader.weight = 8.0;
  reader.queue_depth = 4;
  reader.workload = reader_workload(cell.spec.ssd.geometry.subpages_per_page,
                                    budget.reader_requests);
  core::TenantSpec writer;
  writer.name = "writer";
  writer.weight = 1.0;
  writer.queue_depth = 64;  // > device QD: never its own bottleneck
  writer.workload = writer_workload(cell.spec.ssd.geometry.subpages_per_page,
                                    budget.writer_requests);
  // Tight hot set: over a long run the zipf tail would otherwise scatter
  // long-lived valid pages across every block the writer churns, and
  // greedy victims degrade until reclaim falls behind the stream -- the
  // multi-block compaction-storm regime. Confining the writer to a small
  // region keeps its victims near-empty indefinitely.
  {
    const std::uint64_t logical = cell.spec.ssd.logical_sectors();
    const std::uint32_t subs = cell.spec.ssd.geometry.subpages_per_page;
    const std::uint64_t half_slice = logical / subs / 2 * subs;
    writer.workload.footprint_sectors =
        static_cast<std::uint64_t>(kWriterFootprintFraction *
                                   static_cast<double>(half_slice)) /
        subs * subs;
  }
  cell.spec.tenants = {std::move(reader), std::move(writer)};
  return cell;
}

/// Solo baseline: the reader alone on the device, with its footprint
/// pinned to the DUET slice share so both runs touch the same working-set
/// size (a solo tenant would otherwise get the whole logical space).
core::ExperimentCell make_solo_cell(core::FtlKind kind, const Budget& budget) {
  core::ExperimentCell cell;
  cell.key = "qos/" + core::ftl_kind_name(kind) + "/solo";
  cell.spec.ssd = qos_ssd(kind);
  cell.spec.qos = sim::QosPolicy::kFifo;  // one lane: policy is moot
  cell.spec.precondition_fraction = kPreconditionFraction;
  // Reader-only warmup at the duet's reader share.
  cell.spec.warmup_requests = std::max<std::uint64_t>(
      budget.warmup_requests / 10, 200);

  const auto& geo = cell.spec.ssd.geometry;
  core::TenantSpec reader;
  reader.name = "reader";
  reader.weight = 8.0;
  reader.queue_depth = 4;
  reader.workload =
      reader_workload(geo.subpages_per_page, budget.reader_requests);
  // Duet slice = half the logical space; footprint = preconditioned share
  // of that slice (mirrors run_experiment's default for two tenants).
  const std::uint64_t logical = cell.spec.ssd.logical_sectors();
  const std::uint32_t subs = geo.subpages_per_page;
  const std::uint64_t half_slice = logical / subs / 2 * subs;
  reader.workload.footprint_sectors =
      static_cast<std::uint64_t>(cell.spec.precondition_fraction *
                                 static_cast<double>(half_slice)) /
      subs * subs;
  cell.spec.tenants = {std::move(reader)};
  return cell;
}

const sim::TenantMetrics* find_tenant(const core::RunResult& r,
                                      const std::string& name) {
  for (const auto& t : r.tenants)
    if (t.name == name) return &t;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  unsigned jobs = 0;
  bool quick = false;
  core::ObserveSpec observe;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json") {
        json_out = core::flag_value(argc, argv, i);
      } else if (arg == "--jobs") {
        jobs = core::number_flag<unsigned>(argc, argv, i);
      } else if (arg == "--quick") {
        quick = true;
      } else if (!observe.parse_flag(argc, argv, i)) {
        std::fprintf(stderr,
                     "usage: %s [--json PATH] [--jobs N] [--quick]\n"
                     "          %s\n",
                     argv[0], core::ObserveSpec::kUsage);
        return 2;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  Budget budget;
  if (quick) {
    budget = {1500, 40000, 5000};
  } else {
    budget = {6000, 160000, 20000};
  }

  bench::print_header(
      "QoS isolation -- noisy neighbor vs latency-sensitive reader");

  const auto kinds = {core::FtlKind::kCgm, core::FtlKind::kFgm,
                      core::FtlKind::kSub, core::FtlKind::kSectorLog};
  const auto policies = {sim::QosPolicy::kFifo, sim::QosPolicy::kRoundRobin,
                         sim::QosPolicy::kWeightedShare};

  std::vector<core::ExperimentCell> cells;
  for (const auto kind : kinds) {
    cells.push_back(make_solo_cell(kind, budget));
    for (const auto policy : policies)
      cells.push_back(make_duet_cell(kind, policy, budget));
  }
  for (auto& cell : cells) cell.spec.observe = observe.for_cell(cell.key);

  core::ParallelRunner runner(jobs);
  const auto results = runner.run(cells);
  std::printf("ran %zu cells on %u worker(s) in %.1fs\n\n", cells.size(),
              runner.manifest().jobs_used, runner.manifest().wall_seconds);

  // grid[ftl][mode] -> result ("solo" | "fifo" | "rr" | "wshare").
  std::map<std::string, std::map<std::string, core::RunResult>> grid;
  {
    std::size_t i = 0;
    for (const auto kind : kinds) {
      for (const char* mode :
           {"solo", "fifo", "rr", "wshare"}) {
        const auto& cell = results[i++];
        if (!cell.ok) {
          std::fprintf(stderr, "FATAL: cell %s failed: %s\n",
                       cell.key.c_str(), cell.error.c_str());
          return 1;
        }
        if (core::lost_data(cell.result, cell.key)) return 1;
        grid[core::ftl_kind_name(kind)][mode] = cell.result;
      }
    }
  }

  bool gate_pass = true;
  util::TablePrinter t({"FTL", "solo p99", "fifo p99", "rr p99",
                        "wshare p99", "wshare/solo", "writer MB/s", "gate"});
  for (const auto kind : kinds) {
    const std::string ftl = core::ftl_kind_name(kind);
    const auto& per_mode = grid[ftl];
    const sim::TenantMetrics* solo =
        find_tenant(per_mode.at("solo"), "reader");
    const sim::TenantMetrics* fifo =
        find_tenant(per_mode.at("fifo"), "reader");
    const sim::TenantMetrics* rr = find_tenant(per_mode.at("rr"), "reader");
    const sim::TenantMetrics* ws =
        find_tenant(per_mode.at("wshare"), "reader");
    if (!solo || !fifo || !rr || !ws) {
      std::fprintf(stderr, "FATAL: missing reader tenant metrics (%s)\n",
                   ftl.c_str());
      return 1;
    }
    // Writer throughput under wshare: isolation must not idle the device.
    const core::RunResult& wshare_run = per_mode.at("wshare");
    const sim::TenantMetrics* wr = find_tenant(wshare_run, "writer");
    const double secs = sim_time::to_seconds(wshare_run.raw.elapsed_us());
    const double writer_mbps =
        wr && secs > 0.0
            ? static_cast<double>(wr->host_write_sectors) * 4096.0 /
                  (1024.0 * 1024.0) / secs
            : 0.0;
    const double ratio = solo->response_p99_us > 0.0
                             ? ws->response_p99_us / solo->response_p99_us
                             : 0.0;
    const bool ok = ratio <= kGate && solo->response_p99_us > 0.0;
    gate_pass &= ok;
    t.add_row({ftl, util::TablePrinter::num(solo->response_p99_us, 0),
               util::TablePrinter::num(fifo->response_p99_us, 0),
               util::TablePrinter::num(rr->response_p99_us, 0),
               util::TablePrinter::num(ws->response_p99_us, 0),
               util::TablePrinter::num(ratio, 2),
               util::TablePrinter::num(writer_mbps, 1),
               ok ? "PASS" : "FAIL"});
  }
  std::printf("reader p99 RESPONSE time (us) by scheduler; gate: wshare <= "
              "%.1fx solo\n\n",
              kGate);
  t.print(std::cout);

  // Per-tenant tail blame (forensics runs): which phase each tenant's
  // slowest retained requests spent their time in, per scheduler -- the
  // "who is the reader actually stalled behind" answer next to the p99s.
  if (!observe.forensics_path.empty()) {
    std::printf("\nper-tenant tail blame (slowest %u retained per tenant):\n",
                observe.forensics_top);
    util::TablePrinter bt({"cell", "tenant", "reqs", "tail", "worst us",
                           "dominant phase", "share"});
    for (const auto kind : kinds) {
      const std::string ftl = core::ftl_kind_name(kind);
      for (const char* mode : {"fifo", "rr", "wshare"}) {
        const core::RunResult& r = grid[ftl].at(mode);
        for (const auto& tb : r.tenant_blame) {
          double tail_total = 0.0;
          std::size_t dom = 0;
          for (std::size_t p = 0; p < telemetry::kPhaseCount; ++p) {
            tail_total += tb.tail_phase_us[p];
            if (tb.tail_phase_us[p] > tb.tail_phase_us[dom]) dom = p;
          }
          bt.add_row(
              {ftl + "/" + mode,
               r.tenants.size() > tb.tenant ? r.tenants[tb.tenant].name
                                            : std::to_string(tb.tenant),
               std::to_string(tb.requests), std::to_string(tb.tail_requests),
               util::TablePrinter::num(tb.worst_response_us, 0),
               telemetry::phase_name(static_cast<telemetry::Phase>(dom)),
               tail_total > 0.0
                   ? util::TablePrinter::num(
                         tb.tail_phase_us[dom] / tail_total * 100.0, 1) + "%"
                   : "-"});
        }
      }
    }
    bt.print(std::cout);
  }

  if (!json_out.empty()) {
    std::ofstream os(json_out);
    if (!os) {
      std::fprintf(stderr, "failed to open %s\n", json_out.c_str());
      return 1;
    }
    telemetry::JsonWriter w(os);
    w.begin_object();
    w.kv("figure", "qos_isolation");
    w.newline();
    w.key("run");
    w.begin_object();
    w.kv("base_seed", kBaseSeed);
    w.kv("quick", quick);
    w.kv("gate", kGate);
    w.kv("gate_pass", gate_pass);
    w.kv("reader_requests", budget.reader_requests);
    w.kv("writer_requests", budget.writer_requests);
    w.kv("warmup_requests", budget.warmup_requests);
    w.end_object();
    w.newline();
    w.key("cells");
    w.begin_object();
    for (const auto kind : kinds) {
      const std::string ftl = core::ftl_kind_name(kind);
      w.newline();
      w.key(ftl);
      w.begin_object();
      for (const char* mode : {"solo", "fifo", "rr", "wshare"}) {
        const core::RunResult& r = grid[ftl].at(mode);
        w.newline();
        w.key(mode);
        w.begin_object();
        w.kv("requests", r.raw.requests);
        w.kv("elapsed_us", r.raw.elapsed_us());
        w.kv("overall_waf", r.raw.overall_waf);
        w.kv("gc_invocations", r.raw.ftl_stats.gc_invocations);
        w.kv("erases", r.raw.erases_during_run);
        for (const auto& tm : r.tenants) {
          w.key(tm.name);
          w.begin_object();
          w.kv("requests", tm.requests);
          w.kv("write_requests", tm.write_requests);
          w.kv("read_requests", tm.read_requests);
          w.kv("host_write_sectors", tm.host_write_sectors);
          w.kv("host_read_sectors", tm.host_read_sectors);
          w.kv("service_p50_us", tm.service_p50_us);
          w.kv("service_p99_us", tm.service_p99_us);
          w.kv("service_p999_us", tm.service_p999_us);
          w.kv("response_p50_us", tm.response_p50_us);
          w.kv("response_p99_us", tm.response_p99_us);
          w.kv("response_p999_us", tm.response_p999_us);
          w.kv("wait_p50_us", tm.wait_p50_us);
          w.kv("wait_p99_us", tm.wait_p99_us);
          w.kv("wait_p999_us", tm.wait_p999_us);
          w.kv("write_share",
               tm.write_share(r.raw.ftl_stats.host_write_sectors));
          w.end_object();
        }
        w.end_object();
      }
      const sim::TenantMetrics* solo = find_tenant(grid[ftl].at("solo"),
                                                   "reader");
      const sim::TenantMetrics* ws = find_tenant(grid[ftl].at("wshare"),
                                                 "reader");
      w.kv("wshare_over_solo_p99",
           solo && ws && solo->response_p99_us > 0.0
               ? ws->response_p99_us / solo->response_p99_us
               : 0.0);
      w.end_object();
    }
    w.end_object();
    w.end_object();
    os << "\n";
    std::printf("\nwrote %s\n", json_out.c_str());
  }

  if (!gate_pass) {
    std::fprintf(stderr,
                 "FATAL: wshare failed to keep the reader within %.1fx of "
                 "its solo p99 response time\n",
                 kGate);
    return 1;
  }
  return 0;
}
