// Steady-state, layer-attributed simulator benchmark.
//
// One invocation measures one workload on one thread:
//
//   1. Set-up, repeated kSetupReps times (the median is setup_s): build a
//      core::Ssd, precondition it, age it with the workload's own stream
//      until GC runs continuously, and pre-generate the measured window.
//   2. Snapshot the aged device + FTL + driver state in memory.
//   3. For --seconds, repeatedly restore the aged state and replay the same
//      fixed window of requests, timing each slice of kChunkRequests
//      requests. Every replay must produce the same simulation digest, so
//      a window's simulated results are exact and each slice's wall-clock
//      time is a sample of one fixed job; the rates come from the sum of
//      each slice's fastest time. Successive replays run on successive
//      CPUs of the affinity set.
//
// With --trace 1 the replays alternate between the plain rig and a traced
// rig (a TracingFtl decorator under a second sim::Driver), which splits
// each request's wall time into driver self time, FTL time (foreground,
// GC, maintenance) and the bench-loop residual. The traced run of the
// telemetry-probe workload also replays observed, for the telemetry
// overhead.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; earlier lines are a provenance header and a
// human-readable table. Exit status is non-zero when any correctness or
// steady-state guard trips. See perfbench/README.md.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/build_info.h"
#include "core/experiment.h"
#include "core/ssd.h"
#include "nand/geometry.h"
#include "sim/driver.h"
#include "telemetry/forensics.h"
#include "telemetry/health.h"
#include "telemetry/telemetry.h"
#include "tracing_ftl.h"
#include "util/serialize.h"
#include "workload/profiles.h"
#include "workload/splitter.h"
#include "workload/synthetic.h"

namespace perfbench {
namespace {

using namespace esp;
using Clock = std::chrono::steady_clock;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  std::string name;
  std::string why;
  core::SsdConfig ssd;
  double precondition = 0.9;  ///< fraction of the logical space pre-filled
  /// Stream shape; footprint, length and seed are filled in at set-up.
  workload::SyntheticParams params;
  std::string profile;                ///< label for the provenance header
  std::uint64_t age_requests = 0;     ///< stream prefix replayed to age
  std::uint64_t window_requests = 0;  ///< measured window length
  std::uint32_t flush_every = 0;      ///< host flush after every N requests
  /// The traced run also replays with health + forensics streams attached,
  /// which measures the telemetry layer.
  bool telemetry_probe = false;
};

/// Health epoch period of the observed replays: ~15 epochs per window.
constexpr SimTime kHealthIntervalUs = 1.0 * sim_time::kSecond;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;

/// Requests per timed slice of an untraced replay (a few ms of host time).
constexpr std::size_t kChunkRequests = 4096;

const char* const kWorkloadNames[] = {"sub_varmail", "fgm_async_small",
                                      "cgm_ycsb_prod"};

WorkloadSpec make_workload(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  w.ssd.queue_depth = 128;
  const std::uint32_t subs = w.ssd.geometry.subpages_per_page;
  if (name == "sub_varmail") {
    w.why = "paper regime: subFTL ESP subpage path (region GC, forwarding, "
            "eviction) under sync small writes; smallest FTL work per request";
    w.ssd.geometry = nand::paper_geometry();
    w.ssd.ftl = core::FtlKind::kSub;
    w.params = workload::benchmark_profile(workload::Benchmark::kVarmail, 0, 0,
                                           subs);
    w.profile = "Varmail";
    w.age_requests = 1'000'000;
    w.window_requests = 500'000;
    w.telemetry_probe = true;
  } else if (name == "fgm_async_small") {
    w.why = "fgmFTL write-buffer merging and capacity eviction plus FinePool "
            "GC: async small writes over a working set far larger than the "
            "buffer, with periodic flush barriers";
    w.ssd.geometry = nand::paper_geometry();
    w.ssd.ftl = core::FtlKind::kFgm;
    workload::SyntheticParams p;
    p.sectors_per_page = subs;
    p.r_small = 0.95;
    p.r_synch = 0.10;
    p.read_fraction = 0.20;
    p.trim_fraction = 0.01;
    p.small_sectors_max = 2;
    p.small_zipf_theta = 0.85;
    p.small_footprint_fraction = 0.05;
    w.params = p;
    w.profile = "async-small (r_small 0.95, r_synch 0.10, reads 0.20, "
                "trims 0.01)";
    w.age_requests = 500'000;
    w.window_requests = 500'000;
    w.flush_every = 4096;
  } else if (name == "cgm_ycsb_prod") {
    w.why = "cgmFTL at prod geometry (65,536 blocks): FullPagePool GC, RMW "
            "and prod-scale maintenance indices; no write buffer, so the "
            "control for buffer and driver work";
    w.ssd.geometry = nand::prod_geometry();
    w.ssd.ftl = core::FtlKind::kCgm;
    w.params = workload::benchmark_profile(workload::Benchmark::kYcsb, 0, 0,
                                           subs);
    w.profile = "YCSB";
    w.age_requests = 1'000'000;
    w.window_requests = 200'000;
  } else {
    std::string known;
    for (const char* n : kWorkloadNames) known += std::string(" ") + n;
    throw std::invalid_argument("unknown workload '" + name +
                                "'; expected one of:" + known);
  }
  return w;
}

/// The workload's request stream: the synthetic generator plus, when
/// flush_every is set, a host flush barrier after every N requests.
class WorkloadStream final : public workload::RequestSource {
 public:
  WorkloadStream(const workload::SyntheticParams& params,
                 std::uint32_t flush_every)
      : gen_(params), flush_every_(flush_every) {}

  std::optional<workload::Request> next() override {
    if (flush_every_ != 0 && since_flush_ == flush_every_) {
      since_flush_ = 0;
      return workload::Request{workload::Request::Type::kFlush, 0, 0, false,
                               0.0};
    }
    ++since_flush_;
    return gen_.next();
  }

 private:
  workload::SyntheticWorkload gen_;
  std::uint32_t flush_every_;
  std::uint32_t since_flush_ = 0;
};

// ---------------------------------------------------------------------------
// Set-up: construct + precondition + age + generate the window.

struct Setup {
  std::unique_ptr<core::Ssd> ssd;
  std::vector<workload::Request> window;
  double construct_s = 0.0;
  double precondition_s = 0.0;
  double age_s = 0.0;
  double gen_s = 0.0;
  std::uint64_t age_gc_invocations = 0;
  double total_s() const {
    return construct_s + precondition_s + age_s + gen_s;
  }
};

Setup build_setup(const WorkloadSpec& w, std::uint64_t seed) {
  Setup s;
  auto t = Clock::now();
  s.ssd = std::make_unique<core::Ssd>(w.ssd);
  s.construct_s = seconds_since(t);

  t = Clock::now();
  s.ssd->precondition(w.precondition);
  s.precondition_s = seconds_since(t);

  // The stream runs over the preconditioned range, as the paper's
  // benchmarks run over the files laid down by preconditioning.
  const std::uint32_t subs = w.ssd.geometry.subpages_per_page;
  workload::SyntheticParams params = w.params;
  const auto logical = static_cast<double>(s.ssd->logical_sectors());
  params.footprint_sectors =
      static_cast<std::uint64_t>(w.precondition * logical) / subs * subs;
  params.request_count = w.age_requests + w.window_requests;
  params.seed = seed;
  WorkloadStream stream(params, w.flush_every);

  t = Clock::now();
  if (w.age_requests > 0)
    s.ssd->driver().run(stream, /*verify=*/false, w.age_requests);
  s.age_s = seconds_since(t);
  s.age_gc_invocations = s.ssd->ftl().stats().gc_invocations;

  t = Clock::now();
  s.window.reserve(w.window_requests);
  for (std::uint64_t i = 0; i < w.window_requests; ++i) {
    auto r = stream.next();
    if (!r) throw std::logic_error("workload stream ended early");
    s.window.push_back(*r);
  }
  s.gen_s = seconds_since(t);
  return s;
}

// ---------------------------------------------------------------------------
// Aged-state snapshot held in memory; every replay restores from it.

class ConstBuf : public std::streambuf {
 public:
  explicit ConstBuf(const std::string& bytes) {
    char* p = const_cast<char*>(bytes.data());
    setg(p, p, p + bytes.size());
  }
};

std::string save_aged_state(core::Ssd& ssd) {
  std::ostringstream os(std::ios::out | std::ios::binary);
  util::StateWriter w(os);
  ssd.device().save_state(w);
  ssd.ftl().save_state(w);
  ssd.driver().save_state(w);
  return std::move(os).str();
}

/// Restores device + FTL from the snapshot and the sim::Driver state into
/// `driver` (the Ssd's own one or the traced one).
void restore_aged_state(const std::string& snapshot, core::Ssd& ssd,
                        sim::Driver& driver) {
  ConstBuf buf(snapshot);
  std::istream is(&buf);
  util::StateReader r(is);
  ssd.device().load_state(r);
  ssd.ftl().load_state(r);
  driver.load_state(r);
}

// ---------------------------------------------------------------------------
// Telemetry observers of the observed replays (health + forensics).

class Observers {
 public:
  Observers(const WorkloadSpec& w, std::uint64_t seed,
            const std::filesystem::path& dir)
      : health_path_(dir / "health.jsonl"),
        forensics_path_(dir / "forensics.jsonl"),
        health_os_(health_path_, std::ios::out | std::ios::trunc),
        forensics_os_(forensics_path_, std::ios::out | std::ios::trunc),
        tel_(telemetry_config()) {
    if (!health_os_ || !forensics_os_)
      throw std::runtime_error("cannot open telemetry streams in " +
                               dir.string());
    const nand::Geometry& g = w.ssd.geometry;
    telemetry::HealthHeader hh;
    hh.ftl = core::ftl_kind_name(w.ssd.ftl);
    hh.chips = g.total_chips();
    hh.blocks_per_chip = g.blocks_per_chip;
    hh.pages_per_block = g.pages_per_block;
    hh.subpages_per_page = g.subpages_per_page;
    hh.seed = seed;
    hh.interval_us = kHealthIntervalUs;
    health_.emplace(health_os_, hh);
    telemetry::ForensicsHeader fh;
    fh.ftl = hh.ftl;
    fh.chips = hh.chips;
    fh.blocks_per_chip = hh.blocks_per_chip;
    fh.pages_per_block = hh.pages_per_block;
    fh.subpages_per_page = hh.subpages_per_page;
    fh.page_bytes = g.page_bytes;
    fh.seed = seed;
    forensics_.emplace(forensics_os_, fh,
                       telemetry::ForensicsCollector::Config{});
    tel_.set_health(&*health_);
    tel_.set_forensics(&*forensics_);
  }
  ~Observers() {
    tel_.set_health(nullptr);
    tel_.set_forensics(nullptr);
  }
  Observers(const Observers&) = delete;
  Observers& operator=(const Observers&) = delete;

  telemetry::Telemetry* telemetry() { return &tel_; }

  /// Closes both streams and returns the number of lines they hold.
  std::uint64_t finish() {
    health_->finish();
    forensics_->finish();
    health_os_.close();
    forensics_os_.close();
    return count_lines(health_path_) + count_lines(forensics_path_);
  }

 private:
  static telemetry::TelemetryConfig telemetry_config() {
    // A facade that only feeds streaming sinks: tiny trace ring, no per-op
    // latency detail (the configuration run_experiment uses for streams).
    telemetry::TelemetryConfig cfg;
    cfg.trace_capacity = 256;
    cfg.op_detail = false;
    return cfg;
  }
  static std::uint64_t count_lines(const std::filesystem::path& p) {
    std::ifstream is(p);
    std::uint64_t n = 0;
    std::string line;
    while (std::getline(is, line)) ++n;
    return n;
  }

  std::filesystem::path health_path_;
  std::filesystem::path forensics_path_;
  std::ofstream health_os_;
  std::ofstream forensics_os_;
  telemetry::Telemetry tel_;
  std::optional<telemetry::HealthMonitor> health_;
  std::optional<telemetry::ForensicsCollector> forensics_;
};

// ---------------------------------------------------------------------------
// One replay of the measured window.

/// Simulated outcome of a window: deterministic for a given seed.
struct WindowSim {
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;  ///< verify failures + io errors
  SimTime elapsed_us = 0.0;
  ftl::FtlStats ftl;                ///< window delta
  nand::DeviceCounters dev;         ///< window delta
  std::vector<SimTime> chip_busy;   ///< window delta per chip
  std::uint64_t digest = 0;
};

/// FNV-1a over the deterministic window fields. Host wall-clock timers
/// (FtlStats::maint_*_ns) are excluded; everything else is simulated.
std::uint64_t window_digest(const WindowSim& s) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  const auto mix_f = [&mix](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  };
  mix(s.requests);
  mix(s.failures);
  mix_f(s.elapsed_us);
  const ftl::FtlStats& f = s.ftl;
  for (const std::uint64_t v :
       {f.host_write_requests, f.host_read_requests, f.host_write_sectors,
        f.host_read_sectors, f.flash_prog_full, f.flash_prog_sub,
        f.flash_reads, f.flash_erases, f.rmw_ops, f.gc_invocations,
        f.gc_copy_sectors, f.forward_migrations, f.cold_evictions,
        f.retention_evictions, f.wear_level_relocations, f.buffer_hits,
        f.read_failures, f.small_write_requests, f.small_write_bytes,
        f.small_service_flash_bytes, f.small_extra_flash_bytes,
        f.maint_retention_calls, f.maint_wear_level_calls,
        f.maint_release_idle_calls})
    mix(v);
  const nand::DeviceCounters& d = s.dev;
  for (const std::uint64_t v :
       {d.reads_full, d.reads_sub, d.progs_full, d.progs_sub, d.erases,
        d.uncorrectable_reads, d.corrupted_reads})
    mix(v);
  for (const SimTime b : s.chip_busy) mix_f(b);
  return h;
}

/// The kind of a replay: plain, observed (telemetry streams attached) or
/// traced (TracingFtl under the second driver). Never both of the last two.
struct RepConfig {
  bool observed = false;
  bool traced = false;
  const char* label() const {
    return observed ? "observed" : traced ? "traced" : "plain";
  }
  bool operator==(const RepConfig&) const = default;
};

struct RepResult {
  RepConfig cfg;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  WindowSim sim;
  std::uint64_t telemetry_lines = 0;
  // Untraced replays only: wall and thread-CPU time of each kChunkRequests
  // slice of the window, in window order.
  std::vector<double> chunk_wall_s;
  std::vector<double> chunk_cpu_s;
  // Traced replays only.
  std::int64_t submit_ns = 0;
  FtlCallTotals ftl_calls;
  double submit_p50_ns = 0.0;
  double submit_p99_ns = 0.0;
};

class Bench {
 public:
  Bench(const WorkloadSpec& w, std::uint64_t seed, core::Ssd& ssd,
        std::vector<workload::Request> window, bool want_traced,
        const std::filesystem::path& tmp_dir)
      : w_(w), seed_(seed), ssd_(ssd), source_(std::move(window)),
        tmp_dir_(tmp_dir), spans_(4096) {
    aged_ = save_aged_state(ssd_);
    if (want_traced) {
      tracing_ftl_ = std::make_unique<TracingFtl>(ssd_.ftl(), spans_);
      traced_driver_ = std::make_unique<sim::Driver>(
          *tracing_ftl_, ssd_.device(), w_.ssd.queue_depth);
    }
    submit_ns_.reserve(source_.size());
  }

  std::size_t window_size() const { return source_.size(); }
  const SpanRecorder& spans() const { return spans_; }

  RepResult run(RepConfig cfg) {
    sim::Driver& drv = cfg.traced ? *traced_driver_ : ssd_.driver();
    restore_aged_state(aged_, ssd_, drv);

    std::optional<Observers> obs;
    if (cfg.observed) {
      obs.emplace(w_, seed_, tmp_dir_);
      ssd_.attach_telemetry(obs->telemetry());
    }

    const ftl::FtlStats ftl_before = ssd_.ftl().stats();
    const nand::DeviceCounters dev_before = ssd_.device().counters();
    const std::uint32_t chips = w_.ssd.geometry.total_chips();
    std::vector<SimTime> busy_before(chips);
    for (std::uint32_t c = 0; c < chips; ++c)
      busy_before[c] = ssd_.device().chip_busy_us(c);
    const SimTime sim_before = drv.now();
    const std::uint64_t verify_before = drv.verify_failures();

    RepResult out;
    out.cfg = cfg;
    std::uint64_t io_errors = 0;
    source_.reset();
    if (cfg.traced) {
      tracing_ftl_->reset_totals();
      io_errors = traced_loop(drv, out);
    } else {
      io_errors = chunked_loop(drv, out);
    }

    WindowSim& s = out.sim;
    s.requests = source_.size();
    s.failures = (drv.verify_failures() - verify_before) + io_errors;
    s.elapsed_us = drv.now() - sim_before;
    s.ftl = ftl::stats_delta(ssd_.ftl().stats(), ftl_before);
    const nand::DeviceCounters& d = ssd_.device().counters();
    s.dev.reads_full = d.reads_full - dev_before.reads_full;
    s.dev.reads_sub = d.reads_sub - dev_before.reads_sub;
    s.dev.progs_full = d.progs_full - dev_before.progs_full;
    s.dev.progs_sub = d.progs_sub - dev_before.progs_sub;
    s.dev.erases = d.erases - dev_before.erases;
    s.dev.uncorrectable_reads =
        d.uncorrectable_reads - dev_before.uncorrectable_reads;
    s.dev.corrupted_reads = d.corrupted_reads - dev_before.corrupted_reads;
    s.chip_busy.resize(chips);
    for (std::uint32_t c = 0; c < chips; ++c)
      s.chip_busy[c] = ssd_.device().chip_busy_us(c) - busy_before[c];
    s.digest = window_digest(s);

    if (obs) {
      // End-of-run health epoch and stream trailers are teardown I/O,
      // outside the timed loop (as in run_experiment).
      drv.close_health_epoch();
      ssd_.attach_telemetry(nullptr);
      out.telemetry_lines = obs->finish();
    }
    return out;
  }

 private:
  /// The untraced bench loop, reading both clocks once per kChunkRequests
  /// requests. Returns the io-error count.
  std::uint64_t chunked_loop(sim::Driver& drv, RepResult& out) {
    const std::size_t n = source_.size();
    out.chunk_wall_s.clear();
    out.chunk_cpu_s.clear();
    out.chunk_wall_s.reserve(n / kChunkRequests + 1);
    out.chunk_cpu_s.reserve(n / kChunkRequests + 1);
    std::uint64_t io_errors = 0;
    std::size_t done = 0;
    auto t = Clock::now();
    double c = core::thread_cpu_seconds();
    while (const auto req = source_.next()) {
      if (!drv.submit(*req, /*verify=*/true).ok) ++io_errors;
      if (++done % kChunkRequests != 0 && done != n) continue;
      const auto t1 = Clock::now();
      const double c1 = core::thread_cpu_seconds();
      out.chunk_wall_s.push_back(std::chrono::duration<double>(t1 - t).count());
      out.chunk_cpu_s.push_back(c1 - c);
      t = t1;
      c = c1;
    }
    for (const double s : out.chunk_wall_s) out.wall_s += s;
    for (const double s : out.chunk_cpu_s) out.cpu_s += s;
    return io_errors;
  }

  /// The bench loop with spans at the sim::Driver and FTL boundaries. Returns
  /// the io-error count.
  std::uint64_t traced_loop(sim::Driver& drv, RepResult& out) {
    const std::size_t n = source_.size();
    const std::size_t stride = std::max<std::size_t>(1, n / 512);
    submit_ns_.clear();
    std::uint64_t io_errors = 0;
    std::uint32_t id = 0;
    const double c0 = core::thread_cpu_seconds();
    const std::int64_t start = wall_ns();
    std::int64_t prev = start;
    while (const auto req = source_.next()) {
      const bool sampled = id % stride == 0;
      if (sampled) spans_.arm(id);
      const std::int64_t a = wall_ns();
      if (!drv.submit(*req, /*verify=*/true).ok) ++io_errors;
      const std::int64_t b = wall_ns();
      submit_ns_.push_back(b - a);
      out.submit_ns += b - a;
      if (sampled) {
        spans_.add(SpanKind::kDriver, a, b);
        spans_.add(SpanKind::kRequest, prev, b);
        spans_.disarm();
      }
      prev = b;
      ++id;
    }
    out.wall_s = static_cast<double>(wall_ns() - start) * 1e-9;
    out.cpu_s = core::thread_cpu_seconds() - c0;
    out.ftl_calls = tracing_ftl_->totals();
    out.submit_p50_ns = percentile(0.50);
    out.submit_p99_ns = percentile(0.99);
    return io_errors;
  }

  double percentile(double q) {
    if (submit_ns_.empty()) return 0.0;
    const auto k = static_cast<std::size_t>(
        q * static_cast<double>(submit_ns_.size() - 1));
    std::nth_element(submit_ns_.begin(), submit_ns_.begin() + k,
                     submit_ns_.end());
    return static_cast<double>(submit_ns_[k]);
  }

  const WorkloadSpec& w_;
  std::uint64_t seed_;
  core::Ssd& ssd_;
  workload::VectorSource source_;
  std::filesystem::path tmp_dir_;
  std::string aged_;
  SpanRecorder spans_;
  std::unique_ptr<TracingFtl> tracing_ftl_;
  std::unique_ptr<sim::Driver> traced_driver_;
  std::vector<std::int64_t> submit_ns_;
};

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

/// The CPUs this thread may run on; {-1} when the set cannot be read.
std::vector<int> affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  if (cpus.empty()) cpus.push_back(-1);
  return cpus;
}

/// Moves the calling thread onto `cpu` (no-op for -1 or on failure).
void pin_to_cpu(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_provenance(const WorkloadSpec& w, std::uint64_t seed,
                      double seconds, bool trace, int setup_reps) {
  const core::SsdConfig& c = w.ssd;
  std::printf("# perfbench steady-state simulator benchmark\n");
  std::printf("# host_cores: %d\n", host_cores());
  std::printf("# build_type: %s (optimized=%s)\n", PERFBENCH_BUILD_TYPE,
              kOptimizedBuild ? "yes" : "no");
  std::printf("# compiler: %s\n", __VERSION__);
  std::printf("# git_describe: %s\n", core::build_git_describe());
  std::printf("# espnand: %s\n", core::build_info_line().c_str());
  std::printf("# workload: %s seed=%llu seconds=%g trace=%d setup_reps=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace ? 1 : 0, setup_reps);
  std::printf("# geometry: %s\n", c.geometry.describe().c_str());
  std::printf("# ftl: %s logical_fraction=%g subpage_region_fraction=%g "
              "buffer_sectors=%zu gc_reserve_blocks=%zu queue_depth=%u "
              "wl_pe_threshold=%u wl_check_interval=%u copyback=%d "
              "maintenance=%s\n",
              core::ftl_kind_name(c.ftl).c_str(), c.logical_fraction,
              c.subpage_region_fraction, c.buffer_sectors,
              c.gc_reserve_blocks, c.queue_depth, c.wl_pe_threshold,
              c.wl_check_interval, c.use_copyback ? 1 : 0,
              c.reference_scan_maintenance ? "scan" : "index");
  std::printf("# stream: %s precondition=%g age_requests=%llu "
              "window_requests=%llu flush_every=%u closed-loop qd=%u "
              "telemetry_probe=%d\n",
              w.profile.c_str(), w.precondition,
              static_cast<unsigned long long>(w.age_requests),
              static_cast<unsigned long long>(w.window_requests),
              w.flush_every, c.queue_depth, w.telemetry_probe ? 1 : 0);
  std::printf("# why: %s\n", w.why.c_str());
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%-36s %22s  %s\n", title, "value", "unit");
  for (const Metric& m : metrics)
    std::printf("%-36s %22.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  long long age_requests = -1;  ///< override; -1 keeps the workload's
  std::string out_dir = ".";
};

[[noreturn]] void usage(const char* argv0, const std::string& error) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: %s --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "          [--smoke] [--age-requests N] [--out-dir DIR]\n",
               error.c_str(), argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = std::stoi(value()) != 0;
      else if (a == "--age-requests") o.age_requests = std::stoll(value());
      else if (a == "--out-dir") o.out_dir = value();
      else if (a == "--smoke") o.smoke = true;
      else usage(argv[0], "unknown option " + a);
    } catch (const std::logic_error&) {
      usage(argv[0], "bad value for " + a);
    }
  }
  if (o.workload.empty()) usage(argv[0], "--workload is required");
  if (o.seconds <= 0.0) usage(argv[0], "--seconds must be positive");
  return o;
}

/// Removes the per-process scratch directory on every exit path.
struct TempDir {
  explicit TempDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  std::filesystem::path path;
};

int run(const Options& opt) {
  WorkloadSpec w = make_workload(opt.workload);
  if (opt.smoke) w.window_requests = 20'000;
  if (opt.age_requests >= 0)
    w.age_requests = static_cast<std::uint64_t>(opt.age_requests);
  const int setup_reps = opt.smoke ? 1 : kSetupReps;
  const int min_reps = opt.smoke ? 1 : 3;

  print_provenance(w, opt.seed, opt.seconds, opt.trace, setup_reps);
  if (!kOptimizedBuild) {
    std::fprintf(stderr, "error: refusing to report timings from a "
                         "non-optimised build (need -O2/-O3 and NDEBUG)\n");
    return 3;
  }

  const std::filesystem::path out_dir(opt.out_dir);
  const TempDir tmp(out_dir / ("tmp-" + std::to_string(getpid())));

  // Set-ups and replay rounds each run on the next CPU of the affinity set.
  // On a shared host a CPU can run the simulator ~1.5x slower for seconds
  // to minutes at a time (host placement and co-tenants), and the OS rarely
  // moves a lone busy thread, so one run could otherwise sit on a slow CPU
  // throughout.
  const std::vector<int> cpus = affinity_cpus();

  // 1. Set-up, repeated; the last one is kept for measurement.
  std::vector<double> setup_s, construct_s, precondition_s, age_s, gen_ns;
  Setup setup;
  for (int k = 0; k < setup_reps; ++k) {
    pin_to_cpu(cpus[k % cpus.size()]);
    setup = Setup{};  // free the previous device before building the next
    setup = build_setup(w, opt.seed);
    setup_s.push_back(setup.total_s());
    construct_s.push_back(setup.construct_s);
    precondition_s.push_back(setup.precondition_s);
    age_s.push_back(setup.age_s);
    gen_ns.push_back(setup.gen_s * 1e9 /
                     static_cast<double>(std::max<std::uint64_t>(
                         1, w.window_requests)));
  }
  const std::uint64_t age_gc = setup.age_gc_invocations;
  const double mapping_mib =
      static_cast<double>(setup.ssd->ftl().mapping_memory_bytes()) /
      (1024.0 * 1024.0);
  const nand::Geometry geo = w.ssd.geometry;
  std::unique_ptr<core::Ssd> ssd = std::move(setup.ssd);
  Bench bench(w, opt.seed, *ssd, std::move(setup.window), opt.trace,
              tmp.path);

  // 2. Replays, round-robin over the rep kinds this mode needs. The traced
  // run of a telemetry-probe workload also replays observed, which measures
  // the telemetry overhead and checks that observing changes nothing.
  const RepConfig primary{false, false};
  const RepConfig observed{true, false};
  const RepConfig traced{false, true};
  std::vector<RepConfig> kinds{primary};
  if (opt.trace) {
    if (w.telemetry_probe) kinds.push_back(observed);
    kinds.push_back(traced);
  }
  std::vector<RepResult> reps;
  const auto t_measure = Clock::now();
  for (int round = 0;; ++round) {
    if (round >= min_reps && seconds_since(t_measure) >= opt.seconds) break;
    pin_to_cpu(cpus[round % cpus.size()]);
    for (const RepConfig& k : kinds) reps.push_back(bench.run(k));
  }
  const double measure_s = seconds_since(t_measure);

  // 3. Guards.
  std::vector<std::string> errors;
  const WindowSim& ref = reps.front().sim;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const RepResult& r : reps) {
    attempted += r.sim.requests;
    failed += r.sim.failures;
    if (r.sim.digest != ref.digest)
      errors.push_back(std::string("sim_digest of a ") + r.cfg.label() +
                       " replay differs from the first replay's");
  }
  if (failed > 0)
    errors.push_back("error_rate > 0: " + std::to_string(failed) +
                     " failed requests (verify failures + io errors)");
  if (ref.ftl.gc_invocations == 0 || ref.dev.erases == 0)
    errors.push_back(
        "steady-state guard: the measured window has " +
        std::to_string(ref.ftl.gc_invocations) + " GC invocations and " +
        std::to_string(ref.dev.erases) +
        " erases; the device is not aged into steady state");

  const auto select = [&reps](RepConfig k, auto&& value) {
    std::vector<double> v;
    for (const RepResult& r : reps)
      if (r.cfg == k) v.push_back(value(r));
    return median(v);
  };
  const double n_req = static_cast<double>(bench.window_size());
  const auto ns_per_req = [n_req](const RepResult& r) {
    return r.wall_s * 1e9 / n_req;
  };

  // End-to-end metrics (untraced primary replays).
  const double sub_bytes = geo.subpage_bytes();
  const double host_bytes =
      static_cast<double>(ref.ftl.host_write_sectors) * sub_bytes;
  const double media_bytes =
      static_cast<double>(ref.dev.progs_full) * geo.page_bytes +
      static_cast<double>(ref.dev.progs_sub) * sub_bytes;
  const double sim_s = sim_time::to_seconds(ref.elapsed_us);
  // Load from other processes on the host only ever slows the simulator
  // down, and it comes in bursts. Every replay does the same work slice by
  // slice, so the sum over slices of each slice's fastest time is the
  // window's cost with the bursts taken out: the estimate of the
  // simulator's own cost that moves least with host load.
  const auto floor_s = [&reps, primary](std::vector<double> RepResult::*chunks) {
    std::vector<double> best;
    for (const RepResult& r : reps) {
      if (r.cfg != primary) continue;
      const std::vector<double>& v = r.*chunks;
      if (best.empty()) best = v;
      for (std::size_t i = 0; i < v.size(); ++i)
        best[i] = std::min(best[i], v[i]);
    }
    double sum = 0.0;
    for (const double s : best) sum += s;
    return sum;
  };
  const double floor_wall_s = floor_s(&RepResult::chunk_wall_s);
  const double floor_cpu_s = floor_s(&RepResult::chunk_cpu_s);
  const std::vector<Metric> e2e = {
      {"req_per_s", "1/s", n_req / floor_wall_s},
      {"req_per_cpu_s", "1/s", n_req / floor_cpu_s},
      {"setup_s", "s", median(setup_s)},
      {"peak_rss_mib", "MiB", peak_rss_mib()},
      {"sim_kiops", "kIOPS", sim_s > 0 ? n_req / sim_s / 1e3 : 0.0},
      {"sim_media_waf", "ratio",
       host_bytes > 0 ? media_bytes / host_bytes : 0.0},
      {"sim_erases_per_gib", "1/GiB",
       host_bytes > 0 ? static_cast<double>(ref.dev.erases) /
                            (host_bytes / (1024.0 * 1024.0 * 1024.0))
                      : 0.0},
      {"error_rate", "ratio",
       static_cast<double>(failed) / static_cast<double>(attempted)},
  };

  std::printf("# aged: %llu GC invocations during aging; window: %llu GC "
              "invocations, %llu erases over %.3f simulated s\n",
              static_cast<unsigned long long>(age_gc),
              static_cast<unsigned long long>(ref.ftl.gc_invocations),
              static_cast<unsigned long long>(ref.dev.erases), sim_s);
  std::printf("sim_digest: %016llx\n",
              static_cast<unsigned long long>(ref.digest));
  std::printf("replays: %zu (", reps.size());
  for (std::size_t i = 0; i < kinds.size(); ++i)
    std::printf("%s%s", i ? ", " : "", kinds[i].label());
  std::printf(") of %zu requests in %.2f s, rotating over %zu CPUs\n",
              bench.window_size(), measure_s, cpus.size());
  for (const RepConfig& k : kinds) {
    std::vector<double> v;
    for (const RepResult& r : reps)
      if (r.cfg == k) v.push_back(ns_per_req(r));
    std::sort(v.begin(), v.end());
    std::printf("  %-16s wall ns/req over %zu replays: min %.1f  median %.1f  "
                "max %.1f\n",
                k.label(), v.size(), v.front(), median(v), v.back());
  }
  std::printf("  %-16s wall ns/req summed over the fastest of each %zu-request "
              "slice: %.1f\n",
              primary.label(), kChunkRequests, floor_wall_s * 1e9 / n_req);
  print_metrics("end-to-end", e2e);

  std::vector<Metric> layers;
  if (opt.trace) {
    const auto per_req = [n_req](double total) { return total / n_req; };
    const auto per_kreq = [n_req](double count) {
      return count * 1000.0 / n_req;
    };
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const auto call_ns = [&](std::size_t k) {
      return select(traced, [k](const RepResult& r) {
        return r.ftl_calls.calls[k] == 0
                   ? 0.0
                   : static_cast<double>(r.ftl_calls.ns[k]) /
                         static_cast<double>(r.ftl_calls.calls[k]);
      });
    };
    const double wall = select(traced, ns_per_req);
    const double submit = select(traced, [&](const RepResult& r) {
      return per_req(static_cast<double>(r.submit_ns));
    });
    const double ftl_call = select(traced, [&](const RepResult& r) {
      return per_req(static_cast<double>(r.ftl_calls.total_ns()));
    });
    const double gc = select(traced, [&](const RepResult& r) {
      return per_req(static_cast<double>(r.sim.ftl.maint_gc_ns));
    });
    const double maint = select(traced, [&](const RepResult& r) {
      const ftl::FtlStats& f = r.sim.ftl;
      return per_req(static_cast<double>(f.maint_retention_ns +
                                         f.maint_wear_level_ns +
                                         f.maint_release_idle_ns));
    });
    const double untraced_wall = select(primary, ns_per_req);
    const double telemetry_overhead =
        w.telemetry_probe ? select(observed, ns_per_req) - untraced_wall : 0.0;
    const double lines = select(observed, [](const RepResult& r) {
      return static_cast<double>(r.telemetry_lines);
    });
    const ftl::FtlStats& f = ref.ftl;
    const nand::DeviceCounters& d = ref.dev;
    double util = 0.0;
    for (const SimTime b : ref.chip_busy) util += b;
    util = ref.chip_busy.empty() || ref.elapsed_us <= 0
               ? 0.0
               : util / static_cast<double>(ref.chip_busy.size()) /
                     ref.elapsed_us;

    layers = {
        {"workload.gen_ns_per_req", "ns", median(gen_ns)},
        {"core.construct_s", "s", median(construct_s)},
        {"core.precondition_s", "s", median(precondition_s)},
        {"core.age_s", "s", median(age_s)},
        {"sim.driver_self_ns_per_req", "ns", submit - ftl_call},
        {"sim.submit_ns_p50", "ns",
         select(traced, [](const RepResult& r) { return r.submit_p50_ns; })},
        {"sim.submit_ns_p99", "ns",
         select(traced, [](const RepResult& r) { return r.submit_p99_ns; })},
        {"ftl.call_ns_per_req", "ns", ftl_call},
        {"ftl.write_ns_per_call", "ns", call_ns(0)},
        {"ftl.read_ns_per_call", "ns", call_ns(1)},
        {"ftl.trim_ns_per_call", "ns", call_ns(2)},
        {"ftl.flush_ns_per_call", "ns", call_ns(3)},
        {"ftl.tick_ns_per_call", "ns", call_ns(4)},
        {"ftl.gc_ns_per_req", "ns", gc},
        {"ftl.maint_ns_per_req", "ns", maint},
        {"ftl.foreground_ns_per_req", "ns", ftl_call - gc - maint},
        {"ftl.gc_invocations_per_kreq", "count", per_kreq(f.gc_invocations)},
        {"ftl.rmw_per_kreq", "count", per_kreq(f.rmw_ops)},
        {"ftl.forward_migrations_per_kreq", "count",
         per_kreq(f.forward_migrations)},
        {"ftl.evictions_per_kreq", "count",
         per_kreq(f.cold_evictions + f.retention_evictions)},
        {"ftl.wl_relocations_per_kreq", "count",
         per_kreq(f.wear_level_relocations)},
        {"ftl.gc_copy_sectors_per_erase", "ratio",
         ratio(f.gc_copy_sectors, d.erases)},
        {"ftl.buffer_hit_rate", "ratio",
         ratio(f.buffer_hits, f.host_read_sectors + f.host_write_sectors)},
        {"ftl.mapping_mib", "MiB", mapping_mib},
        {"nand.progs_full_per_kreq", "count", per_kreq(d.progs_full)},
        {"nand.progs_sub_per_kreq", "count", per_kreq(d.progs_sub)},
        {"nand.reads_per_kreq", "count", per_kreq(d.reads_full + d.reads_sub)},
        {"nand.erases_per_kreq", "count", per_kreq(d.erases)},
        {"nand.chip_util_mean", "ratio", util},
        {"telemetry.overhead_ns_per_req", "ns", telemetry_overhead},
        {"telemetry.lines_per_kreq", "count", per_kreq(lines)},
        {"bench.residual_ns_per_req", "ns", wall - submit},
        {"trace.wall_ns_per_req", "ns", wall},
        {"trace.overhead_pct", "%",
         untraced_wall > 0 ? (wall / untraced_wall - 1.0) * 100.0 : 0.0},
    };
    // Self time per layer; the rows sum to the traced wall per request.
    std::printf("\n%-44s %12s %8s\n", "traced wall per request by layer",
                "ns/req", "share");
    const struct {
      const char* name;
      double ns;
    } rows[] = {
        {"sim  (Driver::submit self)", submit - ftl_call},
        {"ftl  foreground (incl. nand, telemetry)", ftl_call - gc - maint},
        {"ftl  GC (FtlStats::maint_gc_ns)", gc},
        {"ftl  maintenance (retention/WL/idle)", maint},
        {"bench loop residual (fetch + loop + clocks)", wall - submit},
    };
    double sum = 0.0;
    for (const auto& row : rows) {
      std::printf("%-44s %12.1f %7.1f%%\n", row.name, row.ns,
                  wall > 0 ? 100.0 * row.ns / wall : 0.0);
      sum += row.ns;
    }
    std::printf("%-44s %12.1f %7.1f%%\n", "total (= traced wall per request)",
                sum, wall > 0 ? 100.0 * sum / wall : 0.0);
    print_metrics("per-layer (traced replays)", layers);

    const std::filesystem::path span_path =
        out_dir / (w.name + "-seed" + std::to_string(opt.seed) +
                   ".trace.json");
    bench.spans().write_chrome_trace(span_path.string());
    std::printf("spans: %zu written to %s\n", bench.spans().size(),
                span_path.string().c_str());
  }

  for (const std::string& e : errors)
    std::fprintf(stderr, "FAIL: %s\n", e.c_str());
  const bool correct = errors.empty();
  // The JSON carries the end-to-end metrics untraced and the per-layer ones
  // traced; error_rate is reported through attempted/failed instead, since
  // it is zero on every passing run.
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : opt.trace ? layers : e2e) {
    if (m.name == "error_rate") continue;
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::parse(argc, argv);
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
