#include "core/parallel_runner.h"

#include <chrono>
#include <deque>
#include <exception>
#include <mutex>
#include <ostream>
#include <thread>

#include "core/build_info.h"
#include "telemetry/json.h"
#include "util/logger.h"
#include "util/rng.h"

namespace esp::core {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Per-worker work queue. Owners pop from the front (cache-friendly for
/// the round-robin initial partition); thieves steal from the back so they
/// contend with the owner as little as possible. A mutex per deque is
/// plenty here: cells run for seconds, steals happen a handful of times
/// per grid.
struct WorkQueue {
  std::mutex mu;
  std::deque<std::size_t> items;

  bool pop_front(std::size_t* out) {
    std::lock_guard<std::mutex> lock(mu);
    if (items.empty()) return false;
    *out = items.front();
    items.pop_front();
    return true;
  }
  bool steal_back(std::size_t* out) {
    std::lock_guard<std::mutex> lock(mu);
    if (items.empty()) return false;
    *out = items.back();
    items.pop_back();
    return true;
  }
};

/// Shared work-stealing drive: round-robin initial partition, owners pop
/// front, thieves steal back, jobs == 1 runs inline. `body(index, worker)`
/// must not throw (callers wrap their work to capture errors).
void drive_work_stealing(
    unsigned jobs, std::size_t count,
    const std::function<void(std::size_t, unsigned)>& body) {
  std::vector<WorkQueue> queues(jobs);
  for (std::size_t i = 0; i < count; ++i)
    queues[i % jobs].items.push_back(i);

  const auto worker_main = [&](unsigned w) {
    std::size_t item = 0;
    for (;;) {
      if (queues[w].pop_front(&item)) {
        body(item, w);
        continue;
      }
      bool stole = false;
      for (unsigned off = 1; off < jobs; ++off) {
        if (queues[(w + off) % jobs].steal_back(&item)) {
          stole = true;
          break;
        }
      }
      if (!stole) return;  // every queue drained: done
      body(item, w);
    }
  };

  if (jobs == 1) {
    worker_main(0);  // inline: no thread overhead for sequential runs
  } else {
    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (unsigned w = 0; w < jobs; ++w) workers.emplace_back(worker_main, w);
    for (auto& t : workers) t.join();
  }
}

}  // namespace

std::uint64_t stable_cell_seed(std::string_view key, std::uint64_t base_seed) {
  // FNV-1a 64-bit over the key bytes.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  const std::uint64_t mixed = splitmix64(h ^ splitmix64(base_seed));
  return mixed != 0 ? mixed : 0x9e3779b97f4a7c15ull;
}

unsigned run_tasks(unsigned jobs, std::size_t count,
                   const std::function<void(std::size_t)>& fn) {
  if (count == 0) return 0;
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  jobs = std::min<unsigned>(jobs, static_cast<unsigned>(count));

  std::mutex error_mu;
  std::exception_ptr first_error;
  drive_work_stealing(jobs, count, [&](std::size_t i, unsigned) {
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) first_error = std::current_exception();
    }
  });
  if (first_error) std::rethrow_exception(first_error);
  return jobs;
}

std::vector<CellResult> ParallelRunner::run(
    const std::vector<ExperimentCell>& cells) {
  using Clock = std::chrono::steady_clock;

  manifest_ = RunManifest{};
  manifest_.jobs_requested = jobs_;

  std::vector<CellResult> results(cells.size());
  if (cells.empty()) return results;

  unsigned jobs = jobs_;
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  jobs = std::min<unsigned>(jobs, static_cast<unsigned>(cells.size()));
  manifest_.jobs_used = jobs;

  const auto run_cell = [&](std::size_t i, unsigned worker) {
    const auto cell_start = Clock::now();
    CellResult& out = results[i];
    out.key = cells[i].key;
    out.worker = worker;
    const ExperimentSpec& spec = cells[i].spec;
    out.seed = spec.workload.seed;
    out.stream_seeds.emplace_back("workload", spec.workload.seed);
    for (std::size_t t = 0; t < spec.tenants.size(); ++t)
      out.stream_seeds.emplace_back("tenant" + std::to_string(t),
                                    spec.tenants[t].workload.seed);
    try {
      out.result = run_experiment(spec);
      out.ok = true;
    } catch (const std::exception& e) {
      out.error = e.what();
      ESP_LOG_ERROR("cell '%s' failed: %s", out.key.c_str(), e.what());
    } catch (...) {
      out.error = "unknown exception";
      ESP_LOG_ERROR("cell '%s' failed: unknown exception", out.key.c_str());
    }
    out.wall_seconds =
        std::chrono::duration<double>(Clock::now() - cell_start).count();
  };

  const auto grid_start = Clock::now();
  drive_work_stealing(jobs, cells.size(), run_cell);
  manifest_.wall_seconds =
      std::chrono::duration<double>(Clock::now() - grid_start).count();

  return results;
}

void ParallelRunner::write_manifest_json(const RunManifest& manifest,
                                         const std::vector<CellResult>& cells,
                                         std::ostream& os) {
  telemetry::JsonWriter w(os);
  w.begin_object();
  w.kv("version", build_version());
  w.kv("git", build_git_describe());
  w.kv("geometry_profiles", build_geometry_profiles());
  w.newline();
  w.kv("jobs_requested", static_cast<std::uint64_t>(manifest.jobs_requested));
  w.kv("jobs_used", static_cast<std::uint64_t>(manifest.jobs_used));
  w.kv("wall_seconds", manifest.wall_seconds);
  w.newline();
  w.key("cells");
  w.begin_array();
  for (const CellResult& cell : cells) {
    w.newline();
    w.begin_object();
    w.kv("key", cell.key);
    w.kv("seed", cell.seed);
    w.kv("ok", cell.ok);
    if (!cell.error.empty()) w.kv("error", cell.error);
    w.kv("wall_seconds", cell.wall_seconds);
    w.kv("worker", static_cast<std::uint64_t>(cell.worker));
    // RNG provenance: the exact starting engine state of every request
    // stream. Redundant with the seed by construction (SplitMix64
    // expansion), stamped so replay equivalence can be checked against
    // an independent implementation without re-deriving the expansion.
    if (!cell.stream_seeds.empty()) {
      w.key("rng");
      w.begin_object();
      for (const auto& [name, seed] : cell.stream_seeds) {
        w.key(name);
        w.begin_object();
        w.kv("seed", seed);
        w.kv("xoshiro256ss_state", util::Xoshiro256(seed).describe_state());
        w.end_object();
      }
      w.end_object();
    }
    // Sidecar accounting: "did any stream drop data?" without re-reading
    // the JSONL files.
    if (cell.result.sidecars.reported()) {
      w.key("sidecars");
      cell.result.sidecars.write_json(w);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

}  // namespace esp::core
