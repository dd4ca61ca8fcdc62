// Parallel deterministic experiment runner.
//
// Bench grids (figure reproductions, parameter sweeps) are embarrassingly
// parallel: every cell is an independent single-threaded simulation. This
// runner executes a list of ExperimentCells on a work-stealing thread pool
// while keeping every per-cell result BIT-IDENTICAL to a sequential run:
//
//   * determinism by construction -- each cell runs with the seeds its
//     spec carries, which a grid derives from the cell's stable key
//     (stable_cell_seed; never from schedule order, thread id, or
//     completion order), and a simulation shares no mutable state with its
//     siblings (the one historical global, the logger's sim-time provider,
//     is thread-local);
//   * results are returned in input order, so any cross-cell aggregation
//     a caller does over them has a fixed order regardless of --jobs;
//   * a machine-readable manifest records what ran where (key, seed,
//     worker, wall time) for provenance and CI determinism diffs.
//
// See docs/PARALLEL_RUNNER.md for the full contract.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"

namespace esp::core {

/// One unit of work: a stable key naming the cell plus the spec to run.
/// Keys should be path-like and unique within a run ("fig8/varmail/subFTL");
/// the key is the cell's identity in the manifest and the stable input a
/// grid seeds the cell from (stable_cell_seed).
struct ExperimentCell {
  std::string key;
  ExperimentSpec spec;
};

/// Outcome of one cell. `ok == false` means the cell threw; `error` carries
/// the exception message and `result` is default-constructed.
struct CellResult {
  std::string key;
  std::uint64_t seed = 0;  ///< workload seed the cell actually ran with
  bool ok = false;
  std::string error;
  double wall_seconds = 0.0;  ///< host wall-clock spent on this cell
  unsigned worker = 0;        ///< pool worker that executed the cell
  /// Every independent request stream the cell drove, with the seed it
  /// actually ran with: "workload" plus one "tenantN" entry per tenant
  /// lane. RNG provenance for the manifest -- a stream's full initial
  /// engine state is derivable from its seed alone (SplitMix64 expansion).
  std::vector<std::pair<std::string, std::uint64_t>> stream_seeds;
  RunResult result;
};

/// Deterministic seed for a cell: FNV-1a over the key, mixed with the base
/// seed through a splitmix64 finalizer. Depends ONLY on (key, base_seed) --
/// never on schedule order -- and is never 0 (Xoshiro rejects 0 states).
std::uint64_t stable_cell_seed(std::string_view key, std::uint64_t base_seed);

/// Generic deterministic fan-out on the same work-stealing pool the
/// experiment grids use: runs fn(0) .. fn(count - 1), each exactly once,
/// across `jobs` workers (0 = hardware_concurrency; never more workers
/// than tasks; jobs == 1 runs inline with no thread overhead).
///
/// The determinism contract is the caller's to uphold, same as for
/// experiment grids: tasks share no mutable state, any randomness inside a
/// task is seeded from the task's stable identity (stable_cell_seed over a
/// key naming it -- never from the schedule), and each task writes only to
/// its own pre-allocated result slot so aggregation can happen on the
/// joining thread in index order. The Monte-Carlo characterization benches
/// (fig4/fig5) fan word-line populations out through this.
///
/// If any task throws, the first exception (in completion order) is
/// rethrown on the calling thread after all workers drain. Returns the
/// number of workers actually used.
unsigned run_tasks(unsigned jobs, std::size_t count,
                   const std::function<void(std::size_t)>& fn);

/// Provenance record of one run() call; the cells are the CellResults
/// run() returns.
struct RunManifest {
  unsigned jobs_requested = 0;
  unsigned jobs_used = 0;
  double wall_seconds = 0.0;  ///< whole-grid wall time (fork to join)
};

class ParallelRunner {
 public:
  /// `jobs` worker threads; 0 = std::thread::hardware_concurrency(). The
  /// pool never spawns more workers than cells.
  explicit ParallelRunner(unsigned jobs = 0) : jobs_(jobs) {}

  /// Runs every cell with the seeds its spec carries; returns results in
  /// input order. Cells that throw come back with ok == false instead of
  /// aborting the grid. Callable repeatedly; the manifest covers the LAST
  /// run only.
  std::vector<CellResult> run(const std::vector<ExperimentCell>& cells);

  const RunManifest& manifest() const { return manifest_; }

  /// Serializes a manifest and the run's cells as a stable, diff-friendly
  /// JSON object: per cell its key, seed, outcome, RNG provenance and,
  /// when it streamed, its SidecarCounts. Wall times and workers are
  /// host-side and NOT deterministic; CI determinism checks should compare
  /// the cells without them, and bench payloads, not timings.
  static void write_manifest_json(const RunManifest& manifest,
                                  const std::vector<CellResult>& cells,
                                  std::ostream& os);

 private:
  unsigned jobs_;
  RunManifest manifest_;
};

}  // namespace esp::core
