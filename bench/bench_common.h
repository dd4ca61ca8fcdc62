// Shared configuration for the figure/table reproduction benches.
//
// All FTL-level benches run on a geometry that is the paper's platform
// (8 channels x 4 TLC chips, 16-KB pages, 4-KB subpages) scaled down in
// block count from 16 GiB to 2 GiB so that a full table regenerates in
// seconds on one core. The paper itself argues this scaling is sound:
// "this reduction of the storage capacity did not distort experimental
// results because the performance of the FTL was decided by the
// characteristics of input workloads, not by the storage capacity."
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/experiment.h"
#include "core/ssd.h"
#include "workload/profiles.h"

namespace esp::bench {

/// Paper platform, capacity-scaled: 8ch x 4chip x 16blk x 128pg x 16KB
/// = 1 GiB raw.
inline nand::Geometry scaled_geometry() {
  nand::Geometry geo;
  geo.channels = 8;
  geo.chips_per_channel = 4;
  geo.blocks_per_chip = 16;
  geo.pages_per_block = 128;
  geo.page_bytes = 16 * 1024;
  geo.subpages_per_page = 4;
  return geo;
}

inline core::SsdConfig scaled_config(core::FtlKind kind) {
  core::SsdConfig cfg;
  cfg.geometry = scaled_geometry();
  cfg.ftl = kind;
  cfg.logical_fraction = 0.80;  // max fraction compatible with the 20% region
  cfg.buffer_sectors = 1024;
  cfg.gc_reserve_blocks = 16;
  cfg.queue_depth = 128;
  return cfg;
}

/// Requests that precede every measured window so GC is in steady state
/// (the preconditioned device still has free blocks; the paper's long
/// benchmark runs burn through them before the reported numbers matter).
inline constexpr std::uint64_t kWarmupRequests = 100000;

/// Requests of `params`' stream that write about `write_sectors` host
/// sectors, from its mean write size and read share. The paper benches size
/// warmup and measurement this way, so every benchmark/FTL cell writes the
/// same host volume and GC counts compare one-to-one.
inline std::uint64_t requests_writing(const workload::SyntheticParams& params,
                                      double write_sectors) {
  const double write_fraction = 1.0 - params.read_fraction;
  const double avg_large =
      0.5 * (params.large_pages_min + params.large_pages_max) *
      params.sectors_per_page;
  const double avg_small =
      0.5 * (params.small_sectors_min + params.small_sectors_max);
  const double avg_write =
      params.r_small * avg_small + (1.0 - params.r_small) * avg_large;
  return static_cast<std::uint64_t>(write_sectors /
                                    (write_fraction * avg_write));
}

inline void print_header(const char* what,
                         const nand::Geometry& geo = scaled_geometry()) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what);
  std::printf("device: %s\n", geo.describe().c_str());
  std::printf("==============================================================\n");
}

}  // namespace esp::bench
