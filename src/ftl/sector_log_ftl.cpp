#include "ftl/sector_log_ftl.h"

#include <algorithm>
#include <array>

namespace esp::ftl {

SectorLogFtl::SectorLogFtl(nand::NandDevice& dev, const Config& config)
    : BufferedFtl(dev, config, "sectorLogFTL", "SLOG", MergeUnit::kPageGroup),
      pool_data_(dev, allocator_, fullpage_config(), stats_, logical_pages()),
      pool_log_(dev, allocator_,
                pool_config(
                    region_quota_blocks(geo_, config.log_region_fraction)),
                stats_, config.logical_sectors, &pool_data_) {
  check_region(config.log_region_fraction);
}

SimTime SectorLogFtl::wear_level(SimTime now, bool turn) {
  return turn ? pool_data_.static_wear_level(now, config_.wl_pe_threshold)
              : pool_log_.static_wear_level(now, config_.wl_pe_threshold);
}

SimTime SectorLogFtl::write_full_lpn(std::uint64_t lpn,
                                     const BufferedSector* group,
                                     SimTime now) {
  const std::uint32_t subs = geo_.subpages_per_page;
  std::array<std::uint64_t, nand::kMaxSubpagesPerPage> tokens{};
  std::uint64_t small_sectors = 0;
  for (std::uint32_t s = 0; s < subs; ++s) {
    pool_log_.drop(group[s].sector);
    tokens[s] = group[s].token;
    if (group[s].small) ++small_sectors;
  }
  const SimTime done = pool_data_.write_page(
      lpn, std::span<const std::uint64_t>(tokens.data(), subs), now);
  stats_.small_service_flash_bytes += small_sectors * geo_.subpage_bytes();
  return done;
}

SimTime SectorLogFtl::append_to_log(std::span<const BufferedSector> group,
                                    SimTime now) {
  // One full-page program carrying this (<= Nsub) group -- logical-level
  // subpage granularity, physical-level full-page cost.
  std::array<SectorWrite, nand::kMaxSubpagesPerPage> writes{};
  std::uint64_t small_in_group = 0;
  for (std::size_t k = 0; k < group.size(); ++k) {
    writes[k] = SectorWrite{group[k].sector, group[k].token};
    if (group[k].small) ++small_in_group;
  }
  const SimTime done = pool_log_.write_group(
      std::span<const SectorWrite>(writes.data(), group.size()), now);
  // Multiply before dividing (as FgmFtl::flush_run does): page_bytes /
  // group.size() truncates for 3-sector groups and would leak bytes of
  // attributed cost.
  stats_.small_service_flash_bytes +=
      small_in_group * geo_.page_bytes / group.size();
  return done;
}

SimTime SectorLogFtl::flush_run(std::span<const BufferedSector> run,
                                SimTime now) {
  // Placement mirrors subFTL: complete logical pages to the data region,
  // the rest appended to the log.
  const std::uint32_t subs = geo_.subpages_per_page;
  SimTime done = now;
  std::size_t i = 0;
  while (i < run.size()) {
    const std::uint64_t lpn = run[i].sector / subs;
    std::size_t j = i;
    while (j < run.size() && run[j].sector / subs == lpn) ++j;
    if (j - i == subs) {
      done = std::max(done, write_full_lpn(lpn, &run[i], now));
    } else {
      done = std::max(done, append_to_log(run.subspan(i, j - i), now));
    }
    i = j;
  }
  return done;
}

IoResult SectorLogFtl::read(std::uint64_t sector, std::uint32_t count,
                            SimTime now, std::vector<std::uint64_t>* tokens) {
  begin_read(sector, count, tokens);
  const std::uint32_t subs = geo_.subpages_per_page;
  SimTime done = now;
  bool ok = true;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t s = sector + i;
    std::uint64_t token = 0;
    if (buffered(s, &token)) {
    } else if (pool_log_.subpage_of(s) != nand::kUnmapped) {
      token = read_subpage(pool_log_.subpage_of(s), now, done, ok);
    } else if (const std::uint64_t lpn = s / subs;
               pool_data_.page_of(lpn) != nand::kUnmapped) {
      const auto read =
          dev_.read_page(codec_.decode_page(pool_data_.page_of(lpn)), now);
      ++stats_.flash_reads;
      token = slot_token(read, static_cast<std::uint32_t>(s % subs), ok);
      done = std::max(done, read.done);
    }
    if (tokens) (*tokens)[i] = token;
  }
  return IoResult{done, ok};
}

void SectorLogFtl::trim_page(std::uint64_t lpn) {
  const std::uint32_t subs = geo_.subpages_per_page;
  for (std::uint64_t s = lpn * subs; s < (lpn + 1) * subs; ++s) {
    buffer_.erase(s);
    pool_log_.drop(s);
  }
  pool_data_.drop(lpn);
}

std::uint64_t SectorLogFtl::mapping_memory_bytes() const {
  // Coarse table plus the fine log map (modeled 16 bytes/entry).
  return pool_data_.lpns() * sizeof(std::uint32_t) +
         pool_log_.valid_sectors() * 16;
}

void SectorLogFtl::attach(telemetry::Telemetry* tel) {
  pool_data_.set_telemetry(tel);
  pool_log_.set_telemetry(tel);
  if (!tel) return;
  gauge(*tel, "region_blocks", [this] { return pool_log_.blocks_in_use(); });
  gauge(*tel, "region_valid_sectors",
        [this] { return pool_log_.valid_sectors(); });
  gauge(*tel, "fullpage_blocks",
        [this] { return pool_data_.blocks_in_use(); });
}

void SectorLogFtl::save_body(util::StateWriter& w) const {
  pool_data_.save_state(w);
  pool_log_.save_state(w);
  buffer_.save_state(w);
}

void SectorLogFtl::load_body(util::StateReader& r) {
  pool_data_.load_state(r);
  pool_log_.load_state(r);
  buffer_.load_state(r);
}

}  // namespace esp::ftl
