#include "ftl/fgm_ftl.h"

#include <algorithm>
#include <array>

namespace esp::ftl {

FgmFtl::FgmFtl(nand::NandDevice& dev, const Config& config)
    : BufferedFtl(dev, config, "fgmFTL", "FGMF", MergeUnit::kRun),
      pool_(dev, allocator_, pool_config(), stats_, config.logical_sectors) {}

SimTime FgmFtl::wear_level(SimTime now, bool /*turn*/) {
  return pool_.static_wear_level(now, config_.wl_pe_threshold);
}

SimTime FgmFtl::flush_run(std::span<const BufferedSector> run,
                          SimTime now) {
  // The FGM scheme merges small writes only when their logical block
  // addresses are consecutive (paper Sec. 2). Because mapping is
  // per-sector, a contiguous run packs densely into pages with NO
  // alignment requirement (this is why FGM dodges the misaligned-write
  // penalty of footnote 1); anything shorter than a full page goes out
  // sparse -- the internal fragmentation Fig. 2 measures.
  // (`run` is one sorted contiguous run; chop it into page-sized groups.)
  const std::uint32_t subs = geo_.subpages_per_page;
  SimTime done = now;
  for (std::size_t i = 0; i < run.size(); i += subs) {
    const std::size_t n = std::min<std::size_t>(subs, run.size() - i);
    std::array<SectorWrite, nand::kMaxSubpagesPerPage> group{};
    std::uint64_t small_in_group = 0;
    for (std::size_t k = 0; k < n; ++k) {
      group[k] = SectorWrite{run[i + k].sector, run[i + k].token};
      if (run[i + k].small) ++small_in_group;
    }
    done = std::max(done, pool_.write_group(
                              std::span<const SectorWrite>(group.data(), n),
                              now));
    // Attribute the page's cost proportionally to its small-write sectors:
    // a lone sync 4-KB sector pays the whole 16-KB page (request WAF 4),
    // four merged ones pay 4 KB each (request WAF 1). Multiply before
    // dividing -- page_bytes / n truncates for 3-sector merges and would
    // leak up to n-1 bytes of attributed cost per group.
    stats_.small_service_flash_bytes +=
        small_in_group * geo_.page_bytes / n;
  }
  return done;
}

IoResult FgmFtl::read(std::uint64_t sector, std::uint32_t count, SimTime now,
                      std::vector<std::uint64_t>* tokens) {
  begin_read(sector, count, tokens);
  SimTime done = now;
  bool ok = true;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t s = sector + i;
    std::uint64_t token = 0;
    if (!buffered(s, &token) && pool_.subpage_of(s) != nand::kUnmapped)
      token = read_subpage(pool_.subpage_of(s), now, done, ok);
    if (tokens) (*tokens)[i] = token;
  }
  return IoResult{done, ok};
}

void FgmFtl::trim_page(std::uint64_t lpn) {
  // Although the mapping is per-sector, only whole pages are dropped --
  // including their buffered copies (see FtlBase::trim).
  const std::uint32_t subs = geo_.subpages_per_page;
  for (std::uint64_t s = lpn * subs; s < (lpn + 1) * subs; ++s) {
    buffer_.erase(s);
    pool_.drop(s);
  }
}

std::uint64_t FgmFtl::mapping_memory_bytes() const {
  // One 32-bit sub-PPA per sector: Nsub x the CGM table.
  return pool_.sectors() * sizeof(std::uint32_t);
}

void FgmFtl::attach(telemetry::Telemetry* tel) {
  pool_.set_telemetry(tel);
  if (tel)
    gauge(*tel, "fine_blocks", [this] { return pool_.blocks_in_use(); });
}

void FgmFtl::save_body(util::StateWriter& w) const {
  pool_.save_state(w);
  buffer_.save_state(w);
}

void FgmFtl::load_body(util::StateReader& r) {
  pool_.load_state(r);
  buffer_.load_state(r);
}

}  // namespace esp::ftl
