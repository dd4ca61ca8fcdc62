#include "ftl/cgm_ftl.h"

#include <algorithm>
#include <array>
#include <optional>

namespace esp::ftl {

CgmFtl::CgmFtl(nand::NandDevice& dev, const Config& config)
    : FtlBase(dev, config, "cgmFTL", "CGMF"),
      pool_(dev, allocator_, fullpage_config(), stats_, logical_pages()) {}

SimTime CgmFtl::wear_level(SimTime now, bool /*turn*/) {
  return pool_.static_wear_level(now, config_.wl_pe_threshold);
}

SimTime CgmFtl::write_lpn(std::uint64_t lpn, std::uint32_t first_slot,
                          std::uint32_t slot_count, bool small_request,
                          SimTime now) {
  const std::uint32_t subs = geo_.subpages_per_page;
  std::array<std::uint64_t, nand::kMaxSubpagesPerPage> page_tokens{};
  const std::span<std::uint64_t> tokens(page_tokens.data(), subs);
  SimTime t = now;

  const bool is_rmw =
      slot_count < subs && pool_.page_of(lpn) != nand::kUnmapped;
  // The whole read + merge + program services a small write via RMW; any
  // GC the program triggers nests under this scope (chain host>rmw>gc).
  std::optional<telemetry::CauseScope> rmw_cause;
  if (is_rmw && tel_)
    rmw_cause.emplace(tel_, telemetry::Cause::kRmw, lpn, now);
  if (is_rmw) {
    // Read-modify-write: fetch the old page to preserve untouched sectors.
    t = pool_.read_for_rmw(lpn, tokens, t);
  }

  for (std::uint32_t i = 0; i < slot_count; ++i) {
    const std::uint32_t slot = first_slot + i;
    const std::uint64_t sector = lpn * subs + slot;
    tokens[slot] = make_token(sector, ++version_[sector]);
  }

  const SimTime done = pool_.write_page(lpn, tokens, t);
  if (small_request)
    stats_.small_service_flash_bytes += geo_.page_bytes;
  if (tel_ && is_rmw)
    tel_->record_op({telemetry::OpKind::kRmw, now, done, slot_count});
  return done;
}

SimTime CgmFtl::write_sectors(std::uint64_t sector, std::uint32_t count,
                              bool /*sync*/, bool small, SimTime now) {
  const std::uint32_t subs = geo_.subpages_per_page;
  SimTime done = now;
  std::uint64_t s = sector;
  std::uint32_t remaining = count;
  while (remaining > 0) {
    const std::uint64_t lpn = s / subs;
    const auto slot = static_cast<std::uint32_t>(s % subs);
    const std::uint32_t in_page = std::min(remaining, subs - slot);
    done = std::max(done, write_lpn(lpn, slot, in_page, small, now));
    s += in_page;
    remaining -= in_page;
  }
  return done;
}

IoResult CgmFtl::read(std::uint64_t sector, std::uint32_t count, SimTime now,
                      std::vector<std::uint64_t>* tokens) {
  begin_read(sector, count, tokens);
  const std::uint32_t subs = geo_.subpages_per_page;
  SimTime done = now;
  bool ok = true;
  std::uint64_t s = sector;
  std::uint32_t remaining = count;
  std::uint32_t out = 0;
  while (remaining > 0) {
    const std::uint64_t lpn = s / subs;
    const auto slot = static_cast<std::uint32_t>(s % subs);
    const std::uint32_t in_page = std::min(remaining, subs - slot);
    const std::uint64_t lin = pool_.page_of(lpn);
    if (lin != nand::kUnmapped) {
      const auto read = dev_.read_page(codec_.decode_page(lin), now);
      ++stats_.flash_reads;
      for (std::uint32_t i = 0; i < in_page; ++i) {
        const std::uint64_t token = slot_token(read, slot + i, ok);
        if (tokens) (*tokens)[out + i] = token;
      }
      done = std::max(done, read.done);
    }
    s += in_page;
    remaining -= in_page;
    out += in_page;
  }
  return IoResult{done, ok};
}

std::uint64_t CgmFtl::mapping_memory_bytes() const {
  // One 32-bit PPA per logical page.
  return pool_.lpns() * sizeof(std::uint32_t);
}

void CgmFtl::attach(telemetry::Telemetry* tel) {
  pool_.set_telemetry(tel);
  if (tel)
    gauge(*tel, "fullpage_blocks", [this] { return pool_.blocks_in_use(); });
}

}  // namespace esp::ftl
