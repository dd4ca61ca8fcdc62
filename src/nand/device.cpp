#include "nand/device.h"

#include <algorithm>
#include <stdexcept>

#include "telemetry/telemetry.h"

namespace esp::nand {

NandDevice::NandDevice(const Geometry& geo, const TimingSpec& timing,
                       const RetentionModel& retention)
    : geo_(geo),
      timing_(timing),
      retention_(retention),
      channel_busy_until_(geo.channels, 0.0),
      chip_busy_until_(geo.total_chips(), 0.0),
      chip_busy_accum_(geo.total_chips(), 0.0),
      channel_busy_accum_(geo.channels, 0.0) {
  geo_.validate();
  const std::size_t block_words =
      static_cast<std::size_t>(geo_.pages_per_block) *
      Block::record_words(geo_.subpages_per_page);
  arena_.resize(geo_.total_blocks() * block_words);
  const std::span<std::uint64_t> arena(arena_);
  blocks_.reserve(geo_.total_blocks());
  for (std::size_t i = 0; i < geo_.total_blocks(); ++i)
    blocks_.emplace_back(geo_.pages_per_block, geo_.subpages_per_page,
                         arena.subspan(i * block_words, block_words));
}

Block& NandDevice::block_ref(std::uint32_t chip, std::uint32_t blk) {
  if (chip >= geo_.total_chips() || blk >= geo_.blocks_per_chip)
    throw std::out_of_range("NandDevice: chip/block out of range");
  return blocks_[static_cast<std::size_t>(chip) * geo_.blocks_per_chip + blk];
}

const Block& NandDevice::block(std::uint32_t chip, std::uint32_t blk) const {
  if (chip >= geo_.total_chips() || blk >= geo_.blocks_per_chip)
    throw std::out_of_range("NandDevice: chip/block out of range");
  return blocks_[static_cast<std::size_t>(chip) * geo_.blocks_per_chip + blk];
}

SimTime NandDevice::schedule(std::uint32_t chip, SimTime array_us,
                             std::uint64_t xfer_bytes, bool transfer_first,
                             SimTime now) {
  const std::uint32_t ch = geo_.channel_of_chip(chip);
  const SimTime xfer = xfer_bytes ? timing_.transfer_us(xfer_bytes)
                                  : timing_.cmd_overhead_us;
  const SimTime start =
      std::max({now, channel_busy_until_[ch], chip_busy_until_[chip]});
  SimTime done;
  if (transfer_first) {
    // Write path: data moves over the channel, then the array programs.
    channel_busy_until_[ch] = start + xfer;
    done = start + xfer + array_us;
  } else {
    // Read path: array senses first, then data moves over the channel.
    channel_busy_until_[ch] = start + array_us + xfer;
    done = start + array_us + xfer;
  }
  chip_busy_until_[chip] = done;
  chip_busy_accum_[chip] += done - start;
  channel_busy_accum_[ch] += xfer;
  return done;
}

OpAck NandDevice::program_full(const PageAddr& addr,
                               std::span<const std::uint64_t> tokens,
                               SimTime now) {
  Block& blk = block_ref(addr.chip, addr.block);
  blk.program_full(addr.page, tokens, now);
  ++counters_.progs_full;
  OpAck ack{schedule(addr.chip, timing_.prog_full_us, geo_.page_bytes,
                     /*transfer_first=*/true, now)};
  if (tel_)
    tel_->record_op({telemetry::OpKind::kProgFull, now, ack.done, addr.page,
                     0, addr.chip, addr.block});
  return ack;
}

OpAck NandDevice::program_subpage(const SubpageAddr& addr, std::uint64_t token,
                                  SimTime now) {
  Block& blk = block_ref(addr.page.chip, addr.page.block);
  blk.program_subpage(addr.page.page, addr.slot, token, now);
  ++counters_.progs_sub;
  OpAck ack{schedule(addr.page.chip, timing_.prog_sub_us,
                     geo_.subpage_bytes(), /*transfer_first=*/true, now)};
  if (tel_)
    tel_->record_op({telemetry::OpKind::kProgSub, now, ack.done, addr.slot,
                     addr.page.page, addr.page.chip, addr.page.block});
  return ack;
}

ReadStatus NandDevice::verdict(const Block& blk, PageMode mode,
                               const SlotView& view, SimTime now) {
  switch (view.state) {
    case SlotState::kEmpty:
      return ReadStatus::kEmpty;
    case SlotState::kCorrupted:
      ++counters_.corrupted_reads;
      return ReadStatus::kCorrupted;
    case SlotState::kStored:
      break;
  }
  const SimTime age = now - view.written_at;
  if (reliability_mode_ == ReliabilityMode::kDeterministic) {
    const SimTime horizon =
        mode == PageMode::kFull
            ? retention_.fullpage_horizon(blk.pe_cycles())
            : retention_.subpage_horizon(view.npp, blk.pe_cycles());
    if (age > horizon) {
      ++counters_.uncorrectable_reads;
      return ReadStatus::kUncorrectable;
    }
  } else {
    // Probabilistic: map the normalized model BER to a raw BER such that
    // the normalized ECC limit coincides with the code's capability, then
    // draw each of the subpage's codewords from the binomial tail.
    const double months = age / sim_time::kMonth;
    const double norm_ber =
        mode == PageMode::kFull
            ? retention_.fullpage_ber(months, blk.pe_cycles())
            : retention_.subpage_ber(view.npp, months, blk.pe_cycles());
    const double raw_ber = norm_ber * ecc_.spec().max_raw_ber() /
                           retention_.params().ecc_limit;
    const double p_codeword = ecc_.uncorrectable_probability(raw_ber);
    const auto codewords = ecc_.codewords_for(geo_.subpage_bytes());
    double p_ok = 1.0;
    for (std::uint32_t i = 0; i < codewords; ++i) p_ok *= 1.0 - p_codeword;
    if (fault_rng_.chance(1.0 - p_ok)) {
      ++counters_.uncorrectable_reads;
      return ReadStatus::kUncorrectable;
    }
  }
  if (fault_prob_ > 0.0 && fault_rng_.chance(fault_prob_)) {
    ++counters_.uncorrectable_reads;
    return ReadStatus::kUncorrectable;
  }
  return ReadStatus::kOk;
}

ReadAck NandDevice::read_subpage(const SubpageAddr& addr, SimTime now) {
  const Block& blk = block(addr.page.chip, addr.page.block);
  const SlotView view = blk.slot(addr.page.page, addr.slot);
  ReadAck ack;
  ack.status = verdict(blk, blk.page_mode(addr.page.page), view, now);
  ack.token = view.token;
  ++counters_.reads_sub;
  ack.done = schedule(addr.page.chip, timing_.read_sub_us,
                      geo_.subpage_bytes(), /*transfer_first=*/false, now);
  if (tel_)
    tel_->record_op({telemetry::OpKind::kRead, now, ack.done, 1, 0,
                     addr.page.chip, addr.page.block});
  return ack;
}

PageReadAck NandDevice::read_page(const PageAddr& addr, SimTime now) {
  const Block& blk = block(addr.chip, addr.block);
  const Block::PageView page = blk.page_view(addr.page);
  PageReadAck ack;
  for (std::uint32_t s = 0; s < geo_.subpages_per_page; ++s) {
    ack.status[s] = verdict(blk, page.mode, page.slots[s], now);
    ack.token[s] = page.slots[s].token;
  }
  ++counters_.reads_full;
  ack.done = schedule(addr.chip, timing_.read_full_us, geo_.page_bytes,
                      /*transfer_first=*/false, now);
  if (tel_)
    tel_->record_op({telemetry::OpKind::kRead, now, ack.done,
                     geo_.subpages_per_page, 0, addr.chip, addr.block});
  return ack;
}

OpAck NandDevice::copyback(const PageAddr& src, const PageAddr& dst,
                           SimTime now) {
  if (src.chip != dst.chip)
    throw std::logic_error("NandDevice::copyback: pages must share a chip");
  const Block::PageView page = block(src.chip, src.block).page_view(src.page);
  std::array<std::uint64_t, kMaxSubpagesPerPage> tokens{};
  for (std::uint32_t s = 0; s < geo_.subpages_per_page; ++s)
    tokens[s] = page.slots[s].token;
  Block& dst_blk = block_ref(dst.chip, dst.block);
  dst_blk.program_full(
      dst.page, std::span(tokens).first(geo_.subpages_per_page), now);
  ++counters_.reads_full;
  ++counters_.progs_full;
  // Chip busy for sense + program; only command overhead on the channel.
  OpAck ack{schedule(src.chip, timing_.read_full_us + timing_.prog_full_us,
                     /*xfer_bytes=*/0, /*transfer_first=*/true, now)};
  if (tel_)
    tel_->record_op({telemetry::OpKind::kProgFull, now, ack.done, dst.page,
                     0, dst.chip, dst.block});
  return ack;
}

OpAck NandDevice::erase_block(std::uint32_t chip, std::uint32_t block,
                              SimTime now) {
  Block& blk = block_ref(chip, block);
  blk.erase();
  ++counters_.erases;
  max_pe_cycles_ = std::max(max_pe_cycles_, blk.pe_cycles());
  OpAck ack{schedule(chip, timing_.erase_us, /*xfer_bytes=*/0,
                     /*transfer_first=*/true, now)};
  if (tel_)
    tel_->record_op({telemetry::OpKind::kErase, now, ack.done,
                     blk.pe_cycles(), 0, chip, block});
  return ack;
}

void NandDevice::set_telemetry(telemetry::Telemetry* tel) {
  tel_ = tel;
  if (!tel_) return;
  telemetry::MetricsRegistry& reg = tel_->registry();
  reg.bind_counter("nand/reads_full", &counters_.reads_full);
  reg.bind_counter("nand/reads_sub", &counters_.reads_sub);
  reg.bind_counter("nand/progs_full", &counters_.progs_full);
  reg.bind_counter("nand/progs_sub", &counters_.progs_sub);
  reg.bind_counter("nand/erases", &counters_.erases);
  reg.bind_counter("nand/uncorrectable_reads", &counters_.uncorrectable_reads);
  reg.bind_counter("nand/corrupted_reads", &counters_.corrupted_reads);
}

void NandDevice::fill_block_health(
    std::span<telemetry::BlockHealth> out) const {
  const std::size_t n = std::min(out.size(), blocks_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Block& blk = blocks_[i];
    out[i].pe = blk.pe_cycles();
    out[i].programmed_pages = blk.programmed_pages();
    out[i].first_program_us = blk.first_program_us();
  }
}

void NandDevice::apply_synthetic_wear(std::uint32_t chip, std::uint32_t block,
                                      std::uint32_t cycles) {
  if (cycles == 0) return;
  Block& blk = block_ref(chip, block);
  blk.add_wear(cycles);
  synthetic_erases_ += cycles;
  max_pe_cycles_ = std::max(max_pe_cycles_, blk.pe_cycles());
}

void NandDevice::save_state(util::StateWriter& w) const {
  w.tag("NAND");
  w.u64(blocks_.size());
  w.u32(geo_.pages_per_block);
  w.u32(geo_.subpages_per_page);
  for (const Block& blk : blocks_) blk.save_state(w);
  w.pod_vec(arena_);
  w.pod_vec(channel_busy_until_);
  w.pod_vec(chip_busy_until_);
  w.pod_vec(chip_busy_accum_);
  w.pod_vec(channel_busy_accum_);
  w.u64(counters_.reads_full);
  w.u64(counters_.reads_sub);
  w.u64(counters_.progs_full);
  w.u64(counters_.progs_sub);
  w.u64(counters_.erases);
  w.u64(counters_.uncorrectable_reads);
  w.u64(counters_.corrupted_reads);
  w.u64(synthetic_erases_);
  w.u32(max_pe_cycles_);
  w.f64(fault_prob_);
  const util::Xoshiro256::State rs = fault_rng_.state();
  w.raw(&rs, sizeof rs);
  w.u8(static_cast<std::uint8_t>(reliability_mode_));
}

void NandDevice::load_state(util::StateReader& r) {
  r.tag("NAND");
  const std::uint64_t blocks = r.u64();
  const std::uint32_t pages = r.u32();
  const std::uint32_t subs = r.u32();
  if (blocks != blocks_.size() || pages != geo_.pages_per_block ||
      subs != geo_.subpages_per_page)
    throw std::runtime_error("NandDevice::load_state: geometry mismatch");
  for (Block& blk : blocks_) blk.load_state(r);
  r.pod_fixed(std::span<std::uint64_t>(arena_));
  r.pod_vec(channel_busy_until_);
  r.pod_vec(chip_busy_until_);
  r.pod_vec(chip_busy_accum_);
  r.pod_vec(channel_busy_accum_);
  if (channel_busy_until_.size() != geo_.channels ||
      chip_busy_until_.size() != geo_.total_chips() ||
      chip_busy_accum_.size() != geo_.total_chips() ||
      channel_busy_accum_.size() != geo_.channels)
    throw std::runtime_error("NandDevice::load_state: corrupt busy clocks");
  counters_.reads_full = r.u64();
  counters_.reads_sub = r.u64();
  counters_.progs_full = r.u64();
  counters_.progs_sub = r.u64();
  counters_.erases = r.u64();
  counters_.uncorrectable_reads = r.u64();
  counters_.corrupted_reads = r.u64();
  synthetic_erases_ = r.u64();
  max_pe_cycles_ = r.u32();
  fault_prob_ = r.f64();
  util::Xoshiro256::State rs;
  r.raw(&rs, sizeof rs);
  fault_rng_.set_state(rs);
  reliability_mode_ = static_cast<ReliabilityMode>(r.u8());
}

void NandDevice::set_read_fault_injection(double probability,
                                          std::uint64_t seed) {
  fault_prob_ = std::clamp(probability, 0.0, 1.0);
  fault_rng_ = util::Xoshiro256(seed);
}

void NandDevice::set_reliability_mode(ReliabilityMode mode,
                                      std::uint64_t seed) {
  reliability_mode_ = mode;
  fault_rng_ = util::Xoshiro256(seed);
}

}  // namespace esp::nand
