#include "nand/block.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace esp::nand {
namespace {

constexpr std::uint8_t kStateMask = 0x3;
constexpr unsigned kNppShift = 2;

std::uint8_t pack_slot(SlotState state, std::uint32_t npp) {
  return static_cast<std::uint8_t>(static_cast<std::uint8_t>(state) |
                                   npp << kNppShift);
}
SlotState state_of(std::uint8_t packed) {
  return static_cast<SlotState>(packed & kStateMask);
}

}  // namespace

Block::Block(std::uint32_t pages_per_block, std::uint32_t subpages_per_page,
             std::span<std::uint64_t> rows)
    : pages_(pages_per_block),
      subs_(subpages_per_page),
      meta_words_(static_cast<std::uint32_t>(meta_words(subs_))),
      record_words_(static_cast<std::uint32_t>(record_words(subs_))),
      rows_(rows) {
  if (pages_ == 0 || subs_ == 0 || subs_ > kMaxSubpagesPerPage)
    throw std::invalid_argument("Block: bad page/subpage counts");
  if (rows_.size() != static_cast<std::size_t>(pages_) * record_words_)
    throw std::invalid_argument("Block: rows do not hold one record per page");
}

void Block::throw_page_out_of_range(std::uint32_t page) const {
  throw std::out_of_range("Block: page " + std::to_string(page) +
                          " out of range");
}

void Block::erase() {
  ++pe_cycles_;
  programmed_pages_ = 0;
  first_program_us_ = -1.0;
  std::fill(rows_.begin(), rows_.end(), 0);
}

void Block::program_full(std::uint32_t page,
                         std::span<const std::uint64_t> tokens, SimTime now) {
  std::uint64_t* rec = record(page);
  auto* meta = reinterpret_cast<unsigned char*>(rec);
  if (tokens.size() != subs_)
    throw std::logic_error("Block::program_full: token count != subpages");
  if (static_cast<PageMode>(meta[0]) != PageMode::kErased)
    throw std::logic_error(
        "Block::program_full: page already programmed this erase cycle");
  meta[0] = static_cast<std::uint8_t>(PageMode::kFull);
  meta[1] = static_cast<std::uint8_t>(subs_);
  if (programmed_pages_++ == 0) first_program_us_ = now;
  std::uint64_t* cell = rec + meta_words_;
  for (std::uint32_t s = 0; s < subs_; ++s) {
    meta[2 + s] = pack_slot(SlotState::kStored, 0);
    cell[2 * s] = tokens[s];
    cell[2 * s + 1] = std::bit_cast<std::uint64_t>(now);
  }
}

void Block::program_subpage(std::uint32_t page, std::uint32_t slot,
                            std::uint64_t token, SimTime now) {
  std::uint64_t* rec = record(page);
  auto* meta = reinterpret_cast<unsigned char*>(rec);
  if (slot >= subs_)
    throw std::out_of_range("Block::program_subpage: slot out of range");
  if (static_cast<PageMode>(meta[0]) == PageMode::kFull)
    throw std::logic_error(
        "Block::program_subpage: page holds a full-page program");
  const std::uint32_t programmed = meta[1];
  if (slot != programmed)
    throw std::logic_error(
        "Block::program_subpage: slots must be programmed sequentially "
        "(next=" + std::to_string(programmed) +
        ", got=" + std::to_string(slot) + ")");
  // The physics of Fig. 4: the new program pulse destroys data in every
  // previously programmed slot of this word line.
  for (std::uint32_t s = 0; s < slot; ++s) {
    unsigned char& packed = meta[2 + s];
    if (state_of(packed) == SlotState::kStored)
      packed = pack_slot(SlotState::kCorrupted, packed >> kNppShift);
  }
  // k prior program ops -> Npp^k type
  meta[2 + slot] = pack_slot(SlotState::kStored, programmed);
  std::uint64_t* cell = rec + meta_words_;
  cell[2 * slot] = token;
  cell[2 * slot + 1] = std::bit_cast<std::uint64_t>(now);
  if (programmed == 0) {
    meta[0] = static_cast<std::uint8_t>(PageMode::kEsp);
    if (programmed_pages_++ == 0) first_program_us_ = now;
  }
  meta[1] = static_cast<std::uint8_t>(programmed + 1);
}

SlotView Block::slot(std::uint32_t page, std::uint32_t slot) const {
  const std::uint64_t* rec = record(page);
  if (slot >= subs_)
    throw std::out_of_range("Block::slot: slot out of range");
  const std::uint8_t packed =
      reinterpret_cast<const unsigned char*>(rec)[2 + slot];
  const std::uint64_t* cell = rec + meta_words_ + 2 * slot;
  return SlotView{state_of(packed), cell[0], std::bit_cast<SimTime>(cell[1]),
                  static_cast<std::uint8_t>(packed >> kNppShift)};
}

Block::PageView Block::page_view(std::uint32_t page) const {
  const std::uint64_t* rec = record(page);
  const auto* meta = reinterpret_cast<const unsigned char*>(rec);
  const std::uint64_t* cell = rec + meta_words_;
  PageView view;
  view.mode = static_cast<PageMode>(meta[0]);
  for (std::uint32_t s = 0; s < subs_; ++s) {
    const std::uint8_t packed = meta[2 + s];
    view.slots[s] = SlotView{state_of(packed), cell[2 * s],
                             std::bit_cast<SimTime>(cell[2 * s + 1]),
                             static_cast<std::uint8_t>(packed >> kNppShift)};
  }
  return view;
}

bool Block::is_erased() const { return programmed_pages_ == 0; }

void Block::save_state(util::StateWriter& w) const {
  w.u32(pe_cycles_);
  w.u32(programmed_pages_);
  w.f64(first_program_us_);
}

void Block::load_state(util::StateReader& r) {
  pe_cycles_ = r.u32();
  programmed_pages_ = r.u32();
  first_program_us_ = r.f64();
}

}  // namespace esp::nand
