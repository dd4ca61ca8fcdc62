// Per-block NAND state machine enforcing ESP programming semantics.
//
// This is the layer where the physics of Sec. 3 lives:
//   * a page (word line) is programmed either as one full page or as a
//     strictly sequential series of subpage programs (ESP mode);
//   * each subpage slot can be programmed exactly ONCE per erase cycle --
//     reprogramming destroys data, so the device refuses it;
//   * programming slot j DESTROYS the data stored in every previously
//     programmed slot of the same word line (cell-to-cell coupling and
//     program disturbance, Fig. 4) -- the device silently corrupts, exactly
//     as silicon would; keeping valid data out of harm's way is FTL policy;
//   * the slot written after k prior program operations is an Npp^k-type
//     subpage with correspondingly reduced retention.
//
// Illegal *command sequences* (out-of-order slot, programming a full page
// over a partially written one) throw std::logic_error: on silicon these
// are firmware bugs, and the tests rely on them failing loudly.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "nand/geometry.h"
#include "util/serialize.h"
#include "util/sim_time.h"

namespace esp::nand {

enum class SlotState : std::uint8_t {
  kEmpty,      ///< erased, never programmed this cycle
  kStored,     ///< holds the token it was programmed with
  kCorrupted,  ///< destroyed by a later subpage program on the same WL
};

enum class PageMode : std::uint8_t {
  kErased,  ///< no program since last erase
  kFull,    ///< one conventional full-page program
  kEsp,     ///< one or more erase-free subpage programs
};

/// Snapshot of one subpage slot.
struct SlotView {
  SlotState state = SlotState::kEmpty;
  std::uint64_t token = 0;     ///< payload written by the FTL
  SimTime written_at = 0.0;    ///< simulated program time
  std::uint8_t npp = 0;        ///< Npp^k type: prior WL programs at write
};

/// One erase block: P/E wear and program bookkeeping, plus a view of the
/// block's page records in the device's cell arena (NandDevice).
///
/// A page record is record_words(subs) 64-bit words:
///   * meta_words(subs) words of bytes -- byte 0 the PageMode, byte 1 the
///     slots programmed this erase cycle, byte 2 + s slot s packed as
///     SlotState | npp << 2, zero padding to a whole word;
///   * then one (token, written_at) word pair per slot, written_at as the
///     bit pattern of its double.
/// An all-zero record is an erased page, so erase() clears one contiguous
/// range. At 4 subpages a record is 72 bytes.
class Block {
 public:
  static constexpr std::size_t meta_words(std::uint32_t subs) {
    return (2 + std::size_t{subs} + 7) / 8;
  }
  static constexpr std::size_t record_words(std::uint32_t subs) {
    return meta_words(subs) + 2 * std::size_t{subs};
  }

  /// A block over `rows`: pages_per_block page records of
  /// record_words(subpages_per_page) words, zeroed (every page erased).
  /// The block reads and writes them in place; `rows` must outlive it.
  Block(std::uint32_t pages_per_block, std::uint32_t subpages_per_page,
        std::span<std::uint64_t> rows);

  /// Erases the whole block, incrementing the P/E count.
  void erase();

  /// Conventional full-page program; requires an erased page.
  /// tokens.size() must equal subpages_per_page (one token per subpage's
  /// worth of data).
  void program_full(std::uint32_t page, std::span<const std::uint64_t> tokens,
                    SimTime now);

  /// ESP subpage program. `slot` must be the page's next unprogrammed slot
  /// (sequential order is a NAND constraint: later word-line segments would
  /// otherwise be disturbed unpredictably). Destroys previously programmed
  /// slots of the page.
  void program_subpage(std::uint32_t page, std::uint32_t slot,
                       std::uint64_t token, SimTime now);

  SlotView slot(std::uint32_t page, std::uint32_t slot) const;
  PageMode page_mode(std::uint32_t page) const {
    return static_cast<PageMode>(meta(page)[0]);
  }
  /// Number of program operations the page's word line has received this
  /// erase cycle (= next programmable slot index in ESP mode).
  std::uint32_t slots_programmed(std::uint32_t page) const {
    return meta(page)[1];
  }

  /// One decode of a whole page record: its mode and slots[s] for every
  /// s < subpages_per_page().
  struct PageView {
    PageMode mode = PageMode::kErased;
    std::array<SlotView, kMaxSubpagesPerPage> slots;
  };
  PageView page_view(std::uint32_t page) const;

  std::uint32_t pe_cycles() const { return pe_cycles_; }
  std::uint32_t pages() const { return pages_; }
  std::uint32_t subpages_per_page() const { return subs_; }
  /// Pages with at least one program this erase cycle.
  std::uint32_t programmed_pages() const { return programmed_pages_; }
  /// Simulated time of the first program since the last erase; negative
  /// when the block is erased. Retention age of the oldest data is
  /// `now - first_program_us()`.
  SimTime first_program_us() const { return first_program_us_; }
  /// True when no page has been programmed since the last erase.
  bool is_erased() const;

  /// Epoch fast-forward support: accrues `cycles` P/E cycles without an
  /// erase command, modeling wear accumulated during a compressed aging
  /// epoch. Page contents and program state are untouched -- the resident
  /// data stands in for the last rewrite of the epoch.
  void add_wear(std::uint32_t cycles) noexcept { pe_cycles_ += cycles; }

  /// Snapshot support: the per-block scalars. The page records live in
  /// the arena, which the device archives as a whole.
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  /// Start of `page`'s record; throws std::out_of_range past the block.
  std::uint64_t* record(std::uint32_t page) const {
    if (page >= pages_) throw_page_out_of_range(page);
    return rows_.data() + std::size_t{page} * record_words_;
  }
  [[noreturn]] void throw_page_out_of_range(std::uint32_t page) const;
  /// The record's meta bytes (see the layout above), read as characters.
  const unsigned char* meta(std::uint32_t page) const {
    return reinterpret_cast<const unsigned char*>(record(page));
  }

  std::uint32_t pages_;
  std::uint32_t subs_;
  std::uint32_t meta_words_;    ///< meta_words(subs_)
  std::uint32_t record_words_;  ///< record_words(subs_)
  std::uint32_t pe_cycles_ = 0;
  std::uint32_t programmed_pages_ = 0;  ///< pages with >=1 program this cycle
  SimTime first_program_us_ = -1.0;     ///< first program since erase (<0: none)
  std::span<std::uint64_t> rows_;       ///< pages_ page records
};

}  // namespace esp::nand
