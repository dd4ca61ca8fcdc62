// Unit tests for the ESP block state machine -- the physics contract of
// Sec. 3: sequential slot programming, destroy-previous, Npp tracking.
#include "nand/block.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace esp::nand {
namespace {

constexpr std::uint32_t kPages = 8;
constexpr std::uint32_t kSubs = 4;

/// A block over a local, zeroed record buffer (NandDevice hands each block
/// its slice of the device arena the same way).
struct TestBlock {
  std::vector<std::uint64_t> rows =
      std::vector<std::uint64_t>(kPages * Block::record_words(kSubs));
  Block blk{kPages, kSubs, rows};
};

TEST(Block, StartsErased) {
  TestBlock t;
  Block& blk = t.blk;
  EXPECT_TRUE(blk.is_erased());
  EXPECT_EQ(blk.pe_cycles(), 0u);
  EXPECT_EQ(blk.page_mode(0), PageMode::kErased);
  EXPECT_EQ(blk.slot(0, 0).state, SlotState::kEmpty);
}

TEST(Block, FullPageProgramStoresAllSlots) {
  TestBlock t;
  Block& blk = t.blk;
  const std::array<std::uint64_t, kSubs> tokens{10, 20, 30, 40};
  blk.program_full(2, tokens, 100.0);
  EXPECT_EQ(blk.page_mode(2), PageMode::kFull);
  EXPECT_EQ(blk.slots_programmed(2), kSubs);
  for (std::uint32_t s = 0; s < kSubs; ++s) {
    const auto view = blk.slot(2, s);
    EXPECT_EQ(view.state, SlotState::kStored);
    EXPECT_EQ(view.token, tokens[s]);
    EXPECT_EQ(view.npp, 0u);
    EXPECT_EQ(view.written_at, 100.0);
  }
}

TEST(Block, FullPageProgramTwiceThrows) {
  TestBlock t;
  Block& blk = t.blk;
  const std::array<std::uint64_t, kSubs> tokens{1, 2, 3, 4};
  blk.program_full(0, tokens, 0.0);
  EXPECT_THROW(blk.program_full(0, tokens, 1.0), std::logic_error);
}

TEST(Block, FullProgramRejectsWrongTokenCount) {
  TestBlock t;
  Block& blk = t.blk;
  const std::array<std::uint64_t, 2> wrong{1, 2};
  EXPECT_THROW(blk.program_full(0, wrong, 0.0), std::logic_error);
}

TEST(Block, SubpageProgramSequence) {
  TestBlock t;
  Block& blk = t.blk;
  blk.program_subpage(0, 0, 111, 1.0);
  EXPECT_EQ(blk.page_mode(0), PageMode::kEsp);
  EXPECT_EQ(blk.slots_programmed(0), 1u);
  EXPECT_EQ(blk.slot(0, 0).state, SlotState::kStored);
  EXPECT_EQ(blk.slot(0, 0).npp, 0u);
}

TEST(Block, SubpageOutOfOrderThrows) {
  TestBlock t;
  Block& blk = t.blk;
  EXPECT_THROW(blk.program_subpage(0, 1, 5, 0.0), std::logic_error);
  blk.program_subpage(0, 0, 5, 0.0);
  EXPECT_THROW(blk.program_subpage(0, 2, 5, 0.0), std::logic_error);
  EXPECT_THROW(blk.program_subpage(0, 0, 5, 0.0), std::logic_error);
}

TEST(Block, SubpageProgramDestroysEarlierSlots) {
  // Fig. 4: programming sp2 corrupts sp1's stored data.
  TestBlock t;
  Block& blk = t.blk;
  blk.program_subpage(0, 0, 100, 1.0);
  blk.program_subpage(0, 1, 200, 2.0);
  EXPECT_EQ(blk.slot(0, 0).state, SlotState::kCorrupted);
  EXPECT_EQ(blk.slot(0, 1).state, SlotState::kStored);
  EXPECT_EQ(blk.slot(0, 1).token, 200u);
}

TEST(Block, NppTypeTracksPriorPrograms) {
  // The k-th programmed slot is an Npp^k-type subpage (Sec. 3.3).
  TestBlock t;
  Block& blk = t.blk;
  for (std::uint32_t s = 0; s < kSubs; ++s)
    blk.program_subpage(0, s, s, static_cast<SimTime>(s));
  for (std::uint32_t s = 0; s < kSubs; ++s)
    EXPECT_EQ(blk.slot(0, s).npp, s);
  // Only the last slot survives.
  for (std::uint32_t s = 0; s + 1 < kSubs; ++s)
    EXPECT_EQ(blk.slot(0, s).state, SlotState::kCorrupted);
  EXPECT_EQ(blk.slot(0, kSubs - 1).state, SlotState::kStored);
}

TEST(Block, SubpageProgramLeavesOtherPagesAlone) {
  TestBlock t;
  Block& blk = t.blk;
  blk.program_subpage(0, 0, 1, 0.0);
  blk.program_subpage(1, 0, 2, 0.0);
  blk.program_subpage(0, 1, 3, 0.0);
  // Page 1's slot 0 must be untouched by page 0's second program.
  EXPECT_EQ(blk.slot(1, 0).state, SlotState::kStored);
  EXPECT_EQ(blk.slot(1, 0).token, 2u);
}

TEST(Block, MixedModesRejected) {
  TestBlock t;
  Block& blk = t.blk;
  const std::array<std::uint64_t, kSubs> tokens{1, 2, 3, 4};
  blk.program_full(0, tokens, 0.0);
  EXPECT_THROW(blk.program_subpage(0, 0, 9, 1.0), std::logic_error);
  blk.program_subpage(1, 0, 9, 1.0);
  EXPECT_THROW(blk.program_full(1, tokens, 2.0), std::logic_error);
}

TEST(Block, EspPageExhaustsAfterAllSlots) {
  TestBlock t;
  Block& blk = t.blk;
  for (std::uint32_t s = 0; s < kSubs; ++s) blk.program_subpage(0, s, s, 0.0);
  EXPECT_THROW(blk.program_subpage(0, kSubs, 9, 0.0), std::out_of_range);
}

TEST(Block, EraseResetsEverythingAndCountsPe) {
  TestBlock t;
  Block& blk = t.blk;
  const std::array<std::uint64_t, kSubs> tokens{1, 2, 3, 4};
  blk.program_full(0, tokens, 0.0);
  blk.program_subpage(1, 0, 7, 0.0);
  blk.erase();
  EXPECT_EQ(blk.pe_cycles(), 1u);
  EXPECT_TRUE(blk.is_erased());
  EXPECT_EQ(blk.page_mode(0), PageMode::kErased);
  EXPECT_EQ(blk.slot(1, 0).state, SlotState::kEmpty);
  // Reusable after erase.
  blk.program_subpage(0, 0, 42, 5.0);
  EXPECT_EQ(blk.slot(0, 0).token, 42u);
}

TEST(Block, OutOfRangeAccessesThrow) {
  TestBlock t;
  Block& blk = t.blk;
  EXPECT_THROW(blk.slot(kPages, 0), std::out_of_range);
  EXPECT_THROW(blk.slot(0, kSubs), std::out_of_range);
  EXPECT_THROW(blk.program_subpage(kPages, 0, 1, 0.0), std::out_of_range);
}

TEST(Block, RejectsBadConstruction) {
  std::vector<std::uint64_t> rows(
      8 * Block::record_words(kMaxSubpagesPerPage + 1));
  EXPECT_THROW(Block(0, 4, rows), std::invalid_argument);
  EXPECT_THROW(Block(8, 0, rows), std::invalid_argument);
  EXPECT_THROW(Block(8, kMaxSubpagesPerPage + 1, rows), std::invalid_argument);
  // Rows must hold exactly one record per page.
  EXPECT_THROW(Block(8, 4, rows), std::invalid_argument);
}

}  // namespace
}  // namespace esp::nand
