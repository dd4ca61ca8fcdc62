// Device-level tests: retention verdicts, timing/parallelism, counters,
// fault injection.
#include "nand/device.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

namespace esp::nand {
namespace {

Geometry tiny_geo() {
  Geometry geo;
  geo.channels = 2;
  geo.chips_per_channel = 2;
  geo.blocks_per_chip = 4;
  geo.pages_per_block = 8;
  geo.page_bytes = 16 * 1024;
  geo.subpages_per_page = 4;
  return geo;
}

TEST(NandDevice, ReadBackAfterFullProgram) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{11, 22, 33, 44};
  dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  const auto ack = dev.read_page(PageAddr{0, 0, 0}, 10.0);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(ack.status[s], ReadStatus::kOk);
    EXPECT_EQ(ack.token[s], tokens[s]);
  }
}

TEST(NandDevice, SubpageReadVerdicts) {
  NandDevice dev(tiny_geo());
  const PageAddr page{1, 1, 3};
  dev.program_subpage(SubpageAddr{page, 0}, 7, 0.0);
  dev.program_subpage(SubpageAddr{page, 1}, 8, 1.0);

  EXPECT_EQ(dev.read_subpage(SubpageAddr{page, 0}, 2.0).status,
            ReadStatus::kCorrupted);
  EXPECT_EQ(dev.read_subpage(SubpageAddr{page, 1}, 2.0).status,
            ReadStatus::kOk);
  EXPECT_EQ(dev.read_subpage(SubpageAddr{page, 2}, 2.0).status,
            ReadStatus::kEmpty);
}

TEST(NandDevice, EspDataExpiresAfterHorizon) {
  NandDevice dev(tiny_geo());
  const PageAddr page{0, 0, 0};
  // Program all 4 slots: the last is Npp^3 with the shortest horizon.
  for (std::uint32_t s = 0; s < 4; ++s)
    dev.program_subpage(SubpageAddr{page, s}, s, 0.0);

  const SimTime month = sim_time::kMonth;
  EXPECT_EQ(dev.read_subpage(SubpageAddr{page, 3}, 0.9 * month).status,
            ReadStatus::kOk)
      << "Npp^3 must satisfy the 1-month requirement (Fig. 5)";
  EXPECT_EQ(dev.read_subpage(SubpageAddr{page, 3}, 2.0 * month).status,
            ReadStatus::kUncorrectable)
      << "Npp^3 must fail the 2-month requirement (Fig. 5)";
}

TEST(NandDevice, LowerNppSurvivesLonger) {
  NandDevice dev(tiny_geo());
  dev.program_subpage(SubpageAddr{PageAddr{0, 0, 0}, 0}, 1, 0.0);
  // An Npp^0 ESP subpage lasts far beyond 2 months.
  EXPECT_EQ(dev.read_subpage(SubpageAddr{PageAddr{0, 0, 0}, 0},
                             4 * sim_time::kMonth)
                .status,
            ReadStatus::kOk);
}

TEST(NandDevice, FullPageMeetsOneYear) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  const auto ack =
      dev.read_page(PageAddr{0, 0, 0}, 11.5 * sim_time::kMonth);
  EXPECT_EQ(ack.status[0], ReadStatus::kOk);
  const auto expired =
      dev.read_page(PageAddr{0, 0, 0}, 14.0 * sim_time::kMonth);
  EXPECT_EQ(expired.status[0], ReadStatus::kUncorrectable);
}

TEST(NandDevice, TimingFullProgramLatency) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  const auto ack = dev.program_full(PageAddr{0, 0, 0}, tokens, 1000.0);
  const auto& t = dev.timing();
  EXPECT_DOUBLE_EQ(ack.done,
                   1000.0 + t.transfer_us(16 * 1024) + t.prog_full_us);
}

TEST(NandDevice, SubpageProgramFasterThanFull) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  const auto full = dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  const auto sub =
      dev.program_subpage(SubpageAddr{PageAddr{1, 0, 0}, 0}, 9, 0.0);
  // Paper Sec. 5: 1300 us vs 1600 us, plus smaller transfer.
  EXPECT_LT(sub.done, full.done);
}

TEST(NandDevice, SameChipOperationsSerialize) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  const auto first = dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  const auto second = dev.program_full(PageAddr{0, 0, 1}, tokens, 0.0);
  EXPECT_GE(second.done, first.done + dev.timing().prog_full_us);
}

TEST(NandDevice, DifferentChannelsOverlap) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  // Chips 0 and 2 are on different channels in this geometry.
  const auto a = dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  const auto b = dev.program_full(PageAddr{2, 0, 0}, tokens, 0.0);
  EXPECT_NEAR(a.done, b.done, 1e-9);
}

TEST(NandDevice, SameChannelTransfersContend) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  // Chips 0 and 1 share channel 0: second transfer waits for the first.
  const auto a = dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  const auto b = dev.program_full(PageAddr{1, 0, 0}, tokens, 0.0);
  EXPECT_GT(b.done, a.done - dev.timing().prog_full_us + 1.0);
  EXPECT_LT(b.done, a.done + dev.timing().prog_full_us);
}

TEST(NandDevice, CountersTrackOperations) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  dev.program_subpage(SubpageAddr{PageAddr{0, 1, 0}, 0}, 5, 0.0);
  dev.read_page(PageAddr{0, 0, 0}, 1.0);
  dev.read_subpage(SubpageAddr{PageAddr{0, 1, 0}, 0}, 1.0);
  dev.erase_block(0, 0, 2.0);
  const auto& c = dev.counters();
  EXPECT_EQ(c.progs_full, 1u);
  EXPECT_EQ(c.progs_sub, 1u);
  EXPECT_EQ(c.reads_full, 1u);
  EXPECT_EQ(c.reads_sub, 1u);
  EXPECT_EQ(c.erases, 1u);
}

TEST(NandDevice, EraseRestoresProgrammability) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  dev.erase_block(0, 0, 1.0);
  EXPECT_EQ(dev.block(0, 0).pe_cycles(), 1u);
  EXPECT_NO_THROW(dev.program_full(PageAddr{0, 0, 0}, tokens, 2.0));
}

TEST(NandDevice, FaultInjectionProducesUncorrectableReads) {
  NandDevice dev(tiny_geo());
  dev.set_read_fault_injection(1.0, 99);
  dev.program_subpage(SubpageAddr{PageAddr{0, 0, 0}, 0}, 5, 0.0);
  EXPECT_EQ(dev.read_subpage(SubpageAddr{PageAddr{0, 0, 0}, 0}, 1.0).status,
            ReadStatus::kUncorrectable);
  dev.set_read_fault_injection(0.0);
  EXPECT_EQ(dev.read_subpage(SubpageAddr{PageAddr{0, 0, 0}, 0}, 1.0).status,
            ReadStatus::kOk);
}

TEST(NandDevice, CopybackMovesDataOnChip) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{9, 8, 7, 6};
  dev.program_full(PageAddr{1, 0, 0}, tokens, 0.0);
  dev.copyback(PageAddr{1, 0, 0}, PageAddr{1, 1, 0}, 10.0);
  const auto ack = dev.read_page(PageAddr{1, 1, 0}, 20.0);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(ack.token[s], tokens[s]);
    EXPECT_EQ(ack.status[s], ReadStatus::kOk);
  }
}

TEST(NandDevice, CopybackRejectsCrossChip) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  EXPECT_THROW(dev.copyback(PageAddr{0, 0, 0}, PageAddr{1, 0, 0}, 1.0),
               std::logic_error);
}

TEST(NandDevice, CopybackSkipsChannelTransfers) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  const SimTime start = 100000.0;
  const auto cb = dev.copyback(PageAddr{0, 0, 0}, PageAddr{0, 1, 0}, start);
  const auto& t = dev.timing();
  // Sense + program + command overhead, but no 16-KB transfers.
  EXPECT_NEAR(cb.done - start,
              t.read_full_us + t.prog_full_us + t.cmd_overhead_us, 1e-9);
}

TEST(NandDevice, CopybackRequiresErasedDestination) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  dev.program_full(PageAddr{0, 0, 0}, tokens, 0.0);
  dev.program_full(PageAddr{0, 1, 0}, tokens, 0.0);
  EXPECT_THROW(dev.copyback(PageAddr{0, 0, 0}, PageAddr{0, 1, 0}, 1.0),
               std::logic_error);
}

TEST(NandDevice, OutOfRangeThrows) {
  NandDevice dev(tiny_geo());
  const std::array<std::uint64_t, 4> tokens{1, 2, 3, 4};
  EXPECT_THROW(dev.program_full(PageAddr{99, 0, 0}, tokens, 0.0),
               std::out_of_range);
  EXPECT_THROW(dev.erase_block(0, 99, 0.0), std::out_of_range);
}

// ---- cell arena: every block's page records are its own -------------------
//
// All blocks share one page-major arena. Programming and erasing one block
// must leave every other block bit-identical, in particular its arena
// neighbours across a chip boundary and at both ends of the arena. Run at
// 4 and 8 subpages per page, whose records pad their meta bytes
// differently (one word vs two).

/// Everything observable about one block: P/E, page modes, slot views.
struct BlockImage {
  std::uint32_t pe = 0;
  std::vector<PageMode> modes;
  std::vector<std::uint32_t> programmed;
  std::vector<SlotView> slots;

  explicit BlockImage(const Block& blk) : pe(blk.pe_cycles()) {
    for (std::uint32_t p = 0; p < blk.pages(); ++p) {
      modes.push_back(blk.page_mode(p));
      programmed.push_back(blk.slots_programmed(p));
      for (std::uint32_t s = 0; s < blk.subpages_per_page(); ++s)
        slots.push_back(blk.slot(p, s));
    }
  }
  bool operator==(const BlockImage& o) const {
    if (pe != o.pe || modes != o.modes || programmed != o.programmed ||
        slots.size() != o.slots.size())
      return false;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const SlotView& a = slots[i];
      const SlotView& b = o.slots[i];
      if (a.state != b.state || a.token != b.token ||
          a.written_at != b.written_at || a.npp != b.npp)
        return false;
    }
    return true;
  }
};

class NandDeviceArena : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  static Geometry geo() {
    Geometry g;
    g.channels = 2;
    g.chips_per_channel = 1;
    g.blocks_per_chip = 3;
    g.pages_per_block = 4;
    g.subpages_per_page = GetParam();
    g.page_bytes = 4096 * g.subpages_per_page;
    return g;
  }
};

TEST_P(NandDeviceArena, BlockOpsLeaveEveryOtherBlockBitIdentical) {
  const Geometry g = geo();
  const std::uint32_t subs = g.subpages_per_page;
  // First block, both sides of the chip boundary, last block.
  const std::array<std::array<std::uint32_t, 2>, 4> targets{
      {{0, 0}, {0, g.blocks_per_chip - 1}, {1, 0}, {1, g.blocks_per_chip - 1}}};
  for (const auto& [tc, tb] : targets) {
    SCOPED_TRACE("target chip " + std::to_string(tc) + " block " +
                 std::to_string(tb));
    NandDevice dev(g);
    // Give every other block distinctive content: one erase (P/E 1), then
    // full pages on even page numbers and 1..subs ESP slots on odd ones.
    SimTime now = 1.0;
    std::uint64_t token = 1;
    std::vector<std::uint64_t> tokens(subs);
    for (std::uint32_t c = 0; c < g.total_chips(); ++c) {
      for (std::uint32_t b = 0; b < g.blocks_per_chip; ++b) {
        if (c == tc && b == tb) continue;
        dev.erase_block(c, b, now);
        for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
          now += 1.0;
          if (p % 2 == 0) {
            for (auto& t : tokens) t = token++;
            dev.program_full(PageAddr{c, b, p}, tokens, now);
          } else {
            for (std::uint32_t s = 0; s <= (p / 2) % subs; ++s)
              dev.program_subpage(SubpageAddr{PageAddr{c, b, p}, s}, token++,
                                  now);
          }
        }
      }
    }
    const auto images = [&] {
      std::vector<BlockImage> out;
      for (std::uint32_t c = 0; c < g.total_chips(); ++c)
        for (std::uint32_t b = 0; b < g.blocks_per_chip; ++b)
          if (c != tc || b != tb) out.emplace_back(dev.block(c, b));
      return out;
    };
    const std::vector<BlockImage> before = images();

    for (auto& t : tokens) t = ~0ull - token++;
    for (std::uint32_t p = 0; p < g.pages_per_block; ++p)
      dev.program_full(PageAddr{tc, tb, p}, tokens, now + 1.0);
    EXPECT_TRUE(images() == before) << "full program leaked";
    dev.erase_block(tc, tb, now + 2.0);
    EXPECT_TRUE(images() == before) << "erase leaked";
    for (std::uint32_t p = 0; p < g.pages_per_block; ++p)
      for (std::uint32_t s = 0; s < subs; ++s)
        dev.program_subpage(SubpageAddr{PageAddr{tc, tb, p}, s},
                            ~0ull - token++, now + 3.0);
    EXPECT_TRUE(images() == before) << "ESP program leaked";
    dev.erase_block(tc, tb, now + 4.0);
    EXPECT_TRUE(images() == before) << "second erase leaked";

    // The target itself reads back fully erased after two cycles.
    const Block& target = dev.block(tc, tb);
    EXPECT_EQ(target.pe_cycles(), 2u);
    for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
      EXPECT_EQ(target.page_mode(p), PageMode::kErased);
      EXPECT_EQ(target.slots_programmed(p), 0u);
      for (std::uint32_t s = 0; s < subs; ++s) {
        EXPECT_EQ(target.slot(p, s).state, SlotState::kEmpty);
        EXPECT_EQ(target.slot(p, s).token, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SubpagesPerPage, NandDeviceArena,
                         ::testing::Values(4u, 8u));

}  // namespace
}  // namespace esp::nand
