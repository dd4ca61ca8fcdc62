// sectorLogFTL unit tests: log appends cost full pages (no ESP), merge
// cleaning, extended mapping, comparison hooks.
#include "ftl/sector_log_ftl.h"

#include <gtest/gtest.h>

#include "ftl/types.h"
#include "nand/device.h"

namespace esp::ftl {
namespace {

nand::Geometry tiny_geo() {
  nand::Geometry geo;
  geo.channels = 2;
  geo.chips_per_channel = 2;
  geo.blocks_per_chip = 16;
  geo.pages_per_block = 16;
  geo.page_bytes = 16 * 1024;
  geo.subpages_per_page = 4;
  return geo;
}

struct LogFixture {
  LogFixture() : dev(tiny_geo()) {
    SectorLogFtl::Config cfg;
    cfg.logical_sectors = 2048;
    cfg.log_region_fraction = 0.2;
    cfg.gc_reserve_blocks = 4;
    cfg.buffer_sectors = 32;
    ftl = std::make_unique<SectorLogFtl>(dev, cfg);
  }
  nand::NandDevice dev;
  std::unique_ptr<SectorLogFtl> ftl;
};

TEST(SectorLogFtl, SyncSmallWriteBurnsAFullPage) {
  // THE difference from subFTL: no ESP, so a lone 4-KB sync write is a
  // padded 16-KB program (request WAF 4).
  LogFixture fx;
  fx.ftl->write(0, 1, true, 0.0);
  EXPECT_EQ(fx.ftl->stats().flash_prog_full, 1u);
  EXPECT_EQ(fx.ftl->stats().flash_prog_sub, 0u);
  EXPECT_DOUBLE_EQ(fx.ftl->stats().avg_small_request_waf(), 4.0);
}

TEST(SectorLogFtl, ThreeSectorAppendAttributesTheWholePage) {
  // One 3-sector sync write is one padded 16-KB log program; its three
  // small sectors must be charged all 16,384 bytes (request WAF 4/3), not
  // 3 x (16,384 / 3) = 16,383.
  LogFixture fx;
  fx.ftl->write(0, 3, true, 0.0);
  EXPECT_EQ(fx.ftl->stats().flash_prog_full, 1u);
  EXPECT_EQ(fx.ftl->stats().small_service_flash_bytes, 16384u);
  EXPECT_DOUBLE_EQ(fx.ftl->stats().avg_small_request_waf(), 4.0 / 3.0);
}

TEST(SectorLogFtl, LogCopyShadowsDataRegion) {
  LogFixture fx;
  fx.ftl->write(0, 4, true, 0.0);  // data region v1
  fx.ftl->write(1, 1, true, 1.0);  // log append v2
  std::vector<std::uint64_t> tokens;
  const auto result = fx.ftl->read(0, 4, 2.0, &tokens);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(tokens[0], make_token(0, 1));
  EXPECT_EQ(tokens[1], make_token(1, 2));  // log version wins
  EXPECT_EQ(fx.ftl->log_mapping_entries(), 1u);
}

TEST(SectorLogFtl, FullPageWriteSupersedesLogCopies) {
  LogFixture fx;
  fx.ftl->write(1, 1, true, 0.0);
  EXPECT_EQ(fx.ftl->log_mapping_entries(), 1u);
  fx.ftl->write(0, 4, true, 1.0);
  EXPECT_EQ(fx.ftl->log_mapping_entries(), 0u);
}

TEST(SectorLogFtl, LogCleaningMergesBackToDataRegion) {
  LogFixture fx;
  SimTime now = 0.0;
  // Append far beyond the log quota (0.2 * 64 blocks = 13 blocks * 16
  // pages = 208 log appends before cleaning starts).
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t s = (i * 7) % 512;
    now = fx.ftl->write(s, 1, true, now).done;
  }
  EXPECT_GT(fx.ftl->stats().cold_evictions, 0u);  // merged sectors
  EXPECT_GT(fx.ftl->stats().rmw_ops, 0u);         // per-lpn RMW merges
  // Everything still readable at its latest version.
  std::vector<std::uint64_t> tokens;
  for (std::uint64_t s = 0; s < 512; s += 31) {
    fx.ftl->read(s, 1, now, &tokens);
    EXPECT_NE(tokens[0], 0u) << "sector " << s;
  }
}

TEST(SectorLogFtl, AsyncContiguousRunsMergeDensely) {
  LogFixture fx;
  for (std::uint64_t s = 4; s < 8; ++s) fx.ftl->write(s, 1, false, 0.0);
  fx.ftl->flush(1.0);
  // A complete logical page went straight to the data region: one dense
  // program, no log entry.
  EXPECT_EQ(fx.ftl->stats().flash_prog_full, 1u);
  EXPECT_EQ(fx.ftl->log_mapping_entries(), 0u);
}

TEST(SectorLogFtl, TrimDropsLogAndData) {
  LogFixture fx;
  fx.ftl->write(0, 4, true, 0.0);
  fx.ftl->write(2, 1, true, 1.0);
  fx.ftl->trim(0, 4);
  std::vector<std::uint64_t> tokens;
  fx.ftl->read(0, 4, 2.0, &tokens);
  for (const auto t : tokens) EXPECT_EQ(t, 0u);
  EXPECT_EQ(fx.ftl->log_mapping_entries(), 0u);
}

TEST(SectorLogFtl, MappingMemoryBetweenCgmAndFgm) {
  LogFixture fx;
  // 2048 sectors -> 512 lpns * 4B = 2 KiB coarse + log hash.
  fx.ftl->write(3, 1, true, 0.0);
  const auto bytes = fx.ftl->mapping_memory_bytes();
  EXPECT_GE(bytes, 512 * 4u);
  EXPECT_LT(bytes, 2048 * 4u);  // far below a full fine-grained table
}

TEST(SectorLogFtl, RejectsBadConfig) {
  nand::NandDevice dev(tiny_geo());
  SectorLogFtl::Config cfg;
  cfg.logical_sectors = 0;
  EXPECT_THROW(SectorLogFtl(dev, cfg), std::invalid_argument);
  cfg.logical_sectors = 2048;
  cfg.log_region_fraction = 1.0;
  EXPECT_THROW(SectorLogFtl(dev, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace esp::ftl
