// HealthMonitor unit tests: stream framing (hdr/epoch/b/smart/end), delta
// encoding of block rows, GC-victim attribution from the facade's erase
// branch, windows as differences of cumulative totals, epoch cadence, and
// trailer idempotence.
#include "telemetry/health.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"

namespace esp::telemetry {
namespace {

HealthHeader tiny_header(SimTime interval_us = 0.0) {
  HealthHeader h;
  h.ftl = "subFTL";
  h.chips = 2;
  h.blocks_per_chip = 3;
  h.pages_per_block = 4;
  h.subpages_per_page = 4;
  h.seed = 42;
  h.interval_us = interval_us;
  h.rated_pe = 100;
  return h;
}

std::vector<std::string> lines_of(const std::ostringstream& os) {
  std::vector<std::string> out;
  std::istringstream is(os.str());
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

OpEvent flash_event(OpKind kind, std::uint32_t chip, std::uint32_t block,
                    std::uint64_t arg0 = 0) {
  OpEvent e;
  e.kind = kind;
  e.chip = chip;
  e.block = block;
  e.arg0 = arg0;
  return e;
}

TEST(HealthMonitor, WritesHeaderOnConstruction) {
  std::ostringstream os;
  HealthMonitor hm(os, tiny_header(250.0));
  const auto lines = lines_of(os);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"t\":\"hdr\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"kind\":\"health\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"ftl\":\"subFTL\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"chips\":2"), std::string::npos);
  EXPECT_NE(lines[0].find("\"blocks_per_chip\":3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"interval_us\":250"), std::string::npos);
  EXPECT_NE(lines[0].find("\"rated_pe\":100"), std::string::npos);
  EXPECT_EQ(hm.lines_written(), 1u);
}

TEST(HealthMonitor, DeltaEncodingEmitsOnlyChangedRows) {
  std::ostringstream os;
  HealthMonitor hm(os, tiny_header());
  hm.start(0.0, {});

  // Epoch 0: two blocks differ from the pristine default.
  auto rows = hm.begin_epoch();
  ASSERT_EQ(rows.size(), 6u);
  rows[1].pe = 7;
  rows[1].pool = static_cast<std::uint8_t>(HealthPool::kFull);
  rows[4].valid = 3;
  rows[4].valid_cap = 4;
  hm.commit_epoch(100.0, 5, {});
  std::string out = os.str();
  EXPECT_EQ(hm.epochs_written(), 1u);
  EXPECT_NE(out.find("\"t\":\"epoch\",\"i\":0"), std::string::npos);
  EXPECT_NE(out.find("\"t\":\"b\",\"i\":1,\"pe\":7,\"pool\":\"full\""),
            std::string::npos);
  EXPECT_NE(out.find("\"t\":\"b\",\"i\":4,"), std::string::npos);
  // Unchanged default blocks are never emitted.
  EXPECT_EQ(out.find("\"t\":\"b\",\"i\":0,"), std::string::npos);
  EXPECT_EQ(out.find("\"t\":\"b\",\"i\":5,"), std::string::npos);

  // Epoch 1: identical rows -> no b lines at all; only block 4 changes in
  // epoch 2 -> exactly one b line.
  const auto count_b = [&] {
    std::size_t n = 0, pos = 0;
    const std::string needle = "\"t\":\"b\"";
    while ((pos = os.str().find(needle, pos)) != std::string::npos) {
      ++n;
      pos += needle.size();
    }
    return n;
  };
  rows = hm.begin_epoch();
  rows[1].pe = 7;
  rows[1].pool = static_cast<std::uint8_t>(HealthPool::kFull);
  rows[4].valid = 3;
  rows[4].valid_cap = 4;
  hm.commit_epoch(200.0, 5, {});
  EXPECT_EQ(count_b(), 2u);

  rows = hm.begin_epoch();
  rows[1].pe = 7;
  rows[1].pool = static_cast<std::uint8_t>(HealthPool::kFull);
  rows[4].valid = 1;
  rows[4].valid_cap = 4;
  hm.commit_epoch(300.0, 5, {});
  EXPECT_EQ(count_b(), 3u);
  EXPECT_EQ(hm.epochs_written(), 3u);
}

TEST(HealthMonitor, FirstProgramFieldOmittedWhenUnset) {
  std::ostringstream os;
  HealthMonitor hm(os, tiny_header());
  hm.start(0.0, {});
  auto rows = hm.begin_epoch();
  rows[0].pe = 1;                  // emitted, no first program
  rows[2].pe = 1;
  rows[2].first_program_us = 55.5;  // emitted with fp
  hm.commit_epoch(100.0, 0, {});
  const std::string out = os.str();
  const std::size_t row0 = out.find("\"t\":\"b\",\"i\":0,");
  ASSERT_NE(row0, std::string::npos);
  const std::size_t row0_end = out.find('\n', row0);
  EXPECT_EQ(out.substr(row0, row0_end - row0).find("\"fp\":"),
            std::string::npos);
  EXPECT_NE(out.find("\"fp\":55.5"), std::string::npos);
}

TEST(HealthMonitor, GcVictimCountsFromFacadeErases) {
  std::ostringstream os;
  HealthMonitor hm(os, tiny_header());
  hm.start(0.0, {});
  TelemetryConfig cfg;
  cfg.op_detail = false;
  Telemetry tel(cfg);
  tel.set_health(&hm);
  // Two GC erases of chip 1 block 2 (row index 1*3+2 = 5), one host-cause
  // erase of the same block (not a GC victim), one GC erase elsewhere.
  tel.push_cause(Cause::kGcCopy, 0, 0.0);
  tel.record_op(flash_event(OpKind::kErase, 1, 2, 1));
  tel.record_op(flash_event(OpKind::kErase, 1, 2, 2));
  tel.pop_cause();
  tel.record_op(flash_event(OpKind::kErase, 1, 2, 3));
  tel.push_cause(Cause::kGcCopy, 0, 0.0);
  tel.record_op(flash_event(OpKind::kErase, 0, 0, 1));
  tel.pop_cause();
  tel.set_health(nullptr);
  auto rows = hm.begin_epoch();
  rows[5].pe = 3;
  hm.commit_epoch(100.0, 0, {});
  const std::string out = os.str();
  EXPECT_NE(out.find("\"t\":\"b\",\"i\":5,\"pe\":3,"), std::string::npos);
  EXPECT_NE(out.find("\"gcv\":2"), std::string::npos);
  // Row 0 changed only via its victim count -> still emitted.
  EXPECT_NE(out.find("\"t\":\"b\",\"i\":0,"), std::string::npos);
}

TEST(HealthMonitor, SmartLineAggregatesWindowAndWear) {
  std::ostringstream os;
  HealthMonitor hm(os, tiny_header());
  // The run attached with counters already running: the window is the
  // difference from these totals, never the totals themselves.
  HealthTotals base;
  base.host_sectors = 100;
  base.retention_evict_sectors = 7;
  base.prog_full[static_cast<std::size_t>(Cause::kHost)] = 20;
  base.prog_sub[static_cast<std::size_t>(Cause::kHost)] = 30;
  base.erases[static_cast<std::size_t>(Cause::kGcCopy)] = 5;
  hm.start(0.0, base);
  // Window: 8 host sectors, 1 full + 2 sub programs under host, 1 full
  // program under GC, 2 erases, 4 retention-evicted sectors.
  HealthTotals now = base;
  now.host_sectors += 8;
  now.prog_full[static_cast<std::size_t>(Cause::kHost)] += 1;
  now.prog_sub[static_cast<std::size_t>(Cause::kHost)] += 2;
  now.prog_full[static_cast<std::size_t>(Cause::kGcCopy)] += 1;
  now.erases[static_cast<std::size_t>(Cause::kGcCopy)] += 2;
  now.retention_evict_sectors += 4;

  auto rows = hm.begin_epoch();
  rows[0].pe = 1;
  rows[1].pe = 3;
  hm.commit_epoch(2e6, 10, now);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"t\":\"smart\""), std::string::npos);
  EXPECT_NE(out.find("\"spare_blocks\":10"), std::string::npos);
  // 6 blocks, pe = {1,3,0,0,0,0}: mean 4/6, max 3.
  EXPECT_NE(out.find("\"pe_min\":0"), std::string::npos);
  EXPECT_NE(out.find("\"pe_max\":3"), std::string::npos);
  EXPECT_NE(out.find("\"host_sectors\":8"), std::string::npos);
  // Full programs count subpages_per_page (4) sectors, sub programs 1:
  // host = 1*4 + 2 = 6, gc_copy = 4, total flash = 10, WAF = 10/8.
  EXPECT_NE(out.find("\"host\":6"), std::string::npos);
  EXPECT_NE(out.find("\"gc_copy\":4"), std::string::npos);
  EXPECT_NE(out.find("\"flash_sectors\":10"), std::string::npos);
  EXPECT_NE(out.find("\"overall_waf\":1.25"), std::string::npos);
  EXPECT_NE(out.find("\"erases\":2"), std::string::npos);
  EXPECT_NE(out.find("\"retention_evict_sectors\":4"), std::string::npos);
  // media_wear_pct = 100 * mean_pe / rated = 100 * (4/6) / 100.
  EXPECT_NE(out.find("\"media_wear_pct\":0.66"), std::string::npos);

  // The window resets: a second epoch with unchanged totals reports zero
  // host sectors and WAF 1 (the no-traffic convention).
  hm.begin_epoch();
  hm.commit_epoch(4e6, 10, now);
  const std::string tail = os.str().substr(out.size());
  EXPECT_NE(tail.find("\"host_sectors\":0"), std::string::npos);
  EXPECT_NE(tail.find("\"overall_waf\":1,"), std::string::npos);
}

TEST(HealthMonitor, EpochCadence) {
  std::ostringstream os;
  HealthMonitor hm(os, tiny_header(1000.0));
  hm.start(500.0, {});
  EXPECT_FALSE(hm.due(600.0));
  EXPECT_TRUE(hm.due(1500.0));
  hm.begin_epoch();
  hm.commit_epoch(1500.0, 0, {});
  EXPECT_FALSE(hm.due(2400.0));
  EXPECT_TRUE(hm.due(2500.0));
  // A long stall re-arms past `now`, not epoch-by-epoch.
  hm.begin_epoch();
  hm.commit_epoch(9800.0, 0, {});
  EXPECT_FALSE(hm.due(10000.0));
  EXPECT_TRUE(hm.due(10500.0));

  // Interval 0 = endpoint epochs only: never due.
  std::ostringstream os2;
  HealthMonitor endpoint(os2, tiny_header(0.0));
  endpoint.start(0.0, {});
  EXPECT_FALSE(endpoint.due(1e12));
}

TEST(HealthMonitor, FinishTrailerIsIdempotentAndCountsLines) {
  std::ostringstream os;
  HealthMonitor hm(os, tiny_header());
  hm.start(0.0, {});
  auto rows = hm.begin_epoch();
  rows[0].pe = 1;
  hm.commit_epoch(100.0, 0, {});
  hm.finish();
  const std::string once = os.str();
  hm.finish();
  EXPECT_EQ(os.str(), once) << "finish() must be idempotent";
  const auto lines = lines_of(os);
  // hdr + epoch + 1 b row + smart + end.
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_NE(lines.back().find("\"t\":\"end\",\"epochs\":1,\"lines\":5"),
            std::string::npos);
  EXPECT_EQ(hm.lines_written(), 5u);
}

}  // namespace
}  // namespace esp::telemetry
