#include "telemetry/journal.h"

#include <cstdio>

namespace esp::telemetry {
namespace {

// Buffer large enough for the longest line (op with a deep cause chain).
constexpr std::size_t kLineCap = 768;

// "%.10g" round-trips every time value this simulator produces (sums of
// microsecond-scale latencies) without the noise of full %.17g output.
void fmt_time(char* out, std::size_t cap, SimTime t) {
  std::snprintf(out, cap, "%.10g", t);
}

}  // namespace

Journal::Journal(std::ostream& os, const JournalHeader& header,
                 std::uint64_t max_events, bool resume)
    : os_(os),
      blocks_per_chip_(header.blocks_per_chip),
      max_events_(max_events),
      last_pool_(static_cast<std::size_t>(header.chips) *
                 header.blocks_per_chip) {
  if (resume) return;  // appending after a restore; hdr already on disk
  char buf[kLineCap];
  std::snprintf(buf, sizeof buf,
                "{\"v\":%d,\"t\":\"hdr\",\"ftl\":\"%s\",\"chips\":%u,"
                "\"blocks_per_chip\":%u,\"pages_per_block\":%u,\"subs\":%u,"
                "\"page_bytes\":%llu,\"seed\":%llu%s}",
                kSchemaVersion, header.ftl.c_str(), header.chips,
                header.blocks_per_chip, header.pages_per_block,
                header.subpages_per_page,
                static_cast<unsigned long long>(header.page_bytes),
                static_cast<unsigned long long>(header.seed),
                header.shard_tag().c_str());
  write_line(buf);
}

bool Journal::admit() {
  if (finished_) return false;
  if (max_events_ != 0 && events_ >= max_events_) {
    ++truncated_;
    return false;
  }
  ++events_;
  return true;
}

void Journal::write_line(const char* buf) {
  os_ << buf << '\n';
}

std::string Journal::chain_string(std::span<const CauseFrame> chain) const {
  std::string out;
  for (const CauseFrame& frame : chain) {
    if (!out.empty()) out += '>';
    out += cause_name(frame.cause);
  }
  return out;
}

void Journal::on_op(const OpEvent& event, Cause cause,
                    std::span<const CauseFrame> chain,
                    std::uint32_t request_id) {
  if (event.end > last_time_) last_time_ = event.end;

  char start_s[32], dur_s[32];
  fmt_time(start_s, sizeof start_s, event.start);
  fmt_time(dur_s, sizeof dur_s, event.end - event.start);
  char buf[kLineCap];

  switch (event.kind) {
    case OpKind::kHostWrite:
    case OpKind::kHostTrim:
    case OpKind::kHostFlush: {
      // arg0 = sector count, arg1 = start sector (driver's end_request).
      if (!admit()) return;
      std::snprintf(buf, sizeof buf,
                    "{\"t\":\"host\",\"op\":\"%s\",\"req\":%u,"
                    "\"sectors\":%llu,\"sector\":%llu,\"start_us\":%s,"
                    "\"dur_us\":%s}",
                    op_name(event.kind), request_id,
                    static_cast<unsigned long long>(event.arg0),
                    static_cast<unsigned long long>(event.arg1), start_s,
                    dur_s);
      write_line(buf);
      return;
    }
    case OpKind::kHostRead:
    case OpKind::kRead:
      // Reads never amplify writes; skipping them bounds journal size.
      return;
    case OpKind::kProgFull:
    case OpKind::kProgSub:
    case OpKind::kErase: {
      if (!admit()) return;
      const std::string chain_s = chain_string(chain);
      char addr[96];
      if (event.kind == OpKind::kProgFull) {
        // arg0 = page index.
        std::snprintf(addr, sizeof addr, "\"page\":%llu",
                      static_cast<unsigned long long>(event.arg0));
      } else if (event.kind == OpKind::kProgSub) {
        // arg0 = slot index, arg1 = page index.
        std::snprintf(addr, sizeof addr, "\"page\":%llu,\"slot\":%llu",
                      static_cast<unsigned long long>(event.arg1),
                      static_cast<unsigned long long>(event.arg0));
      } else {
        // arg0 = P/E cycle count after the erase.
        std::snprintf(addr, sizeof addr, "\"pe\":%llu",
                      static_cast<unsigned long long>(event.arg0));
      }
      std::snprintf(buf, sizeof buf,
                    "{\"t\":\"op\",\"op\":\"%s\",\"cause\":\"%s\","
                    "\"chain\":\"%s\",\"req\":%u,\"chip\":%u,\"block\":%u,"
                    "%s,\"start_us\":%s,\"dur_us\":%s}",
                    op_name(event.kind), cause_name(cause), chain_s.c_str(),
                    request_id, event.chip, event.block, addr, start_s,
                    dur_s);
      write_line(buf);
      return;
    }
    default:
      break;
  }

  // FTL mechanism lane: gc_copy, rmw, forward_migration, retention_evict,
  // wear_level.
  if (!admit()) return;
  std::snprintf(buf, sizeof buf,
                "{\"t\":\"mech\",\"op\":\"%s\",\"req\":%u,\"a0\":%llu,"
                "\"a1\":%llu,\"start_us\":%s,\"dur_us\":%s}",
                op_name(event.kind), request_id,
                static_cast<unsigned long long>(event.arg0),
                static_cast<unsigned long long>(event.arg1), start_s, dur_s);
  write_line(buf);
}

void Journal::on_scope(char phase, const CauseFrame& frame) {
  if (!admit()) return;
  char at_s[32];
  fmt_time(at_s, sizeof at_s, phase == 'B' ? frame.at : last_time_);
  char buf[kLineCap];
  std::snprintf(buf, sizeof buf,
                "{\"t\":\"scope\",\"ph\":\"%c\",\"cause\":\"%s\","
                "\"detail\":%llu,\"us\":%s}",
                phase, cause_name(frame.cause),
                static_cast<unsigned long long>(frame.detail), at_s);
  write_line(buf);
}

void Journal::on_block(const BlockLifecycleEvent& event) {
  if (event.at > last_time_) last_time_ = event.at;
  const std::size_t idx =
      static_cast<std::size_t>(event.chip) * blocks_per_chip_ + event.block;

  char at_s[32];
  fmt_time(at_s, sizeof at_s, event.at);
  char buf[kLineCap];

  if (event.kind == BlockEventKind::kAllocated && idx < last_pool_.size()) {
    // Resolve the pool name to a stable small id and derive a `converted`
    // line when the owning pool changed since the last allocation.
    std::uint8_t pool_id = 0;
    for (std::size_t i = 0; i < pool_names_.size(); ++i)
      if (pool_names_[i] == event.pool) pool_id = static_cast<std::uint8_t>(i + 1);
    if (pool_id == 0 && pool_names_.size() < 250) {
      pool_names_.emplace_back(event.pool);
      pool_id = static_cast<std::uint8_t>(pool_names_.size());
    }
    const std::uint8_t prev = last_pool_[idx];
    if (prev != 0 && pool_id != 0 && prev != pool_id) {
      if (admit()) {
        std::snprintf(buf, sizeof buf,
                      "{\"t\":\"blk\",\"ev\":\"converted\",\"pool\":\"%s\","
                      "\"from\":\"%s\",\"chip\":%u,\"block\":%u,\"pe\":%u,"
                      "\"us\":%s}",
                      event.pool, pool_names_[prev - 1].c_str(), event.chip,
                      event.block, event.pe_cycles, at_s);
        write_line(buf);
      }
    }
    if (pool_id != 0) last_pool_[idx] = pool_id;
  }

  if (!admit()) return;
  std::snprintf(buf, sizeof buf,
                "{\"t\":\"blk\",\"ev\":\"%s\",\"pool\":\"%s\",\"chip\":%u,"
                "\"block\":%u,\"level\":%u,\"valid\":%u,\"pe\":%u,\"us\":%s}",
                block_event_name(event.kind), event.pool, event.chip,
                event.block, event.level, event.valid, event.pe_cycles, at_s);
  write_line(buf);
}

void Journal::finish() {
  if (finished_) return;
  char buf[kLineCap];
  std::snprintf(buf, sizeof buf,
                "{\"t\":\"end\",\"events\":%llu,\"truncated\":%llu}",
                static_cast<unsigned long long>(events_),
                static_cast<unsigned long long>(truncated_));
  write_line(buf);
  os_.flush();
  finished_ = true;
}

void Journal::save_state(util::StateWriter& w) const {
  w.tag("JRNL");
  w.u64(events_);
  w.u64(truncated_);
  w.f64(last_time_);
  w.pod_vec(last_pool_);
  w.u64(pool_names_.size());
  for (const std::string& name : pool_names_) w.str(name);
}

void Journal::load_state(util::StateReader& r) {
  r.tag("JRNL");
  events_ = r.u64();
  truncated_ = r.u64();
  last_time_ = r.f64();
  std::vector<std::uint8_t> pools;
  r.pod_vec(pools);
  if (pools.size() != last_pool_.size())
    throw std::runtime_error("Journal::load_state: geometry mismatch");
  last_pool_ = std::move(pools);
  pool_names_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) pool_names_.push_back(r.str());
}

}  // namespace esp::telemetry
