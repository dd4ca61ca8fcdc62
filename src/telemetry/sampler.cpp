#include "telemetry/sampler.h"

#include <cstdio>

#include "telemetry/json.h"

namespace esp::telemetry {
namespace {

void append_num(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  os << buf;
}

}  // namespace

TimeSeriesSampler::TimeSeriesSampler(SimTime interval_us)
    : interval_us_(interval_us) {}

void TimeSeriesSampler::start(SimTime now) { next_due_us_ = now + interval_us_; }

void TimeSeriesSampler::push(const Sample& sample, SimTime now) {
  samples_.push_back(sample);
  last_sample_us_ = now;
  // Re-arm relative to the push (not the nominal boundary): windows under
  // bursty simulated time stay >= interval long instead of piling up.
  next_due_us_ = now + interval_us_;
}

std::string TimeSeriesSampler::csv_header() {
  std::string h =
      "sim_time_s,requests,iops,request_waf,overall_waf,gc_invocations,"
      "gc_copy_sectors,erases,prog_full,prog_sub,forward_migrations,"
      "retention_evictions,rmw_ops,region_blocks,region_valid_sectors";
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    const char* name = op_name(static_cast<OpKind>(k));
    h += ',';
    h += name;
    h += "_p50_us,";
    h += name;
    h += "_p99_us";
  }
  h += ",all_ops_p50_us,all_ops_p99_us,all_ops_p999_us";
  return h;
}

void TimeSeriesSampler::write_csv(std::ostream& os) const {
  os << csv_header() << '\n';
  for (const Sample& s : samples_) {
    append_num(os, s.sim_time_s);
    os << ',' << s.requests << ',';
    append_num(os, s.iops);
    os << ',';
    append_num(os, s.request_waf);
    os << ',';
    append_num(os, s.overall_waf);
    os << ',' << s.gc_invocations << ',' << s.gc_copy_sectors << ','
       << s.erases << ',' << s.prog_full << ',' << s.prog_sub << ','
       << s.forward_migrations << ',' << s.retention_evictions << ','
       << s.rmw_ops << ',';
    append_num(os, s.region_blocks);
    os << ',';
    append_num(os, s.region_valid_sectors);
    for (std::size_t k = 0; k < kOpKindCount; ++k) {
      os << ',';
      append_num(os, s.op_p50_us[k]);
      os << ',';
      append_num(os, s.op_p99_us[k]);
    }
    os << ',';
    append_num(os, s.all_ops_p50_us);
    os << ',';
    append_num(os, s.all_ops_p99_us);
    os << ',';
    append_num(os, s.all_ops_p999_us);
    os << '\n';
  }
}

void TimeSeriesSampler::save_state(util::StateWriter& w) const {
  w.tag("SMPL");
  w.f64(interval_us_);
  w.f64(next_due_us_);
  w.f64(last_sample_us_);
  w.pod_vec(samples_);
}

void TimeSeriesSampler::load_state(util::StateReader& r) {
  r.tag("SMPL");
  if (r.f64() != interval_us_)
    throw std::runtime_error(
        "TimeSeriesSampler::load_state: interval mismatch");
  next_due_us_ = r.f64();
  last_sample_us_ = r.f64();
  r.pod_vec(samples_);
}

void TimeSeriesSampler::write_json(std::ostream& os) const {
  JsonWriter w(os);
  w.begin_array();
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const Sample& s = samples_[i];
    if (i) w.newline();
    w.begin_object();
    w.kv("sim_time_s", s.sim_time_s);
    w.kv("requests", s.requests);
    w.kv("iops", s.iops);
    w.kv("request_waf", s.request_waf);
    w.kv("overall_waf", s.overall_waf);
    w.kv("gc_invocations", s.gc_invocations);
    w.kv("gc_copy_sectors", s.gc_copy_sectors);
    w.kv("erases", s.erases);
    w.kv("prog_full", s.prog_full);
    w.kv("prog_sub", s.prog_sub);
    w.kv("forward_migrations", s.forward_migrations);
    w.kv("retention_evictions", s.retention_evictions);
    w.kv("rmw_ops", s.rmw_ops);
    w.kv("region_blocks", s.region_blocks);
    w.kv("region_valid_sectors", s.region_valid_sectors);
    w.key("op_latency_us");
    w.begin_object();
    for (std::size_t k = 0; k < kOpKindCount; ++k) {
      if (s.op_p50_us[k] <= 0.0 && s.op_p99_us[k] <= 0.0) continue;
      w.key(op_name(static_cast<OpKind>(k)));
      w.begin_object();
      w.kv("p50", s.op_p50_us[k]);
      w.kv("p99", s.op_p99_us[k]);
      w.end_object();
    }
    w.end_object();
    w.kv("all_ops_p50_us", s.all_ops_p50_us);
    w.kv("all_ops_p99_us", s.all_ops_p99_us);
    w.kv("all_ops_p999_us", s.all_ops_p999_us);
    w.end_object();
  }
  w.end_array();
  w.newline();
}

}  // namespace esp::telemetry
