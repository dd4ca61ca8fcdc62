// MetricsRegistry: named counters, gauges and histograms with per-instance
// scoping.
//
// Design goals, in order:
//   1. recording must be no-op-cheap on the simulator's hot paths -- a
//      Counter increment is a plain `++u64`, and existing `++stats_.field`
//      sites can stay untouched by *binding* the field into the registry
//      (the registry holds a pointer and reads the live value at export
//      time);
//   2. deterministic export -- all maps are ordered, so JSON/CSV dumps are
//      byte-stable across runs;
//   3. instance scoping -- components register under a name prefix
//      ("subFTL/", "nand/"), so several FTL instances can share one
//      registry without colliding.
//
// Lifetime: bound counters and provider gauges reference the component
// that registered them. Before that component dies, call `materialize()`
// to snapshot every external reference into an owned value -- exports
// performed afterwards stay valid (core::Ssd does this in its destructor).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/histogram.h"

namespace esp::telemetry {

/// Monotonic counter. Plain uint64 increment; no atomics (the simulator is
/// single-threaded by design).
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time value. Either set directly or backed by a provider
/// callback evaluated lazily at read time (for live occupancy numbers).
class Gauge {
 public:
  void set(double v) noexcept {
    value_ = v;
    provider_ = nullptr;
  }
  void set_provider(std::function<double()> provider) {
    provider_ = std::move(provider);
  }
  double value() const { return provider_ ? provider_() : value_; }
  bool has_provider() const noexcept { return provider_ != nullptr; }
  /// Replaces a provider by its current value (see materialize()).
  void materialize() {
    if (provider_) {
      value_ = provider_();
      provider_ = nullptr;
    }
  }

 private:
  double value_ = 0.0;
  std::function<double()> provider_;
};

class MetricsRegistry {
 public:
  /// Returns the owned counter of that name, creating it on first use.
  /// References stay valid for the registry's lifetime.
  Counter& counter(const std::string& name);

  /// Binds `name` to an external uint64 (e.g. an FtlStats field): the
  /// registry reports that field's live value without owning it. The
  /// source must outlive the registry or be detached via materialize().
  void bind_counter(const std::string& name, const std::uint64_t* source);

  Gauge& gauge(const std::string& name);

  /// Returns the histogram of that name, creating it with the given shape
  /// on first use (later calls ignore the shape arguments).
  util::Histogram& histogram(const std::string& name, double lo, double hi,
                             std::size_t buckets);

  /// Current value of an owned or bound counter; `fallback` when absent.
  std::uint64_t counter_value(const std::string& name,
                              std::uint64_t fallback = 0) const;
  double gauge_value(const std::string& name, double fallback = 0.0) const;
  const util::Histogram* find_histogram(const std::string& name) const;

  /// Deterministic (name-ordered) iteration for exporters.
  void visit_counters(
      const std::function<void(const std::string&, std::uint64_t)>& fn) const;
  void visit_gauges(
      const std::function<void(const std::string&, double)>& fn) const;
  void visit_histograms(
      const std::function<void(const std::string&, const util::Histogram&)>&
          fn) const;

  std::size_t counter_count() const {
    return counters_.size() + bound_.size();
  }

  /// Converts every bound counter and provider gauge into an owned
  /// snapshot, severing all references into external components. Safe to
  /// call repeatedly.
  void materialize();

  /// Accumulates another registry into this one: counters add (bound
  /// counters on either side contribute their current value), gauges add,
  /// histograms merge when shapes match and are copied when absent here.
  /// Used by the parallel experiment runner to reconcile per-cell
  /// registries into a run-wide view at join time.
  void merge_from(const MetricsRegistry& other);

  /// Zeroes owned counters/gauges/histograms and drops bindings.
  void reset();

  /// Snapshot support (core/snapshot.h). Owned counters, plain-value
  /// gauges and every histogram are archived by name; bound counters and
  /// provider gauges are skipped -- they read component fields the
  /// components archive themselves and re-bind at attach. Loading
  /// find-or-creates each entry, so histograms registered lazily after the
  /// snapshot point (e.g. per-tenant forensics families) restore before
  /// their component re-binds them.
  void save_state(util::StateWriter& w) const;
  void load_state(util::StateReader& r);

 private:
  // std::map: reference stability + ordered export.
  std::map<std::string, Counter> counters_;
  std::map<std::string, const std::uint64_t*> bound_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, util::Histogram> histograms_;
};

/// Name-prefixing view over a registry: `Scope(reg, "subFTL").counter("x")`
/// resolves to the registry's "subFTL/x".
class Scope {
 public:
  Scope(MetricsRegistry& registry, std::string prefix)
      : registry_(registry), prefix_(std::move(prefix) + "/") {}

  Counter& counter(const std::string& name) {
    return registry_.counter(prefix_ + name);
  }
  void bind_counter(const std::string& name, const std::uint64_t* source) {
    registry_.bind_counter(prefix_ + name, source);
  }
  Gauge& gauge(const std::string& name) {
    return registry_.gauge(prefix_ + name);
  }
  util::Histogram& histogram(const std::string& name, double lo, double hi,
                             std::size_t buckets) {
    return registry_.histogram(prefix_ + name, lo, hi, buckets);
  }

 private:
  MetricsRegistry& registry_;
  std::string prefix_;
};

}  // namespace esp::telemetry
