// Binary state archive primitives for snapshot/restore.
//
// StateWriter/StateReader stream fixed-width little-endian scalars, POD
// vectors and strings, plus 4-byte section tags that catch format drift
// loudly instead of deserializing garbage. Every stateful layer of the
// simulator (nand, ftl, sim, telemetry) implements
//
//   void save_state(util::StateWriter& w) const;
//   void load_state(util::StateReader& r);
//
// against these primitives; core/snapshot.h composes them into the
// versioned whole-simulator snapshot format (docs/LIFETIME.md).
//
// The format is NOT an interchange format: it is only guaranteed to load
// in a binary built from the same source tree (the snapshot header's
// format version gates cross-version loads). Values are written raw, so a
// restored simulator is bit-identical to the saved one -- including the
// doubles that carry simulated time.
#pragma once

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <istream>
#include <ostream>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace esp::util {

class StateWriter {
 public:
  explicit StateWriter(std::ostream& os) : os_(os) {}

  void u8(std::uint8_t v) { raw(&v, sizeof v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }

  /// 4-character section tag, e.g. "BLK0"; the reader requires an exact
  /// match, so a save/load mismatch fails at the tag instead of silently
  /// misinterpreting the bytes that follow.
  void tag(const char (&t)[5]) { raw(t, 4); }

  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }

  /// Trivially copyable element vectors are written as one raw span.
  template <typename T, typename A>
  void pod_vec(const std::vector<T, A>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(v.size());
    if (!v.empty()) raw(v.data(), v.size() * sizeof(T));
  }

  void bool_vec(const std::vector<bool>& v) {
    u64(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) u8(v[i] ? 1 : 0);
  }

  /// std::pair is not trivially copyable; its members are written
  /// field-by-field (also skips any padding between them).
  template <typename A, typename B>
  void pair_vec(const std::vector<std::pair<A, B>>& v) {
    static_assert(std::is_trivially_copyable_v<A> &&
                  std::is_trivially_copyable_v<B>);
    u64(v.size());
    for (const auto& [a, b] : v) {
      raw(&a, sizeof(A));
      raw(&b, sizeof(B));
    }
  }

  void raw(const void* data, std::size_t n) {
    os_.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(n));
    if (!os_) throw std::runtime_error("StateWriter: write failed");
  }

 private:
  std::ostream& os_;
};

class StateReader {
 public:
  explicit StateReader(std::istream& is) : is_(is) {}

  std::uint8_t u8() {
    std::uint8_t v;
    raw(&v, sizeof v);
    return v;
  }
  bool b() { return u8() != 0; }
  std::uint32_t u32() {
    std::uint32_t v;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, sizeof v);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v;
    raw(&v, sizeof v);
    return v;
  }
  double f64() {
    double v;
    raw(&v, sizeof v);
    return v;
  }

  /// Requires the next four bytes to equal `t`; throws otherwise.
  void tag(const char (&t)[5]) {
    char got[5] = {};
    raw(got, 4);
    if (std::memcmp(got, t, 4) != 0)
      throw std::runtime_error(std::string("StateReader: expected section '") +
                               t + "', found '" + got + "'");
  }

  std::string str() {
    std::string s(checked_count(u64(), 1), '\0');
    raw(s.data(), s.size());
    return s;
  }

  template <typename T, typename A>
  void pod_vec(std::vector<T, A>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    v.resize(checked_count(u64(), sizeof(T)));
    if (!v.empty()) raw(v.data(), v.size() * sizeof(T));
  }

  /// Reads a pod_vec-format array into `out` in place, for storage that
  /// must not move; throws unless the stored length equals out.size().
  template <typename T>
  void pod_fixed(std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (u64() != out.size())
      throw std::runtime_error("StateReader: fixed array length mismatch");
    if (!out.empty()) raw(out.data(), out.size() * sizeof(T));
  }

  void bool_vec(std::vector<bool>& v) {
    v.assign(checked_count(u64(), 1), false);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = u8() != 0;
  }

  template <typename A, typename B>
  void pair_vec(std::vector<std::pair<A, B>>& v) {
    static_assert(std::is_trivially_copyable_v<A> &&
                  std::is_trivially_copyable_v<B>);
    v.resize(checked_count(u64(), sizeof(A) + sizeof(B)));
    for (auto& [a, b] : v) {
      raw(&a, sizeof(A));
      raw(&b, sizeof(B));
    }
  }

  void raw(void* data, std::size_t n) {
    is_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (is_.gcount() != static_cast<std::streamsize>(n))
      throw std::runtime_error("StateReader: unexpected end of snapshot");
  }

 private:
  /// Caps element counts so a corrupt length prefix fails with a clear
  /// error instead of a bad_alloc.
  static std::uint64_t checked_count(std::uint64_t n, std::size_t elem) {
    constexpr std::uint64_t kMaxBytes = 1ull << 36;  // 64 GiB
    if (n > kMaxBytes / (elem == 0 ? 1 : elem))
      throw std::runtime_error("StateReader: implausible element count");
    return n;
  }

  std::istream& is_;
};

/// Serializes a std::priority_queue by exposing its protected underlying
/// container, preserving the exact heap array layout -- a restored queue
/// is indistinguishable from the saved one under any later push/pop
/// sequence.
template <typename T, typename S, typename C>
const S& heap_container(const std::priority_queue<T, S, C>& q) {
  struct Exposer : std::priority_queue<T, S, C> {
    static const S& get(const std::priority_queue<T, S, C>& pq) {
      return pq.*&Exposer::c;
    }
  };
  return Exposer::get(q);
}

template <typename T, typename S, typename C>
S& heap_container(std::priority_queue<T, S, C>& q) {
  struct Exposer : std::priority_queue<T, S, C> {
    static S& get(std::priority_queue<T, S, C>& pq) {
      return pq.*&Exposer::c;
    }
  };
  return Exposer::get(q);
}

}  // namespace esp::util
