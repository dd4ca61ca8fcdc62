// Allocator for device-sized arrays, backed by transparent huge pages.
//
// The simulator's per-page and per-sector state -- the NAND cell arena,
// the pools' owner slabs, the FTLs' mapping tables, the driver's shadow
// versions -- spans hundreds of MiB at production geometry and is touched
// at random, one cache line per access. With 4-KiB pages nearly every such
// access also misses the TLB. On Linux, arrays of at least kHugePageBytes
// are therefore mapped directly, 2-MiB-aligned, and advised with
// MADV_HUGEPAGE, so a kernel whose transparent huge pages run in `always`
// or `madvise` mode backs them with 2-MiB pages (under `never` the advice
// is ignored). Smaller arrays, and every array on other platforms, take
// the ordinary heap path. The advice changes only where memory comes
// from, never what it holds.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace esp::util {

inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// `bytes` of raw storage: on Linux and for bytes >= kHugePageBytes a
/// 2-MiB-aligned, huge-page-advised mapping; plain operator new otherwise.
void* huge_page_allocate(std::size_t bytes);
/// Frees storage from huge_page_allocate(bytes) (same `bytes`).
void huge_page_deallocate(void* p, std::size_t bytes) noexcept;

template <typename T>
struct HugePageAllocator {
  using value_type = T;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T))
      throw std::bad_array_new_length();
    return static_cast<T*>(huge_page_allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    huge_page_deallocate(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const HugePageAllocator<U>&) const noexcept {
    return true;
  }
};

/// A std::vector whose storage comes from huge_page_allocate.
template <typename T>
using HugeVector = std::vector<T, HugePageAllocator<T>>;

}  // namespace esp::util
