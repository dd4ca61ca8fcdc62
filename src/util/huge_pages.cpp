#include "util/huge_pages.h"

#if defined(__linux__)
#include <sys/mman.h>

#include <cstdint>
#endif

namespace esp::util {

#if defined(__linux__)
namespace {

std::size_t round_to_huge_pages(std::size_t bytes) {
  return (bytes + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
}

}  // namespace

// Large arrays bypass malloc: mapped memory goes back to the kernel when
// freed, so a device built after another was destroyed neither lands in
// nor fragments the malloc heap, and the advice covers exactly the array.
void* huge_page_allocate(std::size_t bytes) {
  if (bytes < kHugePageBytes) return ::operator new(bytes);
  // Map one huge page more than needed, then unmap the misaligned head
  // and whatever is left past the aligned range.
  const std::size_t len = round_to_huge_pages(bytes);
  const std::size_t mapped = len + kHugePageBytes;
  void* raw = ::mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t start =
      (base + kHugePageBytes - 1) & ~std::uintptr_t{kHugePageBytes - 1};
  if (start != base) ::munmap(raw, start - base);
  if (const std::size_t tail = base + mapped - (start + len); tail != 0)
    ::munmap(reinterpret_cast<void*>(start + len), tail);
  void* p = reinterpret_cast<void*>(start);
  // Advisory: without THP support the range keeps 4-KiB pages.
  ::madvise(p, len, MADV_HUGEPAGE);
  return p;
}

void huge_page_deallocate(void* p, std::size_t bytes) noexcept {
  if (bytes < kHugePageBytes)
    ::operator delete(p);
  else
    ::munmap(p, round_to_huge_pages(bytes));
}
#else
void* huge_page_allocate(std::size_t bytes) { return ::operator new(bytes); }

void huge_page_deallocate(void* p, std::size_t) noexcept {
  ::operator delete(p);
}
#endif

}  // namespace esp::util
