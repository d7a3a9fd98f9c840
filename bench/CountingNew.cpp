//===- bench/CountingNew.cpp - Counting global operator new ---------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
// Replaces the global allocation functions in bench_engine_scaling only, so
// its probes can count every heap allocation, not just the limb blocks the
// limb allocator's own counter sees. The count is per thread: a probe reads
// it on the thread it runs on, and the increment touches no shared line.
//
//===----------------------------------------------------------------------===//

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace herbgrind::bench {
uint64_t threadHeapAllocs();
} // namespace herbgrind::bench

namespace {
thread_local uint64_t HeapAllocs = 0;

void *allocate(std::size_t N, std::size_t Align) {
  ++HeapAllocs;
  if (Align < sizeof(void *))
    Align = sizeof(void *);
  // aligned_alloc wants a nonzero size that is a multiple of the alignment.
  std::size_t Size = N == 0 ? Align : (N + Align - 1) / Align * Align;
  for (;;) {
    void *P = Align <= alignof(std::max_align_t)
                  ? std::malloc(Size)
                  : std::aligned_alloc(Align, Size);
    if (P)
      return P;
    std::new_handler H = std::get_new_handler();
    if (!H)
      throw std::bad_alloc();
    H();
  }
}

void *allocateNoThrow(std::size_t N, std::size_t Align) noexcept {
  try {
    return allocate(N, Align);
  } catch (...) {
    return nullptr;
  }
}

constexpr std::size_t Plain = alignof(std::max_align_t);
} // namespace

uint64_t herbgrind::bench::threadHeapAllocs() { return HeapAllocs; }

void *operator new(std::size_t N) { return allocate(N, Plain); }
void *operator new[](std::size_t N) { return allocate(N, Plain); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  return allocateNoThrow(N, Plain);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return allocateNoThrow(N, Plain);
}
void *operator new(std::size_t N, std::align_val_t A) {
  return allocate(N, static_cast<std::size_t>(A));
}
void *operator new[](std::size_t N, std::align_val_t A) {
  return allocate(N, static_cast<std::size_t>(A));
}
void *operator new(std::size_t N, std::align_val_t A,
                   const std::nothrow_t &) noexcept {
  return allocateNoThrow(N, static_cast<std::size_t>(A));
}
void *operator new[](std::size_t N, std::align_val_t A,
                     const std::nothrow_t &) noexcept {
  return allocateNoThrow(N, static_cast<std::size_t>(A));
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t,
                     const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::align_val_t,
                       const std::nothrow_t &) noexcept {
  std::free(P);
}
