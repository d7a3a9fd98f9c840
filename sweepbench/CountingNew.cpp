//===- sweepbench/CountingNew.cpp - Counting global operator new ----------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
// Replaces the global allocation functions in the benchmark binary only,
// so the traced run can report real heap traffic per shadow op next to
// the limb allocator's own counter (which sees limb blocks alone). The
// count is thread-local: the analysis probe reads it on the thread that
// runs the analysis, and the increment costs no shared cache line.
//
//===----------------------------------------------------------------------===//

#include "Sweep.h"

#include <cstdlib>
#include <new>

namespace {
thread_local uint64_t HeapAllocCount = 0;

void *allocate(std::size_t N) {
  ++HeapAllocCount;
  if (N == 0)
    N = 1;
  for (;;) {
    if (void *P = std::malloc(N))
      return P;
    std::new_handler H = std::get_new_handler();
    if (!H)
      throw std::bad_alloc();
    H();
  }
}

void *allocateAligned(std::size_t N, std::align_val_t Al) {
  ++HeapAllocCount;
  std::size_t A = static_cast<std::size_t>(Al);
  if (A < sizeof(void *))
    A = sizeof(void *);
  // aligned_alloc wants a size that is a multiple of the alignment.
  std::size_t Size = (N + A - 1) / A * A;
  if (Size == 0)
    Size = A;
  for (;;) {
    if (void *P = std::aligned_alloc(A, Size))
      return P;
    std::new_handler H = std::get_new_handler();
    if (!H)
      throw std::bad_alloc();
    H();
  }
}
} // namespace

uint64_t sweepbench::threadHeapAllocs() { return HeapAllocCount; }

void *operator new(std::size_t N) { return allocate(N); }
void *operator new[](std::size_t N) { return allocate(N); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  try {
    return allocate(N);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  try {
    return allocate(N);
  } catch (...) {
    return nullptr;
  }
}
void *operator new(std::size_t N, std::align_val_t A) {
  return allocateAligned(N, A);
}
void *operator new[](std::size_t N, std::align_val_t A) {
  return allocateAligned(N, A);
}
void *operator new(std::size_t N, std::align_val_t A,
                   const std::nothrow_t &) noexcept {
  try {
    return allocateAligned(N, A);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](std::size_t N, std::align_val_t A,
                     const std::nothrow_t &) noexcept {
  try {
    return allocateAligned(N, A);
  } catch (...) {
    return nullptr;
  }
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
