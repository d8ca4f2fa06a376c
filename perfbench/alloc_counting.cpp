// Traced build only: a counting global operator new, the same interposer
// perf_core uses, so host.allocs_per_proc is comparable with its
// fig10_1m_storm allocation row. Relaxed atomics: the simulator's worlds
// here are single-threaded and the count is read between phases.
#include <atomic>
#include <cstdlib>
#include <new>

#include "alloc_count.h"

namespace {

std::atomic<std::uint64_t> g_calls{0};

void* counted_alloc(std::size_t n) {
  g_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_calls.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(a, (n + a - 1) & ~(a - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {

bool alloc_counting() { return true; }
std::uint64_t alloc_calls() {
  return g_calls.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
