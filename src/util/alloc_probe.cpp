#include "csecg/util/alloc_probe.hpp"

#include <execinfo.h>

#include <cstdlib>
#include <new>

namespace csecg::util {

std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace csecg::util

namespace {

bool trap_on_allocation() {
  static const bool trap = [] {
    const char* value = std::getenv("CSECG_ALLOC_TRAP");
    return value != nullptr && value[0] == '1';
  }();
  return trap;
}

void note_allocation() {
  using csecg::util::g_allocations;
  using csecg::util::g_count_allocations;
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (trap_on_allocation()) {
      void* frames[32];
      const int depth = backtrace(frames, 32);
      backtrace_symbols_fd(frames, depth, 2);
      std::abort();
    }
  }
}

}  // namespace

// Counting hooks for every replaceable allocation path the toolchain may
// route through.
void* operator new(std::size_t size) {
  note_allocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  note_allocation();
  if (void* p = std::aligned_alloc(
          static_cast<std::size_t>(align),
          (size + static_cast<std::size_t>(align) - 1) &
              ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
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
