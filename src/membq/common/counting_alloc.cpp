#include "common/counting_alloc.hpp"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace membq {
namespace {

// Constant-initialized (constexpr atomic constructors) so counting is
// valid before any static constructor runs — operator new can be called
// arbitrarily early.
std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_total_bytes{0};
std::atomic<std::size_t> g_live_allocs{0};

AllocCounter g_counter{};

// Every block is laid out as [raw malloc block ... size, raw][user data].
// The two bookkeeping words sit immediately before the user pointer, which
// is aligned to `align`; `raw` lets free() recover the malloc pointer for
// any alignment.
constexpr std::size_t kBookkeepingBytes = 2 * sizeof(std::uintptr_t);

void* counted_alloc(std::size_t n, std::size_t align) noexcept {
  if (align < alignof(std::max_align_t)) align = alignof(std::max_align_t);
  void* raw = std::malloc(n + align + kBookkeepingBytes);
  if (raw == nullptr) return nullptr;
  std::uintptr_t user = reinterpret_cast<std::uintptr_t>(raw) +
                        kBookkeepingBytes + align - 1;
  user &= ~static_cast<std::uintptr_t>(align - 1);
  auto* words = reinterpret_cast<std::uintptr_t*>(user);
  words[-1] = n;
  words[-2] = reinterpret_cast<std::uintptr_t>(raw);
  g_live_bytes.fetch_add(n, std::memory_order_relaxed);
  g_total_bytes.fetch_add(n, std::memory_order_relaxed);
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  return reinterpret_cast<void*>(user);
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  auto* words = reinterpret_cast<std::uintptr_t*>(p);
  const std::size_t n = words[-1];
  void* raw = reinterpret_cast<void*>(words[-2]);
  g_live_bytes.fetch_sub(n, std::memory_order_relaxed);
  g_live_allocs.fetch_sub(1, std::memory_order_relaxed);
  std::free(raw);
}

void* counted_alloc_or_throw(std::size_t n, std::size_t align) {
  void* p = counted_alloc(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

std::size_t AllocCounter::live_bytes() const noexcept {
  return g_live_bytes.load(std::memory_order_relaxed);
}

std::size_t AllocCounter::total_bytes() const noexcept {
  return g_total_bytes.load(std::memory_order_relaxed);
}

std::size_t AllocCounter::live_allocations() const noexcept {
  return g_live_allocs.load(std::memory_order_relaxed);
}

AllocCounter& AllocCounter::instance() noexcept { return g_counter; }

}  // namespace membq

// ---- global operator new/delete replacement ------------------------------

void* operator new(std::size_t n) {
  return membq::counted_alloc_or_throw(n, __STDCPP_DEFAULT_NEW_ALIGNMENT__);
}

void* operator new[](std::size_t n) {
  return membq::counted_alloc_or_throw(n, __STDCPP_DEFAULT_NEW_ALIGNMENT__);
}

void* operator new(std::size_t n, std::align_val_t align) {
  return membq::counted_alloc_or_throw(n, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t n, std::align_val_t align) {
  return membq::counted_alloc_or_throw(n, static_cast<std::size_t>(align));
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return membq::counted_alloc(n, __STDCPP_DEFAULT_NEW_ALIGNMENT__);
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return membq::counted_alloc(n, __STDCPP_DEFAULT_NEW_ALIGNMENT__);
}

void operator delete(void* p) noexcept { membq::counted_free(p); }
void operator delete[](void* p) noexcept { membq::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { membq::counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept {
  membq::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  membq::counted_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  membq::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  membq::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  membq::counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  membq::counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  membq::counted_free(p);
}
