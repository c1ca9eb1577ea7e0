// Generic bulk-op helpers over any queue Handle.
//
// The bulk API contract (mirrored by every native implementation):
//   try_enqueue_bulk(vs, n) -> number of values accepted, a PREFIX of vs
//   try_dequeue_bulk(out, n) -> number of values received into out[0..k)
// Both are best-effort: a short count means full/empty (or contention cut
// the batch), never an error, and never a hole in the middle.
//
// enqueue_bulk/dequeue_bulk below forward to a handle's native bulk ops
// when it has them (detected at compile time) and otherwise run the
// per-item prefix loop — so every queue in the registry supports bulk
// callers, and the native paths keep their amortization. This loop is
// membq's only per-item fallback, and it serves only the combining
// optimal(L5) queue, michael-scott and the mutex ring: every other queue,
// L1–L4 and the lock-free L5 included, has a native bulk body and runs
// its scalar ops through it (bulk with n=1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace membq {
namespace workload {
namespace bulk_detail {

template <class H, class = void>
struct has_enqueue_bulk : std::false_type {};
template <class H>
struct has_enqueue_bulk<
    H, std::void_t<decltype(std::declval<H&>().try_enqueue_bulk(
           std::declval<const std::uint64_t*>(), std::size_t{0}))>>
    : std::true_type {};

template <class H, class = void>
struct has_dequeue_bulk : std::false_type {};
template <class H>
struct has_dequeue_bulk<
    H, std::void_t<decltype(std::declval<H&>().try_dequeue_bulk(
           std::declval<std::uint64_t*>(), std::size_t{0}))>>
    : std::true_type {};

}  // namespace bulk_detail

template <class H>
std::size_t enqueue_bulk(H& h, const std::uint64_t* vs, std::size_t n) {
  if constexpr (bulk_detail::has_enqueue_bulk<H>::value) {
    return h.try_enqueue_bulk(vs, n);
  } else {
    std::size_t i = 0;
    while (i < n && h.try_enqueue(vs[i])) ++i;
    return i;
  }
}

template <class H>
std::size_t dequeue_bulk(H& h, std::uint64_t* out, std::size_t n) {
  if constexpr (bulk_detail::has_dequeue_bulk<H>::value) {
    return h.try_dequeue_bulk(out, n);
  } else {
    std::size_t i = 0;
    while (i < n && h.try_dequeue(out[i])) ++i;
    return i;
  }
}

}  // namespace workload
}  // namespace membq
