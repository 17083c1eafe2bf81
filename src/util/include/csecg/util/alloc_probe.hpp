#ifndef CSECG_UTIL_ALLOC_PROBE_HPP
#define CSECG_UTIL_ALLOC_PROBE_HPP

/// \file alloc_probe.hpp
/// Heap-allocation counter behind the steady-state allocation gates
/// (bench_fleet, `csecg_tool gateway --soak`).
///
/// alloc_probe.cpp replaces the global operator new/delete family with
/// versions that count allocations while g_count_allocations is set. It
/// is built as its own OBJECT library (csecg::alloc_probe), so the hooks
/// land only in the executables that link it, never in the libraries.
/// Deallocation is never counted: only allocations inside a measured
/// phase matter. Set CSECG_ALLOC_TRAP=1 to abort with a backtrace on
/// the first counted allocation, which then names the offender.

#include <atomic>
#include <cstddef>

namespace csecg::util {

extern std::atomic<bool> g_count_allocations;
extern std::atomic<std::size_t> g_allocations;

}  // namespace csecg::util

#endif  // CSECG_UTIL_ALLOC_PROBE_HPP
