#ifndef PERFBENCH_PROBE_HPP
#define PERFBENCH_PROBE_HPP

/// \file probe.hpp
/// Host-side probes the harness reads around the system under test:
/// clocks, process CPU time, resident memory, a heap-allocation counter
/// and order statistics.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// User + system CPU seconds of the whole process (all threads).
double process_cpu_seconds();

/// Current resident set size, MiB.
double resident_mib();

/// Hands free heap pages back to the kernel, so a later RSS reading is
/// not masked by memory the harness already released.
void release_free_heap();

/// Global operator new counts allocations while counting is on, except
/// on threads inside a HarnessScope (the harness's own allocations).
void set_allocation_counting(bool on);
std::uint64_t allocations_counted();

class HarnessScope {
 public:
  HarnessScope();
  ~HarnessScope();
  HarnessScope(const HarnessScope&) = delete;
  HarnessScope& operator=(const HarnessScope&) = delete;

 private:
  bool previous_;
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// FNV-1a over raw bytes, chainable through \p hash.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = 14695981039346656037ull);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_HPP
