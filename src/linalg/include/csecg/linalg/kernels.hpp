#ifndef CSECG_LINALG_KERNELS_HPP
#define CSECG_LINALG_KERNELS_HPP

/// \file kernels.hpp
/// Operation accounting for the §IV-B cycle model.
///
/// The iPhone 3GS decoder was written twice: a plain scalar version
/// executed on the Cortex-A8 VFP (18–21 cycles per single-precision
/// multiply-accumulate) and a NEON-vectorised version operating on 4-float
/// lanes (2 MACs per cycle). Neither schedule is executed: a
/// CountingBackend (backend.hpp) prices whatever kernels run as one of
/// them. This header holds the vocabulary the platform::CortexA8Model
/// prices — KernelMode (which schedule a cost is priced against), the
/// OpCounts operation mix, and the thread-local OpCounterScope that a
/// CountingBackend charges into. This is what lets the benches regenerate
/// the paper's 2.43x speed-up and its CPU-usage and iteration-budget
/// numbers without the physical phone.

#include <cstddef>
#include <cstdint>

namespace csecg::linalg {

/// Which §IV-B schedule a cost formula should price against.
enum class KernelMode {
  kScalar,  ///< plain loops; models the VFP path (pre-optimisation)
  kSimd4,   ///< explicit 4-lane blocking; models the NEON path
};

/// Operation mix executed by counted kernels since the counter was
/// reset. The Cortex-A8 cycle model weights these classes.
struct OpCounts {
  std::uint64_t scalar_mac = 0;    ///< single-lane multiply-accumulate
  std::uint64_t scalar_op = 0;     ///< single-lane add/sub/mul/abs/cmp
  std::uint64_t vector_mac4 = 0;   ///< 4-lane MAC (one NEON vmla)
  std::uint64_t vector_op4 = 0;    ///< 4-lane add/sub/mul/abs/cmp/select
  std::uint64_t leftover_lane = 0; ///< lane-by-lane loads for non-multiple-of-4 tails
  std::uint64_t loads = 0;         ///< element loads
  std::uint64_t stores = 0;        ///< element stores

  OpCounts& operator+=(const OpCounts& other);
};

/// Scoped access to the thread-local operation counter.
///
/// Counting is off by default (counter pointer is null and charge() is a
/// no-op); plain backends never even call charge(). Create a scope and
/// run kernels through a CountingBackend to collect a mix:
///
///   OpCounterScope scope;
///   ... run kernels via counting_simd4_backend() ...
///   OpCounts counts = scope.counts();
class OpCounterScope {
 public:
  OpCounterScope();
  ~OpCounterScope();
  OpCounterScope(const OpCounterScope&) = delete;
  OpCounterScope& operator=(const OpCounterScope&) = delete;

  const OpCounts& counts() const { return counts_; }
  void reset() { counts_ = OpCounts{}; }

 private:
  OpCounts counts_;
  OpCounts* previous_;
};

/// Charges an externally computed operation mix to the active
/// OpCounterScope (used by CountingBackend and by code whose inner loops
/// live outside linalg, e.g. the sparse sensing-matrix apply). No-op when
/// no scope is active.
void charge(const OpCounts& delta);

}  // namespace csecg::linalg

#endif  // CSECG_LINALG_KERNELS_HPP
