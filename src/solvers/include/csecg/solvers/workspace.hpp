#ifndef CSECG_SOLVERS_WORKSPACE_HPP
#define CSECG_SOLVERS_WORKSPACE_HPP

/// \file workspace.hpp
/// Reusable scratch memory for the iterative shrinkage solvers.
///
/// A solve needs five iterate-sized panels (extrapolation points,
/// current and next iterates, prox candidates, gradients), two
/// measurement-sized ones, per-problem state and the results. Allocating
/// them per call is fine for a one-shot solve but becomes the dominant
/// non-kernel cost once a gateway decodes many 2-s windows per second
/// across a worker pool. A SolverWorkspace owns all of that scratch:
/// buffers are sized on first use and reused across solves, so FISTA runs
/// allocation-free in steady state. One workspace per worker thread; a
/// workspace must not be shared by concurrent solves.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "csecg/solvers/types.hpp"

namespace csecg::solvers {

/// One slot's figures from an iteration's bookkeeping sweep.
struct IterateSweep {
  double change_sq = 0.0;  ///< ||a_next - a_k||^2
  double norm_sq = 0.0;    ///< ||a_next||^2
  double alignment = 0.0;  ///< (y_k - a_next) . (a_next - a_k)
  bool support_changed = false;
};

class SolverWorkspace {
 public:
  /// Per-precision scratch. All vectors only ever grow; resize() between
  /// solves of the same problem shape never reallocates.
  ///
  /// The engine solves P problems of L rows each, R = P * L rows packed
  /// back to back (R*n coefficients or R*m measurements), so one panel
  /// kernel invocation sweeps them all. Rows live at *slot* positions: a
  /// finished problem is compacted out by moving the last active
  /// problem's rows into its slot (perm maps slot -> problem).
  /// Per-problem state is indexed by problem, not slot.
  template <typename T>
  struct Buffers {
    std::vector<T> yk;         ///< extrapolation points y_k (R*n)
    std::vector<T> a_k;        ///< current iterates (R*n)
    std::vector<T> a_next;     ///< next iterates (R*n)
    std::vector<T> candidate;  ///< y_k - (1/L) grad (R*n)
    std::vector<T> gradient;   ///< A^T residual (R*n)
    std::vector<T> residual;   ///< A y_k - y (R*m)
    std::vector<T> ys;         ///< compactable measurement rows (R*m)
    std::vector<T> rownorms;   ///< per-slot ||residual||^2 (R)
    std::vector<T> thresholds;           ///< lambda_p / L (P)
    std::vector<T> weighted_thresholds;  ///< w_i * lambda_p / L (P*n)
    std::vector<double> tk;              ///< momentum scalars t_k (P)
    /// Consecutive support-stable iteration counters (P), for the
    /// support-aware tolerance relaxation.
    std::vector<std::size_t> support_stable;
    std::vector<std::size_t> perm;  ///< slot -> problem index (P)
    std::vector<IterateSweep> sweep;  ///< per-slot bookkeeping sums (P)
    /// Solve outputs, one per row; the workspace-taking solvers write
    /// here and return a reference or span, reusing solution capacity.
    std::vector<ShrinkageResult<T>> results;
    /// Caller-side scratch for code wrapping the solver (the decoder's
    /// scaled measurement rows, its A^T y row, per-problem lambdas and
    /// replicated warm-start seed rows).
    std::vector<T> aux_y;             ///< (R*m)
    std::vector<T> aux_n;             ///< (n)
    std::vector<double> aux_lambdas;  ///< (P)
    std::vector<double> aux_warm;     ///< (R*n)
  };

  template <typename T>
  Buffers<T>& buffers();

 private:
  Buffers<float> float_;
  Buffers<double> double_;
};

template <>
inline SolverWorkspace::Buffers<float>& SolverWorkspace::buffers<float>() {
  return float_;
}

template <>
inline SolverWorkspace::Buffers<double>& SolverWorkspace::buffers<double>() {
  return double_;
}

}  // namespace csecg::solvers

#endif  // CSECG_SOLVERS_WORKSPACE_HPP
