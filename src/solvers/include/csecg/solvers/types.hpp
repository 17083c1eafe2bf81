#ifndef CSECG_SOLVERS_TYPES_HPP
#define CSECG_SOLVERS_TYPES_HPP

/// \file types.hpp
/// Shared option/result types for the sparse-recovery solvers.

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "csecg/linalg/backend.hpp"

namespace csecg::solvers {

/// Options for the iterative shrinkage solvers (ISTA / FISTA), solving
///   min_a ||A a - y||_2^2 + lambda ||a||_1            (paper eq 3).
struct ShrinkageOptions {
  double lambda = 0.1;          ///< l1 weight (relative to signal scale)
  std::size_t max_iterations = 2000;
  /// Stop when the relative change of the iterate drops below this.
  double tolerance = 1e-5;
  /// Optional eq-2 stopping: halt once ||A a - y||_2 <= sigma.
  std::optional<double> sigma;
  /// Lipschitz constant of grad f; estimated by power iteration if unset.
  std::optional<double> lipschitz;
  /// Kernel backend the solve runs through, in both precisions. Null =
  /// the library default (the reference loops). Wrap in a CountingBackend
  /// to price the op mix as a §IV-B schedule. Must point at a backend
  /// that outlives the solve; the shared singletons from
  /// linalg/backend.hpp always do.
  const linalg::Backend* backend = nullptr;
  /// Record the objective F(a_k) each iteration (convergence benches).
  bool record_objective = false;
  /// Adaptive gradient restart (O'Donoghue & Candès): reset the momentum
  /// whenever it points against the descent direction. An extension over
  /// the paper's constant-momentum FISTA; costs nothing per iteration and
  /// removes the objective ripples of plain FISTA.
  bool adaptive_restart = false;
  /// Optional per-coefficient l1 weights (solves
  /// min ||A a - y||^2 + lambda * sum_i w_i |a_i|). Empty = uniform.
  /// Used to penalise the wavelet approximation band less than the detail
  /// bands, where ECG energy is guaranteed vs merely possible.
  std::vector<double> weights;
  /// Warm start: seeds a_0 (and y_1 = a_0) from this span instead of
  /// zero — the Polanía et al. prior exploitation: consecutive ECG
  /// windows are quasi-periodic, so the previous window's solution is an
  /// excellent initial iterate. Length must be A.cols() for fista()/
  /// ista(); for fista_panel it is one prior per row, P * leads *
  /// A.cols() packed like the measurement rows. Empty = cold (zero)
  /// start. The span must stay valid for the duration of the solve; the
  /// values are consumed at seed time, so the caller may overwrite them
  /// afterwards.
  std::span<const double> warm_start;
  /// Support-aware stopping (0 = off): once the support (nonzero
  /// pattern) of the iterate has been stable for support_stable_iters
  /// consecutive iterations, the relative-change stopping threshold
  /// relaxes from `tolerance` to max(tolerance, support_tolerance) — the
  /// active set has locked in, so the remaining iterations only polish
  /// coefficient magnitudes the reconstruction barely sees.
  double support_tolerance = 0.0;
  std::size_t support_stable_iters = 3;
};

template <typename T>
struct ShrinkageResult {
  std::vector<T> solution;
  std::size_t iterations = 0;
  bool converged = false;        ///< hit tolerance/sigma before max_iter
  double final_objective = 0.0;  ///< F(a) = ||Aa - y||^2 + lambda ||a||_1
  double final_residual_norm = 0.0;  ///< ||A a - y||_2
  std::vector<double> objective_trace;  ///< filled if record_objective
};

/// Options for orthogonal matching pursuit (the greedy baseline of §I).
struct OmpOptions {
  std::size_t max_support = 128;     ///< maximum selected atoms
  double residual_tolerance = 1e-6;  ///< stop when ||r||/||y|| drops below
};

struct OmpResult {
  std::vector<double> solution;
  std::vector<std::size_t> support;
  std::size_t iterations = 0;
  bool converged = false;
  double final_residual_norm = 0.0;
};

}  // namespace csecg::solvers

#endif  // CSECG_SOLVERS_TYPES_HPP
