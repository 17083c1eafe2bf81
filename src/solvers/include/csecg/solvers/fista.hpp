#ifndef CSECG_SOLVERS_FISTA_HPP
#define CSECG_SOLVERS_FISTA_HPP

/// \file fista.hpp
/// FISTA with constant step size (Beck & Teboulle 2009), exactly the
/// variant the paper lists in §II-B:
///
///   Input: L — a Lipschitz constant of grad f
///   Step 0: y_1 = a_0, t_1 = 1
///   Step k: a_k     = prox_{1/L}(g)(y_k - (1/L) grad f(y_k))     (eq 4)
///           t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2                (eq 5)
///           y_{k+1} = a_k + ((t_k - 1)/t_{k+1})(a_k - a_{k-1})   (eq 6)
///
/// with f(a) = ||A a - y||_2^2 and g(a) = lambda ||a||_1, whose prox is
/// plain soft thresholding. Converges at O(1/k^2) versus ISTA's O(1/k).
///
/// One engine runs every solve: P problems of L contiguous rows each,
/// sharing the operator A and advancing as one panel (one operator
/// traversal per iteration). fista() and ista() are its P = 1, L = 1
/// case (ISTA with the momentum off); fista_panel() exposes the rest.

#include <span>

#include "csecg/linalg/linear_operator.hpp"
#include "csecg/solvers/types.hpp"
#include "csecg/solvers/workspace.hpp"

namespace csecg::solvers {

/// Runs FISTA on min ||A a - y||^2 + lambda ||a||_1. Starts from zero,
/// or from options.warm_start when set (the prior-aware decode path:
/// consecutive ECG windows are quasi-periodic, so the previous window's
/// solution seeds a_0 = y_1 and the solve converges in a fraction of the
/// cold iteration count).
template <typename T>
ShrinkageResult<T> fista(const linalg::LinearOperator<T>& A,
                         std::span<const T> y,
                         const ShrinkageOptions& options);

/// ISTA (no momentum) with the same interface — the O(1/k) baseline the
/// paper accelerates away from.
template <typename T>
ShrinkageResult<T> ista(const linalg::LinearOperator<T>& A,
                        std::span<const T> y,
                        const ShrinkageOptions& options);

/// Workspace variants: all scratch and the returned result live in
/// \p workspace, so repeated solves of the same shape never touch the
/// heap (steady-state allocation-free — the fleet decode hot path). The
/// returned reference stays valid until the next solve through the same
/// workspace; one workspace per thread.
template <typename T>
ShrinkageResult<T>& fista(const linalg::LinearOperator<T>& A,
                          std::span<const T> y,
                          const ShrinkageOptions& options,
                          SolverWorkspace& workspace);

template <typename T>
ShrinkageResult<T>& ista(const linalg::LinearOperator<T>& A,
                         std::span<const T> y,
                         const ShrinkageOptions& options,
                         SolverWorkspace& workspace);

/// Panel FISTA: solves P = lambdas.size() problems of `leads` rows each
/// that share the operator A. y_flat packs the P * leads measurement
/// rows back to back (problem-major, then lead-major), lambdas[p] is
/// problem p's penalty weight (options.lambda is ignored) and the result
/// span holds one entry per row.
///
/// Each problem runs its own iteration with its own momentum scalar,
/// restart test, support counter, stopping rule and objective trace, and
/// a finished problem stops being swept (and charged) at its own
/// stopping iteration. So every problem produces bitwise the same
/// iterates, iteration count and solution as it would solved alone, and
/// the solver's kernels and bookkeeping charge exactly what the
/// sequential fista() calls would (the operator prices its own panel
/// applies).
///
/// The prox is per problem:
///  * leads == 1: the soft threshold, or the weighted soft threshold
///    when options.weights is set;
///  * leads > 1: the l2,1 group shrink of a lead group,
///      min_a sum_l ||A a_l - y_l||^2 + lambda * sum_i ||a_{.,i}||_2,
///    where a_{.,i} collects coefficient i across the group's leads, so
///    leads with correlated wavelet support reinforce each other. One
///    momentum scalar, restart test and stopping rule (summed over the
///    lead axis) cover the whole group; iterations/converged are
///    group-wide and final_objective is the per-lead diagnostic
///    ||A a_l - y_l||^2 + lambda ||a_l||_1.
///
/// options.warm_start, when set, is P * leads * A.cols() per-row priors
/// packed like y_flat. Lead groups (leads > 1) take no per-coefficient
/// weights, sigma stopping or objective traces (CHECK-enforced): the
/// group penalty is defined for the uniform weight only. Results live in
/// the workspace and stay valid until the next solve through it.
template <typename T>
std::span<ShrinkageResult<T>> fista_panel(const linalg::LinearOperator<T>& A,
                                          std::span<const T> y_flat,
                                          std::span<const double> lambdas,
                                          std::size_t leads,
                                          const ShrinkageOptions& options,
                                          SolverWorkspace& workspace);

}  // namespace csecg::solvers

#endif  // CSECG_SOLVERS_FISTA_HPP
