#include "csecg/solvers/fista.hpp"

#include <algorithm>
#include <cmath>

#include "csecg/obs/obs.hpp"
#include "csecg/util/error.hpp"

namespace csecg::solvers {

namespace {

inline const linalg::Backend& resolve_backend(const ShrinkageOptions& options) {
  return options.backend != nullptr ? *options.backend
                                    : linalg::default_backend();
}

/// Charges one of the solver's hand-written elementwise loops (weighted
/// prox, momentum update, iterate change), which no backend kernel
/// prices: `ops` ALU operations, 4-wide under the simd4 schedule, plus
/// the loop's loads and stores. No-op on plain backends.
void charge_loop(const linalg::Backend& be, std::uint64_t ops,
                 std::uint64_t loads, std::uint64_t stores) {
  const linalg::CountingBackend* counter = be.counting();
  if (counter == nullptr) {
    return;
  }
  linalg::OpCounts c;
  if (counter->schedule() == linalg::KernelMode::kScalar) {
    c.scalar_op = ops;
  } else {
    c.vector_op4 = ops / 4;
  }
  c.loads = loads;
  c.stores = stores;
  linalg::charge(c);
}

/// The bookkeeping sweep over G adjacent slots of `ln` coefficients: the
/// iterate change and norm, the support flip (kSupport) and the restart
/// alignment (kAlign) in one pass. The slots' add chains interleave, and
/// each slot keeps its own double sums in ascending i, so every figure is
/// bitwise the one a lone loop over that slot computes.
template <std::size_t G, bool kSupport, bool kAlign, typename T>
void sweep_slots(const T* next, const T* cur, const T* yk, std::size_t ln,
                 IterateSweep* out) {
  double change[G] = {};
  double norm[G] = {};
  double align[G] = {};
  bool flip[G] = {};
  for (std::size_t i = 0; i < ln; ++i) {
    for (std::size_t j = 0; j < G; ++j) {
      const T nt = next[j * ln + i];
      const T ct = cur[j * ln + i];
      const double nx = static_cast<double>(nt);
      const double diff = nx - static_cast<double>(ct);
      change[j] += diff * diff;
      norm[j] += nx * nx;
      if constexpr (kSupport) {
        flip[j] |= (nt != T{}) != (ct != T{});
      }
      if constexpr (kAlign) {
        align[j] += (static_cast<double>(yk[j * ln + i]) - nx) * diff;
      }
    }
  }
  for (std::size_t j = 0; j < G; ++j) {
    out[j] = {change[j], norm[j], align[j], flip[j]};
  }
}

/// Sweeps all `active` slots, up to four per pass.
template <bool kSupport, bool kAlign, typename T>
void sweep_panel(const T* next, const T* cur, const T* yk, std::size_t ln,
                 std::size_t active, IterateSweep* out) {
  std::size_t s = 0;
  for (; s + 4 <= active; s += 4) {
    sweep_slots<4, kSupport, kAlign>(next + s * ln, cur + s * ln,
                                     yk + s * ln, ln, out + s);
  }
  const T* n = next + s * ln;
  const T* c = cur + s * ln;
  const T* y = yk + s * ln;
  switch (active - s) {
    case 3:
      sweep_slots<3, kSupport, kAlign>(n, c, y, ln, out + s);
      break;
    case 2:
      sweep_slots<2, kSupport, kAlign>(n, c, y, ln, out + s);
      break;
    case 1:
      sweep_slots<1, kSupport, kAlign>(n, c, y, ln, out + s);
      break;
    default:
      break;
  }
}

template <typename T>
void sweep_panel(bool support, bool align, const T* next, const T* cur,
                 const T* yk, std::size_t ln, std::size_t active,
                 IterateSweep* out) {
  if (support) {
    align ? sweep_panel<true, true>(next, cur, yk, ln, active, out)
          : sweep_panel<true, false>(next, cur, yk, ln, active, out);
  } else {
    align ? sweep_panel<false, true>(next, cur, yk, ln, active, out)
          : sweep_panel<false, false>(next, cur, yk, ln, active, out);
  }
}

/// The one shrinkage engine behind fista(), ista() and fista_panel().
/// Solves lambdas.size() problems of `leads` contiguous rows each; every
/// stage of the iteration runs as one panel kernel over the rows of the
/// still-active problems, so the operator is traversed once per
/// iteration however many problems ride along. Each problem keeps its
/// own momentum, restart, support counter, stopping rule and objective
/// trace, so its trajectory is bitwise the one it would take alone. A
/// finished problem is snapshotted at its own stopping iteration and
/// compacted out by moving the last active problem's rows into its
/// slot: later panels shrink, so it stops being charged. Momentum off is
/// ISTA.
template <typename T>
std::span<ShrinkageResult<T>> shrinkage_panel(
    const linalg::LinearOperator<T>& A, std::span<const T> y_flat,
    std::span<const double> lambdas, std::size_t leads,
    const ShrinkageOptions& options, bool momentum,
    SolverWorkspace& workspace) {
  const std::size_t problems = lambdas.size();
  const std::size_t n = A.cols();
  const std::size_t m = A.rows();
  const std::size_t rows = problems * leads;
  const std::size_t ln = leads * n;
  CSECG_CHECK(leads > 0, "lead group must be non-empty");
  CSECG_CHECK(y_flat.size() == rows * m, "measurement size mismatch");
  CSECG_CHECK(options.max_iterations > 0, "need at least one iteration");
  const bool weighted = !options.weights.empty();
  CSECG_CHECK(leads == 1 || (!weighted && !options.sigma.has_value() &&
                             !options.record_objective),
              "lead groups take neither weights, sigma stopping nor "
              "objective traces");
  CSECG_CHECK(!weighted || options.weights.size() == n,
              "weights must match the coefficient dimension");
  const bool warm = !options.warm_start.empty();
  CSECG_CHECK(!warm || options.warm_start.size() == rows * n,
              "warm start must hold one prior per row");

  auto& ws = workspace.buffers<T>();
  // Results only ever grow, so alternating panel shapes keep their
  // solution buffers.
  if (ws.results.size() < rows) {
    ws.results.resize(rows);
  }
  const std::span<ShrinkageResult<T>> results(ws.results.data(), rows);
  if (problems == 0) {
    return results;
  }

  const linalg::Backend& be = resolve_backend(options);
  // Lipschitz constant of grad f(a) = 2 A^T (A a - y): L = 2 lambda_max.
  // Note value_or would evaluate the power iteration eagerly — it must
  // only run when the caller did not supply L (it costs tens of operator
  // applies and allocates its own iteration vectors).
  const double lipschitz =
      options.lipschitz.has_value()
          ? *options.lipschitz
          : 2.0 * linalg::estimate_spectral_norm_squared(A);
  CSECG_CHECK(lipschitz > 0.0, "operator has zero spectral norm");
  const T step = static_cast<T>(1.0 / lipschitz);

  // Per-problem state, indexed by problem (not slot), so compaction only
  // moves rows and the slot -> problem map.
  ws.thresholds.resize(problems);
  ws.tk.assign(problems, 1.0);
  ws.support_stable.assign(problems, 0);
  ws.perm.resize(problems);
  ws.sweep.resize(problems);
  for (std::size_t p = 0; p < problems; ++p) {
    CSECG_CHECK(lambdas[p] >= 0.0, "lambda must be non-negative");
    ws.thresholds[p] = static_cast<T>(lambdas[p] / lipschitz);
    ws.perm[p] = p;
  }
  if (weighted) {
    ws.weighted_thresholds.resize(problems * n);
    for (std::size_t p = 0; p < problems; ++p) {
      for (std::size_t i = 0; i < n; ++i) {
        CSECG_CHECK(options.weights[i] >= 0.0,
                    "l1 weights must be non-negative");
        ws.weighted_thresholds[p * n + i] =
            static_cast<T>(options.weights[i]) * ws.thresholds[p];
      }
    }
  }
  for (ShrinkageResult<T>& r : results) {
    r.iterations = 0;
    r.converged = false;
    r.final_objective = 0.0;
    r.final_residual_norm = 0.0;
    r.objective_trace.clear();
  }

  // Regulariser value g(a) = sum_i w_i |a_i| (w = 1 when unweighted).
  const auto g_value = [&](const T* a) {
    if (!weighted) {
      return static_cast<double>(be.norm1(a, n));
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += options.weights[i] * std::fabs(static_cast<double>(a[i]));
    }
    return acc;
  };

  std::vector<T>& yk = ws.yk;
  std::vector<T>& a_k = ws.a_k;
  std::vector<T>& a_next = ws.a_next;
  std::vector<T>& candidate = ws.candidate;
  std::vector<T>& gradient = ws.gradient;
  std::vector<T>& residual = ws.residual;
  std::vector<T>& ys = ws.ys;
  // Step 0: y_1 = a_0. Cold solves start from zero; a warm start seeds
  // both from the caller's per-row priors. The seeding is setup, not
  // iteration work, so it charges nothing — same as the cold zero fill.
  if (warm) {
    yk.resize(rows * n);
    a_k.resize(rows * n);
    for (std::size_t i = 0; i < rows * n; ++i) {
      const T v = static_cast<T>(options.warm_start[i]);
      yk[i] = v;
      a_k[i] = v;
    }
  } else {
    yk.assign(rows * n, T{});
    a_k.assign(rows * n, T{});
  }
  a_next.resize(rows * n);
  candidate.resize(rows * n);
  gradient.resize(rows * n);
  residual.resize(rows * m);
  ws.rownorms.resize(rows);
  // Measurement rows move into compactable slot storage (uncharged
  // setup): y_flat may alias caller scratch that must not be reordered.
  ys.assign(y_flat.begin(), y_flat.end());

  const bool support_aware = options.support_tolerance > 0.0;
  std::size_t active = problems;

  for (std::size_t k = 1; k <= options.max_iterations && active > 0; ++k) {
    const std::size_t panel = active * leads;
    // grad f(y_k) = 2 A^T (A y_k - y); candidate = y_k - (2/L) grad_half.
    // The copy goes through the backend so a counting decorator sees its
    // loads/stores in both schedules.
    A.apply_batch(std::span<const T>(yk.data(), panel * n),
                  std::span<T>(residual.data(), panel * m), panel);
    be.subtract_batch(residual.data(), ys.data(), residual.data(), panel, m);
    A.apply_adjoint_batch(std::span<const T>(residual.data(), panel * m),
                          std::span<T>(gradient.data(), panel * n), panel);
    be.copy_batch(yk.data(), candidate.data(), panel, n);
    be.axpy_batch(static_cast<T>(-2.0) * step, gradient.data(),
                  candidate.data(), panel, n);

    // a_k = prox(candidate) (eq 4): the l2,1 group shrink across a
    // problem's leads, which at leads == 1 is the plain soft threshold;
    // per-coefficient thresholds in the weighted variant.
    for (std::size_t s = 0; s < active; ++s) {
      const std::size_t p = ws.perm[s];
      const T* cand = candidate.data() + s * ln;
      T* next = a_next.data() + s * ln;
      if (weighted) {
        const T* thresholds = ws.weighted_thresholds.data() + p * n;
        for (std::size_t i = 0; i < n; ++i) {
          const T v = cand[i];
          const T mag = (v < T{} ? -v : v) - thresholds[i];
          const T shrunk = mag > T{} ? mag : T{};
          next[i] = v < T{} ? -shrunk : shrunk;
        }
        charge_loop(be, 5ull * n, 2ull * n, n);
      } else {
        be.group_soft_threshold_batch(cand, ws.thresholds[p], next, leads, n);
      }
    }

    // Residual at the new iterate, for sigma stopping, objective traces
    // and the final iteration's diagnostics.
    const bool need_residual = options.record_objective ||
                               options.sigma.has_value() ||
                               k == options.max_iterations;
    if (need_residual) {
      A.apply_batch(std::span<const T>(a_next.data(), panel * n),
                    std::span<T>(residual.data(), panel * m), panel);
      be.subtract_batch(residual.data(), ys.data(), residual.data(), panel,
                        m);
      be.dot_batch(residual.data(), residual.data(), ws.rownorms.data(),
                   panel, m);
    }

    // The bookkeeping sweep: every active slot's iterate change and norm,
    // support flip and restart alignment, in one pass before any slot
    // moves, so each slot still reads its own rows. The support and
    // alignment figures are stopping-rule control flow, outside the
    // charged kernel model.
    const bool align = momentum && options.adaptive_restart;
    sweep_panel(support_aware, align, a_next.data(), a_k.data(), yk.data(),
                ln, active, ws.sweep.data());

    // Per-problem decisions, stopping and compaction. Descending slot
    // order keeps swap-with-last sound: the problem moved in from the end
    // has already been processed this iteration.
    for (std::size_t s = active; s-- > 0;) {
      const std::size_t p = ws.perm[s];
      T* yk_s = yk.data() + s * ln;
      T* next = a_next.data() + s * ln;
      const T* cur = a_k.data() + s * ln;
      const IterateSweep& swept = ws.sweep[s];
      if (support_aware) {
        ws.support_stable[p] =
            swept.support_changed ? 0 : ws.support_stable[p] + 1;
      }

      if (momentum) {
        double t_k = ws.tk[p];
        // Gradient restart test: if the momentum direction (a_new - a_old)
        // opposes the last proximal step (y_k - a_new), kill the momentum.
        if (align && swept.alignment > 0.0) {
          t_k = 1.0;
        }
        // eqs 5-6.
        const double t_next = (1.0 + std::sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0;
        const T beta = static_cast<T>((t_k - 1.0) / t_next);
        for (std::size_t i = 0; i < ln; ++i) {
          yk_s[i] = next[i] + beta * (next[i] - cur[i]);
        }
        ws.tk[p] = t_next;
        // Momentum update: sub + MAC per element, 2 loads, 1 store.
        charge_loop(be, 2ull * ln, 2ull * ln, ln);
      } else {
        be.copy(next, yk_s, ln);
      }
      // Iterate-change accumulation: sub + two MACs per element, 2 loads.
      charge_loop(be, 3ull * ln, 2ull * ln, 0);

      // Residual-based rules (sigma, traces) are single-row only.
      const double residual_norm =
          need_residual && leads == 1
              ? std::sqrt(static_cast<double>(ws.rownorms[s]))
              : 0.0;
      if (options.record_objective) {
        results[p].objective_trace.push_back(residual_norm * residual_norm +
                                             lambdas[p] * g_value(next));
      }
      // Once the support has been stable long enough the active set has
      // locked in, and the (looser) support tolerance governs the stop.
      const double tolerance =
          support_aware && ws.support_stable[p] >= options.support_stable_iters
              ? std::max(options.tolerance, options.support_tolerance)
              : options.tolerance;
      const bool stop =
          (options.sigma.has_value() && residual_norm <= *options.sigma) ||
          (swept.norm_sq > 0.0 &&
           std::sqrt(swept.change_sq / swept.norm_sq) < tolerance);
      if (stop || k == options.max_iterations) {
        for (std::size_t l = 0; l < leads; ++l) {
          ShrinkageResult<T>& r = results[p * leads + l];
          r.solution.assign(next + l * n, next + (l + 1) * n);
          r.iterations = k;
          r.converged = stop;
        }
      }
      if (stop) {
        --active;
        if (s != active) {
          std::copy_n(yk.data() + active * ln, ln, yk_s);
          std::copy_n(a_next.data() + active * ln, ln, next);
          std::copy_n(ys.data() + active * leads * m, leads * m,
                      ys.data() + s * leads * m);
          ws.perm[s] = ws.perm[active];
        }
      }
    }
    // The old a_k rows are dead (fully overwritten by the next prox
    // before any read), so only a_next needed compaction.
    std::swap(a_k, a_next);
  }

  // Final diagnostics per row: ||A a - y|| and F(a) = ||A a - y||^2 +
  // lambda g(a) (per lead for a group).
  const std::span<T> diag(residual.data(), m);
  for (std::size_t r = 0; r < rows; ++r) {
    ShrinkageResult<T>& res = results[r];
    A.apply(std::span<const T>(res.solution), diag);
    be.subtract(diag.data(), y_flat.data() + r * m, diag.data(), m);
    res.final_residual_norm =
        std::sqrt(static_cast<double>(be.norm2_squared(diag.data(), m)));
    res.final_objective = res.final_residual_norm * res.final_residual_norm +
                          lambdas[r / leads] * g_value(res.solution.data());
  }
  return results;
}

}  // namespace

template <typename T>
std::span<ShrinkageResult<T>> fista_panel(const linalg::LinearOperator<T>& A,
                                          std::span<const T> y_flat,
                                          std::span<const double> lambdas,
                                          std::size_t leads,
                                          const ShrinkageOptions& options,
                                          SolverWorkspace& workspace) {
  const auto results = shrinkage_panel(A, y_flat, lambdas, leads, options,
                                       /*momentum=*/true, workspace);
  // The iteration count is the paper's runtime currency (Fig 7, §V): a
  // per-solve histogram makes its distribution observable live.
  for (std::size_t r = 0; r < results.size(); r += leads) {
    const auto iterations = static_cast<double>(results[r].iterations);
    if (leads == 1) {
      obs::observe("fista.iterations", iterations);
      obs::add("fista.calls");
      if (results[r].converged) {
        obs::add("fista.converged");
      }
    } else {
      obs::observe("fista.group.iterations", iterations);
      obs::observe("fista.group.leads", static_cast<double>(leads));
      obs::add("fista.group.calls");
      if (results[r].converged) {
        obs::add("fista.group.converged");
      }
    }
  }
  return results;
}

template <typename T>
ShrinkageResult<T>& fista(const linalg::LinearOperator<T>& A,
                          std::span<const T> y,
                          const ShrinkageOptions& options,
                          SolverWorkspace& workspace) {
  return fista_panel(A, y, std::span<const double>(&options.lambda, 1), 1,
                     options, workspace)[0];
}

template <typename T>
ShrinkageResult<T>& ista(const linalg::LinearOperator<T>& A,
                         std::span<const T> y,
                         const ShrinkageOptions& options,
                         SolverWorkspace& workspace) {
  ShrinkageResult<T>& result =
      shrinkage_panel(A, y, std::span<const double>(&options.lambda, 1), 1,
                      options, /*momentum=*/false, workspace)[0];
  obs::observe("ista.iterations", static_cast<double>(result.iterations));
  obs::add("ista.calls");
  return result;
}

template <typename T>
ShrinkageResult<T> fista(const linalg::LinearOperator<T>& A,
                         std::span<const T> y,
                         const ShrinkageOptions& options) {
  SolverWorkspace workspace;
  return std::move(fista<T>(A, y, options, workspace));
}

template <typename T>
ShrinkageResult<T> ista(const linalg::LinearOperator<T>& A,
                        std::span<const T> y,
                        const ShrinkageOptions& options) {
  SolverWorkspace workspace;
  return std::move(ista<T>(A, y, options, workspace));
}

template ShrinkageResult<float> fista<float>(
    const linalg::LinearOperator<float>&, std::span<const float>,
    const ShrinkageOptions&);
template ShrinkageResult<double> fista<double>(
    const linalg::LinearOperator<double>&, std::span<const double>,
    const ShrinkageOptions&);
template ShrinkageResult<float> ista<float>(
    const linalg::LinearOperator<float>&, std::span<const float>,
    const ShrinkageOptions&);
template ShrinkageResult<double> ista<double>(
    const linalg::LinearOperator<double>&, std::span<const double>,
    const ShrinkageOptions&);
template ShrinkageResult<float>& fista<float>(
    const linalg::LinearOperator<float>&, std::span<const float>,
    const ShrinkageOptions&, SolverWorkspace&);
template ShrinkageResult<double>& fista<double>(
    const linalg::LinearOperator<double>&, std::span<const double>,
    const ShrinkageOptions&, SolverWorkspace&);
template ShrinkageResult<float>& ista<float>(
    const linalg::LinearOperator<float>&, std::span<const float>,
    const ShrinkageOptions&, SolverWorkspace&);
template ShrinkageResult<double>& ista<double>(
    const linalg::LinearOperator<double>&, std::span<const double>,
    const ShrinkageOptions&, SolverWorkspace&);
template std::span<ShrinkageResult<float>> fista_panel<float>(
    const linalg::LinearOperator<float>&, std::span<const float>,
    std::span<const double>, std::size_t, const ShrinkageOptions&,
    SolverWorkspace&);
template std::span<ShrinkageResult<double>> fista_panel<double>(
    const linalg::LinearOperator<double>&, std::span<const double>,
    std::span<const double>, std::size_t, const ShrinkageOptions&,
    SolverWorkspace&);

}  // namespace csecg::solvers
