#ifndef CSECG_CORE_CS_OPERATOR_HPP
#define CSECG_CORE_CS_OPERATOR_HPP

/// \file cs_operator.hpp
/// The matrix-free forward model A = Phi * Psi of the recovery problem.
///
/// apply:        alpha --Psi (inverse DWT)--> x --Phi--> y
/// apply_adjoint:    r --Phi^T--> x --Psi^T (forward DWT)--> alpha
///
/// Because Psi is an orthonormal wavelet basis implemented as a filter
/// bank and Phi is sparse binary, neither direction ever touches a dense
/// N x N matrix — the paper's contribution (1).
///
/// The operator holds no mutable state: the time-domain intermediate
/// lives in per-thread scratch, like the wavelet transform's, so const
/// applies are safe from any number of threads over a shared Phi.

#include "csecg/core/sensing_matrix.hpp"
#include "csecg/dsp/dwt.hpp"
#include "csecg/linalg/backend.hpp"
#include "csecg/linalg/linear_operator.hpp"

namespace csecg::core {

template <typename T>
class CsOperator final : public linalg::LinearOperator<T> {
 public:
  /// All three references must outlive the operator (the shared backend
  /// singletons always do).
  CsOperator(const SensingMatrix& phi, const dsp::WaveletTransform& psi,
             const linalg::Backend& backend = linalg::default_backend());

  std::size_t rows() const override { return phi_->rows(); }
  std::size_t cols() const override { return phi_->cols(); }

  void apply(std::span<const T> alpha, std::span<T> y) const override;
  void apply_adjoint(std::span<const T> r, std::span<T> alpha) const override;

  /// Panel forward model: each leg (inverse DWT, sparse projection) runs
  /// once over the whole panel, so Phi's index tables are traversed once
  /// per lane group of rows; the wavelet leg transforms row by row.
  /// Bitwise identical per row to apply()/apply_adjoint(). The sparse
  /// charge prices the paper's column schedule per lane group, whichever
  /// table the host gathers over. A panel of one runs the single-row
  /// path.
  void apply_batch(std::span<const T> alpha_flat, std::span<T> y_flat,
                   std::size_t batch) const override;
  void apply_adjoint_batch(std::span<const T> r_flat, std::span<T> alpha_flat,
                           std::size_t batch) const override;

  /// Re-validates the bound Phi/Psi after their contents were replaced in
  /// place (stream re-profiling swaps the decoder's sensing matrix and
  /// wavelet frame under the same addresses).
  void rebind();

  const linalg::Backend& backend() const { return *backend_; }
  /// Swaps the kernel backend the wavelet legs run through (the sparse
  /// projection is gather/scatter and backend-independent).
  void set_backend(const linalg::Backend& backend) { backend_ = &backend; }

 private:
  const SensingMatrix* phi_;
  const dsp::WaveletTransform* psi_;
  const linalg::Backend* backend_;
};

}  // namespace csecg::core

#endif  // CSECG_CORE_CS_OPERATOR_HPP
