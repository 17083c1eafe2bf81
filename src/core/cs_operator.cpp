#include "csecg/core/cs_operator.hpp"

#include <vector>

#include "csecg/util/error.hpp"

namespace csecg::core {

namespace {

/// The sparse projection is gather/scatter-dominated, which NEON cannot
/// vectorise; charge it as scalar work in either schedule so the cycle
/// model stays honest. Skipped entirely on non-counting backends.
///
/// The price is the paper's schedule, not the host's: the column scatter
/// over the mote's cols*d index table, in both directions, whatever twin
/// the host gathers over. The panel applies stream that table once per
/// lane group (SparseBinaryMatrix::kLanes rows share each traversal,
/// partial tail groups included), so the index loads are charged per
/// group while the per-lane data traffic (gathers, adds, stores) stays
/// per row — this is what makes a joint lead-group solve priced
/// sub-additively against L independent solves. batch == 1 reduces to
/// the classic 2*nnz loads.
template <typename T>
void charge_sparse_apply(const linalg::Backend& backend,
                         const SensingMatrix& phi, std::size_t batch = 1) {
  if (backend.counting() == nullptr) {
    return;
  }
  const auto k = static_cast<std::uint64_t>(batch);
  if (phi.is_sparse()) {
    linalg::OpCounts c;
    const auto nnz = static_cast<std::uint64_t>(phi.cols()) *
                     phi.sparse().nonzeros_per_column();
    constexpr std::uint64_t kLanes = linalg::SparseBinaryMatrix::kLanes;
    const std::uint64_t traversals = (k + kLanes - 1) / kLanes;
    c.scalar_op = (nnz + phi.rows()) * k;  // adds + final scale
    c.loads = nnz * k + nnz * traversals;  // data per lane + index per group
    c.stores = nnz * k;
    linalg::charge(c);
  } else {
    linalg::OpCounts c;
    const auto elems = static_cast<std::uint64_t>(phi.rows()) * phi.cols();
    c.scalar_mac = elems * k;
    c.loads = 2 * elems * k;
    linalg::charge(c);
  }
}

/// The time-domain intermediate (one row, or a batch x length panel).
/// Per thread and only growing, so steady-state applies never allocate
/// and operators over a shared Phi need no lock.
template <typename T>
std::span<T> time_scratch(std::size_t size) {
  thread_local std::vector<T> scratch;
  scratch.resize(size);
  return std::span<T>(scratch);
}

}  // namespace

template <typename T>
CsOperator<T>::CsOperator(const SensingMatrix& phi,
                          const dsp::WaveletTransform& psi,
                          const linalg::Backend& backend)
    : phi_(&phi), psi_(&psi), backend_(&backend) {
  CSECG_CHECK(phi.cols() == psi.length(),
              "sensing matrix width must match the wavelet frame length");
}

template <typename T>
void CsOperator<T>::rebind() {
  CSECG_CHECK(phi_->cols() == psi_->length(),
              "sensing matrix width must match the wavelet frame length");
}

template <typename T>
void CsOperator<T>::apply(std::span<const T> alpha, std::span<T> y) const {
  CSECG_CHECK(alpha.size() == cols() && y.size() == rows(),
              "apply: size mismatch");
  const std::span<T> x = time_scratch<T>(psi_->length());
  psi_->inverse<T>(alpha, x, *backend_);
  phi_->apply(std::span<const T>(x), y);
  charge_sparse_apply<T>(*backend_, *phi_);
}

template <typename T>
void CsOperator<T>::apply_adjoint(std::span<const T> r,
                                  std::span<T> alpha) const {
  CSECG_CHECK(r.size() == rows() && alpha.size() == cols(),
              "apply_adjoint: size mismatch");
  const std::span<T> x = time_scratch<T>(psi_->length());
  phi_->apply_transpose(r, x);
  charge_sparse_apply<T>(*backend_, *phi_);
  psi_->forward<T>(std::span<const T>(x), alpha, *backend_);
}

template <typename T>
void CsOperator<T>::apply_batch(std::span<const T> alpha_flat,
                                std::span<T> y_flat, std::size_t batch) const {
  CSECG_CHECK(alpha_flat.size() == batch * cols() &&
                  y_flat.size() == batch * rows(),
              "apply_batch: size mismatch");
  if (batch == 1) {
    // A panel of one is the single-row apply: same bits and charges,
    // without the panel layout's overhead.
    apply(alpha_flat, y_flat);
    return;
  }
  const std::span<T> x = time_scratch<T>(batch * psi_->length());
  psi_->inverse_batch<T>(alpha_flat, x, batch, *backend_);
  phi_->apply_batch(std::span<const T>(x), y_flat, batch);
  charge_sparse_apply<T>(*backend_, *phi_, batch);
}

template <typename T>
void CsOperator<T>::apply_adjoint_batch(std::span<const T> r_flat,
                                        std::span<T> alpha_flat,
                                        std::size_t batch) const {
  CSECG_CHECK(r_flat.size() == batch * rows() &&
                  alpha_flat.size() == batch * cols(),
              "apply_adjoint_batch: size mismatch");
  if (batch == 1) {
    apply_adjoint(r_flat, alpha_flat);
    return;
  }
  const std::span<T> x = time_scratch<T>(batch * psi_->length());
  phi_->apply_transpose_batch(r_flat, x, batch);
  charge_sparse_apply<T>(*backend_, *phi_, batch);
  psi_->forward_batch<T>(std::span<const T>(x), alpha_flat, batch,
                         *backend_);
}

template class CsOperator<float>;
template class CsOperator<double>;

}  // namespace csecg::core
