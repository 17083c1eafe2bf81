#ifndef CSECG_CORE_SENSING_MATRIX_HPP
#define CSECG_CORE_SENSING_MATRIX_HPP

/// \file sensing_matrix.hpp
/// The three sensing-matrix designs studied in §IV-A2.
///
/// (1) i.i.d. Gaussian N(0, 1/N) — the RIP-optimal reference, too costly
///     for the mote (needs an on-board normal RNG and a dense matvec);
/// (2) symmetric Bernoulli ±1/sqrt(N) — cheaper entries, same dense cost;
/// (3) sparse binary — d ones per column scaled 1/sqrt(d), satisfying the
///     RIP-p property of Berinde et al.; the design the paper ships.
///
/// All three share one type so benches can swap them symmetrically. The
/// generator is seeded: the mote and the coordinator construct bit-exact
/// copies from the shared seed instead of transmitting the matrix.
///
/// A sparse binary Phi is fully determined by (rows, cols, d, 16-bit
/// seed), so every SensingMatrix of one geometry and seed shares a single
/// immutable SparseBinaryMatrix, handed out by a process-wide cache while
/// any holder is alive: a gateway serving many nodes on a few profiles
/// keeps one Phi per profile, not one per node.

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "csecg/linalg/dense_matrix.hpp"
#include "csecg/linalg/sparse_binary_matrix.hpp"

namespace csecg::core {

enum class SensingMatrixType {
  kGaussian,
  kBernoulli,
  kSparseBinary,
};

std::string to_string(SensingMatrixType type);

struct SensingMatrixConfig {
  SensingMatrixType type = SensingMatrixType::kSparseBinary;
  std::size_t rows = 256;  ///< M — number of CS measurements
  std::size_t cols = 512;  ///< N — window length (2 s at 256 Hz)
  std::size_t d = 12;      ///< non-zeros per column (sparse binary only)
  std::uint64_t seed = 42; ///< shared mote/coordinator seed
};

/// A Phi instance. Dense designs are stored in both precisions so the
/// float decoder path avoids per-call conversion.
class SensingMatrix {
 public:
  explicit SensingMatrix(const SensingMatrixConfig& config);

  const SensingMatrixConfig& config() const { return config_; }
  std::size_t rows() const { return config_.rows; }
  std::size_t cols() const { return config_.cols; }

  /// y = Phi x.
  void apply(std::span<const double> x, std::span<double> y) const;
  void apply(std::span<const float> x, std::span<float> y) const;

  /// y = Phi^T x.
  void apply_transpose(std::span<const double> x, std::span<double> y) const;
  void apply_transpose(std::span<const float> x, std::span<float> y) const;

  /// Panel forms: y_row_b = Phi x_row_b (resp. Phi^T) over `batch` packed
  /// rows; the matrix representation is traversed once per panel. Bitwise
  /// identical per row to the single-vector calls.
  void apply_batch(std::span<const double> x, std::span<double> y,
                   std::size_t batch) const;
  void apply_batch(std::span<const float> x, std::span<float> y,
                   std::size_t batch) const;
  void apply_transpose_batch(std::span<const double> x, std::span<double> y,
                             std::size_t batch) const;
  void apply_transpose_batch(std::span<const float> x, std::span<float> y,
                             std::size_t batch) const;

  /// Sparse-binary integer path for the mote (throws for dense designs).
  /// Matrices of equal geometry and 16-bit seed return the same object.
  const linalg::SparseBinaryMatrix& sparse() const;
  bool is_sparse() const { return sparse_ != nullptr; }

  /// On-mote storage of the matrix representation in bytes: the index
  /// table for sparse binary, the full coefficient array for dense.
  std::size_t storage_bytes() const;

 private:
  SensingMatrixConfig config_;
  std::shared_ptr<const linalg::SparseBinaryMatrix> sparse_;
  std::unique_ptr<linalg::DenseMatrix<double>> dense_d_;
  std::unique_ptr<linalg::DenseMatrix<float>> dense_f_;
};

}  // namespace csecg::core

#endif  // CSECG_CORE_SENSING_MATRIX_HPP
