#ifndef CSECG_LINALG_SPARSE_BINARY_MATRIX_HPP
#define CSECG_LINALG_SPARSE_BINARY_MATRIX_HPP

/// \file sparse_binary_matrix.hpp
/// The paper's key encoder data structure (§IV-A2, approach 3).
///
/// An M x N sensing matrix in which every column has exactly d non-zero
/// entries equal to 1/sqrt(d), at uniformly random distinct row positions.
/// Only the d row indices per column are stored (N*d small integers), so a
/// 256x512, d = 12 matrix fits in ~6 kB — this is what makes CS sampling
/// feasible inside the MSP430's 10 kB of RAM. The projection y = Phi*x is
/// d*N integer additions (plus one global scale), no multiplications.
///
/// The host additionally keeps a row-compressed twin of the table so that
/// both floating-point projections gather; the instance holds no mutable
/// state (panel scratch is per thread), so one matrix can serve any number
/// of decoders on any number of threads.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "csecg/util/error.hpp"
#include "csecg/util/rng.hpp"

namespace csecg::linalg {

class SparseBinaryMatrix {
 public:
  /// Builds an M x N sparse binary matrix with exactly \p d non-zeros per
  /// column, positions drawn from \p rng. Requires d <= rows.
  SparseBinaryMatrix(std::size_t rows, std::size_t cols, std::size_t d,
                     util::Rng& rng);

  /// Builds from an explicit index table (cols * d row indices, column
  /// major, each column's d indices strictly ascending). This is how the
  /// coordinator mirrors the mote's on-the-fly PRNG-generated matrix.
  /// Throws on a repeated or out-of-order row, an out-of-range row, and
  /// cols > 65536 (the twin stores column indices as uint16).
  SparseBinaryMatrix(std::size_t rows, std::size_t cols, std::size_t d,
                     std::vector<std::uint16_t> row_index);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros_per_column() const { return d_; }

  /// The common non-zero value 1/sqrt(d).
  double value() const { return value_; }

  /// The d (sorted, distinct) row indices of column \p c.
  std::span<const std::uint16_t> column_rows(std::size_t c) const {
    CSECG_CHECK(c < cols_, "column index out of range");
    return std::span<const std::uint16_t>(row_index_.data() + c * d_, d_);
  }

  /// y = Phi x (floating point path, used on the coordinator side). Row r
  /// gathers its x[c] from the row-compressed twin in ascending c, the
  /// order in which the mote's column scatter adds them, then takes one
  /// final scale — bitwise the scatter's result.
  template <typename T>
  void apply(std::span<const T> x, std::span<T> y) const;

  /// y = Phi^T x: column c gathers its d rows in table order, then scales.
  template <typename T>
  void apply_transpose(std::span<const T> x, std::span<T> y) const;

  /// Panel projection: y_row_b = Phi x_row_b for `batch` packed rows.
  /// Each group of up to kLanes rows is interleaved into per-thread
  /// scratch (lanes past the panel read zero and are never stored), so
  /// every gathered x[c] is one 4-wide load and the row twin is read once
  /// per group. Each lane replays apply()'s per-row order, so results are
  /// bitwise equal to the row-by-row loop; a lone row runs apply()'s
  /// scalar gather.
  template <typename T>
  void apply_batch(std::span<const T> x, std::span<T> y,
                   std::size_t batch) const;

  /// Panel back-projection: y_row_b = Phi^T x_row_b, with the same lane
  /// groups and bitwise contract as apply_batch over apply_transpose().
  template <typename T>
  void apply_transpose_batch(std::span<const T> x, std::span<T> y,
                             std::size_t batch) const;

  /// Integer accumulation path used by the 16-bit mote encoder: y must have
  /// rows() entries; each y[r] accumulates the *unscaled* sum of the x
  /// samples hitting row r. The 1/sqrt(d) scale is deferred to the decoder
  /// (it commutes with everything linear downstream), so the mote performs
  /// additions only. 32-bit accumulators cannot overflow: at most N terms
  /// of 11-bit magnitude.
  void accumulate_integer(std::span<const std::int16_t> x,
                          std::span<std::int32_t> y) const;

  /// Storage the index table would occupy on the mote, in bytes (the paper
  /// stores one small integer per non-zero). The host-side row twin is
  /// not counted: the mote never holds it.
  std::size_t storage_bytes() const;

  /// Fraction of row pairs of distinct columns that collide (share a row);
  /// a quick incoherence diagnostic used by tests.
  double average_column_overlap() const;

  /// Panel lane width: one lane per batch row, sized so a group's
  /// interleaved accumulators match 4-wide vector units (they
  /// auto-vectorise as fixed-count contiguous loops). Public so the §IV-B
  /// cycle model can price the index-table stream per lane group: a panel
  /// apply of `batch` rows reads the cols*d table ceil(batch / kLanes)
  /// times, not batch times. The model prices the paper's column
  /// schedule on the mote's table, not the host's twin gathers.
  static constexpr std::size_t kLanes = 4;

 private:
  /// Validates the column table and builds the row-compressed twin.
  void index_rows();

  std::size_t rows_;
  std::size_t cols_;
  std::size_t d_;
  double value_;
  // The mote's table: cols_ * d_ row indices, sorted and distinct per
  // column. storage_bytes() and the integer path read only this.
  std::vector<std::uint16_t> row_index_;
  // Its row-compressed twin, built once at construction so that Phi x
  // gathers too: row r's column indices, ascending, sit at
  // [row_start_[r], row_start_[r + 1]) of row_cols_.
  std::vector<std::uint32_t> row_start_;
  std::vector<std::uint16_t> row_cols_;
};

}  // namespace csecg::linalg

#endif  // CSECG_LINALG_SPARSE_BINARY_MATRIX_HPP
