#include "csecg/linalg/sparse_binary_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace csecg::linalg {

namespace {

// Outputs per block: a block keeps this many independent accumulator
// chains in flight, so one output's serial adds overlap its neighbours'.
constexpr std::size_t kBlock = 4;

/// Interleaves `width` packed rows of length n into n x W lanes (element
/// i of row l at lanes[i * W + l]); lanes past the panel read zero. The
/// lanes are per thread and only grow, so the steady-state decode stays
/// allocation-free and a matrix shared across threads needs no lock.
template <typename T, std::size_t W>
const T* interleave(const T* x, std::size_t n, std::size_t width) {
  thread_local std::vector<T> lanes;
  lanes.resize(n * W);
  T* out = lanes.data();
  for (std::size_t l = 0; l < W; ++l) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i * W + l] = l < width ? x[l * n + i] : T{};
    }
  }
  return out;
}

/// The one gather kernel of both projections. Output o sums the lane
/// vectors at lanes[idx[k] * W] for k in [first(o), first(o + 1)),
/// ascending, from zero, and stores scale * sum to y[l * y_stride + o]
/// for the panel's `width` lanes. kBlock outputs run in lockstep over
/// their common length, then each finishes alone, so every output keeps
/// its own add order.
template <typename T, std::size_t W, typename First>
void gather(First first, const std::uint16_t* idx, std::size_t count,
            const T* lanes, T scale, T* y, std::size_t y_stride,
            std::size_t width) {
  std::size_t o = 0;
  for (; o + kBlock <= count; o += kBlock) {
    std::size_t begin[kBlock];
    std::size_t end[kBlock];
    std::size_t common = first(o + 1) - first(o);
    for (std::size_t j = 0; j < kBlock; ++j) {
      begin[j] = first(o + j);
      end[j] = first(o + j + 1);
      common = std::min(common, end[j] - begin[j]);
    }
    T acc[kBlock][W] = {};
    for (std::size_t k = 0; k < common; ++k) {
      for (std::size_t j = 0; j < kBlock; ++j) {
        const T* v = lanes + idx[begin[j] + k] * W;
        for (std::size_t l = 0; l < W; ++l) {
          acc[j][l] += v[l];
        }
      }
    }
    for (std::size_t j = 0; j < kBlock; ++j) {
      for (std::size_t k = begin[j] + common; k < end[j]; ++k) {
        const T* v = lanes + idx[k] * W;
        for (std::size_t l = 0; l < W; ++l) {
          acc[j][l] += v[l];
        }
      }
      for (std::size_t l = 0; l < width; ++l) {
        y[l * y_stride + o + j] = acc[j][l] * scale;
      }
    }
  }
  for (; o < count; ++o) {
    T acc[W] = {};
    for (std::size_t k = first(o); k < first(o + 1); ++k) {
      const T* v = lanes + idx[k] * W;
      for (std::size_t l = 0; l < W; ++l) {
        acc[l] += v[l];
      }
    }
    for (std::size_t l = 0; l < width; ++l) {
      y[l * y_stride + o] = acc[l] * scale;
    }
  }
}

/// One projection over `batch` packed rows of length `in` into rows of
/// length `out`: groups of up to kLanes rows run the 4-lane gather on
/// their interleaved panel, a lone row the 1-lane gather straight from x.
template <typename T, typename First>
void project(First first, const std::uint16_t* idx, std::size_t in,
             std::size_t out, T scale, const T* x, T* y, std::size_t batch) {
  constexpr std::size_t kLanes = SparseBinaryMatrix::kLanes;
  for (std::size_t b0 = 0; b0 < batch; b0 += kLanes) {
    const std::size_t width = std::min(kLanes, batch - b0);
    const T* xb = x + b0 * in;
    T* yb = y + b0 * out;
    if (width == 1) {
      gather<T, 1>(first, idx, out, xb, scale, yb, out, 1);
    } else {
      gather<T, kLanes>(first, idx, out, interleave<T, kLanes>(xb, in, width),
                        scale, yb, out, width);
    }
  }
}

}  // namespace

SparseBinaryMatrix::SparseBinaryMatrix(std::size_t rows, std::size_t cols,
                                       std::size_t d, util::Rng& rng)
    : rows_(rows),
      cols_(cols),
      d_(d),
      value_(1.0 / std::sqrt(static_cast<double>(d))) {
  CSECG_CHECK(rows > 0 && cols > 0, "matrix dimensions must be positive");
  CSECG_CHECK(d > 0 && d <= rows,
              "d must be in [1, rows] so column entries are distinct");
  CSECG_CHECK(rows <= std::numeric_limits<std::uint16_t>::max() + 1u,
              "row indices are stored as uint16");
  row_index_.reserve(cols * d);
  for (std::size_t c = 0; c < cols; ++c) {
    const auto chosen = rng.sample_without_replacement(
        static_cast<std::uint32_t>(rows), static_cast<std::uint32_t>(d));
    for (const auto r : chosen) {
      row_index_.push_back(static_cast<std::uint16_t>(r));
    }
  }
  index_rows();
}

SparseBinaryMatrix::SparseBinaryMatrix(std::size_t rows, std::size_t cols,
                                       std::size_t d,
                                       std::vector<std::uint16_t> row_index)
    : rows_(rows),
      cols_(cols),
      d_(d),
      value_(1.0 / std::sqrt(static_cast<double>(d))),
      row_index_(std::move(row_index)) {
  CSECG_CHECK(rows > 0 && cols > 0, "matrix dimensions must be positive");
  CSECG_CHECK(d > 0 && d <= rows,
              "d must be in [1, rows] so column entries are distinct");
  CSECG_CHECK(row_index_.size() == cols * d,
              "index table must hold cols * d entries");
  index_rows();
}

void SparseBinaryMatrix::index_rows() {
  CSECG_CHECK(cols_ <= std::numeric_limits<std::uint16_t>::max() + 1u,
              "column indices are stored as uint16");
  CSECG_CHECK(row_index_.size() <= std::numeric_limits<std::uint32_t>::max(),
              "index table too large for 32-bit row starts");
  // Each column strictly ascending: a repeated row would silently double
  // its entry, and column_rows() promises sorted, distinct indices.
  for (std::size_t c = 0; c < cols_; ++c) {
    const std::uint16_t* column = row_index_.data() + c * d_;
    for (std::size_t k = 0; k < d_; ++k) {
      CSECG_CHECK(column[k] < rows_, "row index out of range in index table");
      CSECG_CHECK(k == 0 || column[k - 1] < column[k],
                  "index table column rows must be distinct and ascending");
    }
  }
  // Counting sort by row; visiting columns in ascending order leaves each
  // row's column list ascending.
  row_start_.assign(rows_ + 1, 0);
  for (const auto r : row_index_) {
    ++row_start_[r + 1];
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    row_start_[r + 1] += row_start_[r];
  }
  row_cols_.resize(row_index_.size());
  std::vector<std::uint32_t> fill(row_start_.begin(), row_start_.end() - 1);
  for (std::size_t c = 0; c < cols_; ++c) {
    for (std::size_t k = 0; k < d_; ++k) {
      row_cols_[fill[row_index_[c * d_ + k]]++] =
          static_cast<std::uint16_t>(c);
    }
  }
}

template <typename T>
void SparseBinaryMatrix::apply(std::span<const T> x, std::span<T> y) const {
  apply_batch(x, y, 1);
}

template <typename T>
void SparseBinaryMatrix::apply_transpose(std::span<const T> x,
                                         std::span<T> y) const {
  apply_transpose_batch(x, y, 1);
}

template <typename T>
void SparseBinaryMatrix::apply_batch(std::span<const T> x, std::span<T> y,
                                     std::size_t batch) const {
  CSECG_CHECK(x.size() == batch * cols_ && y.size() == batch * rows_,
              "apply: size mismatch");
  const std::uint32_t* starts = row_start_.data();
  project(
      [starts](std::size_t r) { return static_cast<std::size_t>(starts[r]); },
      row_cols_.data(), cols_, rows_, static_cast<T>(value_), x.data(),
      y.data(), batch);
}

template <typename T>
void SparseBinaryMatrix::apply_transpose_batch(std::span<const T> x,
                                               std::span<T> y,
                                               std::size_t batch) const {
  CSECG_CHECK(x.size() == batch * rows_ && y.size() == batch * cols_,
              "apply_transpose: size mismatch");
  const std::size_t d = d_;
  project([d](std::size_t c) { return c * d; }, row_index_.data(), rows_,
          cols_, static_cast<T>(value_), x.data(), y.data(), batch);
}

void SparseBinaryMatrix::accumulate_integer(
    std::span<const std::int16_t> x, std::span<std::int32_t> y) const {
  CSECG_CHECK(x.size() == cols_ && y.size() == rows_,
              "accumulate_integer: size mismatch");
  for (auto& v : y) {
    v = 0;
  }
  for (std::size_t c = 0; c < cols_; ++c) {
    const std::int32_t xc = x[c];
    const std::uint16_t* rows_ptr = row_index_.data() + c * d_;
    for (std::size_t k = 0; k < d_; ++k) {
      y[rows_ptr[k]] += xc;
    }
  }
}

std::size_t SparseBinaryMatrix::storage_bytes() const {
  // One uint16 row index per non-zero; the scale is a single constant.
  return cols_ * d_ * sizeof(std::uint16_t);
}

double SparseBinaryMatrix::average_column_overlap() const {
  // Count, over all unordered column pairs, the expected number of shared
  // rows; exact counting is O(cols^2 * d) which is fine at our sizes for a
  // diagnostic, but we sample pairs to keep tests fast on big matrices.
  if (cols_ < 2) {
    return 0.0;
  }
  double total = 0.0;
  std::size_t pairs = 0;
  const std::size_t stride = cols_ > 128 ? cols_ / 128 : 1;
  for (std::size_t a = 0; a < cols_; a += stride) {
    for (std::size_t b = a + 1; b < cols_; b += stride) {
      const auto ra = column_rows(a);
      const auto rb = column_rows(b);
      std::size_t ia = 0;
      std::size_t ib = 0;
      std::size_t shared = 0;
      while (ia < ra.size() && ib < rb.size()) {
        if (ra[ia] == rb[ib]) {
          ++shared;
          ++ia;
          ++ib;
        } else if (ra[ia] < rb[ib]) {
          ++ia;
        } else {
          ++ib;
        }
      }
      total += static_cast<double>(shared);
      ++pairs;
    }
  }
  return pairs == 0 ? 0.0 : total / static_cast<double>(pairs);
}

template void SparseBinaryMatrix::apply<float>(std::span<const float>,
                                              std::span<float>) const;
template void SparseBinaryMatrix::apply<double>(std::span<const double>,
                                               std::span<double>) const;
template void SparseBinaryMatrix::apply_transpose<float>(
    std::span<const float>, std::span<float>) const;
template void SparseBinaryMatrix::apply_transpose<double>(
    std::span<const double>, std::span<double>) const;
template void SparseBinaryMatrix::apply_batch<float>(std::span<const float>,
                                                    std::span<float>,
                                                    std::size_t) const;
template void SparseBinaryMatrix::apply_batch<double>(std::span<const double>,
                                                     std::span<double>,
                                                     std::size_t) const;
template void SparseBinaryMatrix::apply_transpose_batch<float>(
    std::span<const float>, std::span<float>, std::size_t) const;
template void SparseBinaryMatrix::apply_transpose_batch<double>(
    std::span<const double>, std::span<double>, std::size_t) const;

}  // namespace csecg::linalg
