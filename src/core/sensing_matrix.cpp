#include "csecg/core/sensing_matrix.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <tuple>

#include "csecg/core/mote_rng.hpp"
#include "csecg/util/error.hpp"
#include "csecg/util/rng.hpp"

namespace csecg::core {

namespace {

/// The one immutable sparse Phi of a (rows, cols, d, 16-bit seed), built
/// on first request and shared until its last holder lets go. Only the
/// low 16 bits of the seed reach the mote's generator, so they are all
/// the key needs.
std::shared_ptr<const linalg::SparseBinaryMatrix> shared_sparse(
    const SensingMatrixConfig& config) {
  using Key = std::tuple<std::size_t, std::size_t, std::size_t, std::uint16_t>;
  static std::mutex mutex;
  static std::map<Key, std::weak_ptr<const linalg::SparseBinaryMatrix>> cache;
  const auto seed = static_cast<std::uint16_t>(config.seed);
  const Key key{config.rows, config.cols, config.d, seed};
  std::lock_guard<std::mutex> lock(mutex);
  if (const auto it = cache.find(key); it != cache.end()) {
    if (auto shared = it->second.lock()) {
      return shared;
    }
  }
  // Materialise the same matrix the mote regenerates on the fly from the
  // shared seed (see mote_rng.hpp).
  auto built = std::make_shared<const linalg::SparseBinaryMatrix>(
      config.rows, config.cols, config.d,
      generate_sparse_indices(config.rows, config.cols, config.d, seed));
  std::erase_if(cache, [](const auto& entry) { return entry.second.expired(); });
  cache[key] = built;
  return built;
}

}  // namespace

std::string to_string(SensingMatrixType type) {
  switch (type) {
    case SensingMatrixType::kGaussian:
      return "gaussian";
    case SensingMatrixType::kBernoulli:
      return "bernoulli";
    case SensingMatrixType::kSparseBinary:
      return "sparse-binary";
  }
  return "unknown";
}

SensingMatrix::SensingMatrix(const SensingMatrixConfig& config)
    : config_(config) {
  CSECG_CHECK(config.rows > 0 && config.cols > 0,
              "sensing matrix dimensions must be positive");
  CSECG_CHECK(config.rows <= config.cols,
              "compressed sensing requires M <= N");
  util::Rng rng(config.seed);
  switch (config.type) {
    case SensingMatrixType::kSparseBinary: {
      sparse_ = shared_sparse(config);
      break;
    }
    case SensingMatrixType::kGaussian: {
      dense_d_ = std::make_unique<linalg::DenseMatrix<double>>(config.rows,
                                                               config.cols);
      const double sigma =
          1.0 / std::sqrt(static_cast<double>(config.cols));
      for (std::size_t r = 0; r < config.rows; ++r) {
        for (std::size_t c = 0; c < config.cols; ++c) {
          (*dense_d_)(r, c) = rng.gaussian(0.0, sigma);
        }
      }
      break;
    }
    case SensingMatrixType::kBernoulli: {
      dense_d_ = std::make_unique<linalg::DenseMatrix<double>>(config.rows,
                                                               config.cols);
      const double value =
          1.0 / std::sqrt(static_cast<double>(config.cols));
      for (std::size_t r = 0; r < config.rows; ++r) {
        for (std::size_t c = 0; c < config.cols; ++c) {
          (*dense_d_)(r, c) = rng.sign() > 0 ? value : -value;
        }
      }
      break;
    }
  }
  if (dense_d_ != nullptr) {
    dense_f_ = std::make_unique<linalg::DenseMatrix<float>>(config.rows,
                                                            config.cols);
    for (std::size_t r = 0; r < config.rows; ++r) {
      for (std::size_t c = 0; c < config.cols; ++c) {
        (*dense_f_)(r, c) = static_cast<float>((*dense_d_)(r, c));
      }
    }
  }
}

void SensingMatrix::apply(std::span<const double> x,
                          std::span<double> y) const {
  if (sparse_ != nullptr) {
    sparse_->apply<double>(x, y);
  } else {
    dense_d_->apply(x, y);
  }
}

void SensingMatrix::apply(std::span<const float> x,
                          std::span<float> y) const {
  if (sparse_ != nullptr) {
    sparse_->apply<float>(x, y);
  } else {
    dense_f_->apply(x, y);
  }
}

void SensingMatrix::apply_transpose(std::span<const double> x,
                                    std::span<double> y) const {
  if (sparse_ != nullptr) {
    sparse_->apply_transpose<double>(x, y);
  } else {
    dense_d_->apply_transpose(x, y);
  }
}

void SensingMatrix::apply_transpose(std::span<const float> x,
                                    std::span<float> y) const {
  if (sparse_ != nullptr) {
    sparse_->apply_transpose<float>(x, y);
  } else {
    dense_f_->apply_transpose(x, y);
  }
}

void SensingMatrix::apply_batch(std::span<const double> x,
                                std::span<double> y, std::size_t batch) const {
  if (sparse_ != nullptr) {
    sparse_->apply_batch<double>(x, y, batch);
  } else {
    dense_d_->apply_batch(x, y, batch);
  }
}

void SensingMatrix::apply_batch(std::span<const float> x, std::span<float> y,
                                std::size_t batch) const {
  if (sparse_ != nullptr) {
    sparse_->apply_batch<float>(x, y, batch);
  } else {
    dense_f_->apply_batch(x, y, batch);
  }
}

void SensingMatrix::apply_transpose_batch(std::span<const double> x,
                                          std::span<double> y,
                                          std::size_t batch) const {
  if (sparse_ != nullptr) {
    sparse_->apply_transpose_batch<double>(x, y, batch);
  } else {
    dense_d_->apply_transpose_batch(x, y, batch);
  }
}

void SensingMatrix::apply_transpose_batch(std::span<const float> x,
                                          std::span<float> y,
                                          std::size_t batch) const {
  if (sparse_ != nullptr) {
    sparse_->apply_transpose_batch<float>(x, y, batch);
  } else {
    dense_f_->apply_transpose_batch(x, y, batch);
  }
}

const linalg::SparseBinaryMatrix& SensingMatrix::sparse() const {
  CSECG_CHECK(sparse_ != nullptr,
              "integer path only exists for sparse binary sensing");
  return *sparse_;
}

std::size_t SensingMatrix::storage_bytes() const {
  if (sparse_ != nullptr) {
    return sparse_->storage_bytes();
  }
  // Dense designs would need one value per entry; the paper stores 8-bit
  // quantised normals in its approach (2), so count one byte per entry.
  return config_.rows * config_.cols;
}

}  // namespace csecg::core
