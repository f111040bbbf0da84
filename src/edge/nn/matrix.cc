#include "edge/nn/matrix.h"

#include <algorithm>
#include <cmath>

#include "edge/common/string_util.h"
#include "edge/common/thread_pool.h"
#include "edge/nn/tape_arena.h"

namespace edge::nn {

namespace {

/// Rows per ParallelFor chunk for the blocked matmul kernels: target ~16k
/// flops per chunk so scheduling overhead stays under ~1% of chunk work, and
/// small matrices (one chunk) never pay a dispatch at all. The grain depends
/// only on the problem shape — never on the thread count — so chunk
/// boundaries, and therefore results, are identical for every budget.
size_t RowGrain(size_t rows, size_t flops_per_row) {
  constexpr size_t kTargetFlopsPerChunk = 16384;
  size_t grain = kTargetFlopsPerChunk / std::max<size_t>(flops_per_row, 1);
  return std::clamp<size_t>(grain, 1, std::max<size_t>(rows, 1));
}

/// k-band width for the cache-blocked matmul kernels. A band pins a panel of
/// up to kKTile rows of b (kKTile * N doubles — 32 KB at N = 64, i.e. one L1)
/// in cache while the i sweep streams over it. Blocking k does NOT change the
/// per-element accumulation order: for any out(i, j), bands are visited in
/// ascending-k order and every product is still added to out(i, j) one at a
/// time, so the result stays bitwise identical to the naive triple loop.
constexpr size_t kKTile = 64;

/// out(i, :) and out(i + 1, :) += a-rows x b over k in [k_begin, k_end),
/// register-tiled 2 (i) x 4 (k). The chained `r += w * b[j]` adds reproduce
/// the exact sequential ascending-k association of the scalar kernel; the j
/// loop is the vectorization axis (independent lanes, order preserved within
/// each lane).
void MatMulPanel2(const double* EDGE_RESTRICT a0, const double* EDGE_RESTRICT a1,
                  const Matrix& b, size_t k_begin, size_t k_end,
                  double* EDGE_RESTRICT o0, double* EDGE_RESTRICT o1) {
  const size_t n = b.cols();
  size_t k = k_begin;
  for (; k + 4 <= k_end; k += 4) {
    const double a00 = a0[k], a01 = a0[k + 1], a02 = a0[k + 2], a03 = a0[k + 3];
    const double a10 = a1[k], a11 = a1[k + 1], a12 = a1[k + 2], a13 = a1[k + 3];
    const double* EDGE_RESTRICT b0 = b.row_data(k);
    const double* EDGE_RESTRICT b1 = b.row_data(k + 1);
    const double* EDGE_RESTRICT b2 = b.row_data(k + 2);
    const double* EDGE_RESTRICT b3 = b.row_data(k + 3);
    for (size_t j = 0; j < n; ++j) {
      double r0 = o0[j];
      double r1 = o1[j];
      r0 += a00 * b0[j];
      r1 += a10 * b0[j];
      r0 += a01 * b1[j];
      r1 += a11 * b1[j];
      r0 += a02 * b2[j];
      r1 += a12 * b2[j];
      r0 += a03 * b3[j];
      r1 += a13 * b3[j];
      o0[j] = r0;
      o1[j] = r1;
    }
  }
  for (; k < k_end; ++k) {
    const double a00 = a0[k];
    const double a10 = a1[k];
    const double* EDGE_RESTRICT brow = b.row_data(k);
    for (size_t j = 0; j < n; ++j) {
      o0[j] += a00 * brow[j];
      o1[j] += a10 * brow[j];
    }
  }
}

/// Four-row edition of MatMulPanel2: 4 (i) x 4 (k) register tile. Four output
/// rows mean four independent accumulation chains per j lane, which hides the
/// FP-add latency of the (deliberately) sequential ascending-k association —
/// the per-element order is exactly that of the scalar kernel.
void MatMulPanel4(const double* EDGE_RESTRICT a0, const double* EDGE_RESTRICT a1,
                  const double* EDGE_RESTRICT a2, const double* EDGE_RESTRICT a3,
                  const Matrix& b, size_t k_begin, size_t k_end,
                  double* EDGE_RESTRICT o0, double* EDGE_RESTRICT o1,
                  double* EDGE_RESTRICT o2, double* EDGE_RESTRICT o3) {
  const size_t n = b.cols();
  size_t k = k_begin;
  for (; k + 4 <= k_end; k += 4) {
    const double a00 = a0[k], a01 = a0[k + 1], a02 = a0[k + 2], a03 = a0[k + 3];
    const double a10 = a1[k], a11 = a1[k + 1], a12 = a1[k + 2], a13 = a1[k + 3];
    const double a20 = a2[k], a21 = a2[k + 1], a22 = a2[k + 2], a23 = a2[k + 3];
    const double a30 = a3[k], a31 = a3[k + 1], a32 = a3[k + 2], a33 = a3[k + 3];
    const double* EDGE_RESTRICT b0 = b.row_data(k);
    const double* EDGE_RESTRICT b1 = b.row_data(k + 1);
    const double* EDGE_RESTRICT b2 = b.row_data(k + 2);
    const double* EDGE_RESTRICT b3 = b.row_data(k + 3);
    for (size_t j = 0; j < n; ++j) {
      double r0 = o0[j];
      double r1 = o1[j];
      double r2 = o2[j];
      double r3 = o3[j];
      r0 += a00 * b0[j];
      r1 += a10 * b0[j];
      r2 += a20 * b0[j];
      r3 += a30 * b0[j];
      r0 += a01 * b1[j];
      r1 += a11 * b1[j];
      r2 += a21 * b1[j];
      r3 += a31 * b1[j];
      r0 += a02 * b2[j];
      r1 += a12 * b2[j];
      r2 += a22 * b2[j];
      r3 += a32 * b2[j];
      r0 += a03 * b3[j];
      r1 += a13 * b3[j];
      r2 += a23 * b3[j];
      r3 += a33 * b3[j];
      o0[j] = r0;
      o1[j] = r1;
      o2[j] = r2;
      o3[j] = r3;
    }
  }
  for (; k < k_end; ++k) {
    const double a00 = a0[k];
    const double a10 = a1[k];
    const double a20 = a2[k];
    const double a30 = a3[k];
    const double* EDGE_RESTRICT brow = b.row_data(k);
    for (size_t j = 0; j < n; ++j) {
      o0[j] += a00 * brow[j];
      o1[j] += a10 * brow[j];
      o2[j] += a20 * brow[j];
      o3[j] += a30 * brow[j];
    }
  }
}

/// Single-row edition of MatMulPanel2 (band remainders).
void MatMulPanel1(const double* EDGE_RESTRICT a0, const Matrix& b, size_t k_begin,
                  size_t k_end, double* EDGE_RESTRICT o0) {
  const size_t n = b.cols();
  size_t k = k_begin;
  for (; k + 4 <= k_end; k += 4) {
    const double a00 = a0[k], a01 = a0[k + 1], a02 = a0[k + 2], a03 = a0[k + 3];
    const double* EDGE_RESTRICT b0 = b.row_data(k);
    const double* EDGE_RESTRICT b1 = b.row_data(k + 1);
    const double* EDGE_RESTRICT b2 = b.row_data(k + 2);
    const double* EDGE_RESTRICT b3 = b.row_data(k + 3);
    for (size_t j = 0; j < n; ++j) {
      double r0 = o0[j];
      r0 += a00 * b0[j];
      r0 += a01 * b1[j];
      r0 += a02 * b2[j];
      r0 += a03 * b3[j];
      o0[j] = r0;
    }
  }
  for (; k < k_end; ++k) {
    const double a00 = a0[k];
    const double* EDGE_RESTRICT brow = b.row_data(k);
    for (size_t j = 0; j < n; ++j) o0[j] += a00 * brow[j];
  }
}

}  // namespace

Matrix::Matrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(AcquireMatrixBuffer(rows * cols)) {
  data_.assign(rows * cols, 0.0);
}

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(AcquireMatrixBuffer(rows * cols)) {
  data_.assign(rows * cols, fill);
}

Matrix::Matrix(const Matrix& other)
    : rows_(other.rows_),
      cols_(other.cols_),
      data_(AcquireMatrixBuffer(other.data_.size())) {
  data_.assign(other.data_.begin(), other.data_.end());
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this != &other) {
    rows_ = other.rows_;
    cols_ = other.cols_;
    if (data_.capacity() < other.data_.size()) {
      ReleaseMatrixBuffer(std::move(data_));
      data_ = AcquireMatrixBuffer(other.data_.size());
    }
    data_.assign(other.data_.begin(), other.data_.end());
  }
  return *this;
}

Matrix::Matrix(Matrix&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_), data_(std::move(other.data_)) {
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_.clear();
}

Matrix& Matrix::operator=(Matrix&& other) noexcept {
  if (this != &other) {
    ReleaseMatrixBuffer(std::move(data_));
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_ = std::move(other.data_);
    other.rows_ = 0;
    other.cols_ = 0;
    other.data_.clear();
  }
  return *this;
}

Matrix::~Matrix() { ReleaseMatrixBuffer(std::move(data_)); }

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  EDGE_CHECK(!rows.empty());
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    EDGE_CHECK_EQ(rows[r].size(), m.cols());
    for (size_t c = 0; c < m.cols(); ++c) m.At(r, c) = rows[r][c];
  }
  return m;
}

void Matrix::ResetZero(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  if (data_.capacity() < rows * cols) {
    ReleaseMatrixBuffer(std::move(data_));
    data_ = AcquireMatrixBuffer(rows * cols);
  }
  data_.assign(rows * cols, 0.0);
}

void Matrix::Fill(double value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::AddInPlace(const Matrix& other) {
  EDGE_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  double* EDGE_RESTRICT dst = data_.data();
  const double* EDGE_RESTRICT src = other.data_.data();
  const size_t n = data_.size();
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void Matrix::Axpy(double scale, const Matrix& other) {
  EDGE_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  double* EDGE_RESTRICT dst = data_.data();
  const double* EDGE_RESTRICT src = other.data_.data();
  const size_t n = data_.size();
  for (size_t i = 0; i < n; ++i) dst[i] += scale * src[i];
}

void Matrix::ScaleInPlace(double scale) {
  double* EDGE_RESTRICT dst = data_.data();
  const size_t n = data_.size();
  for (size_t i = 0; i < n; ++i) dst[i] *= scale;
}

Matrix Matrix::Add(const Matrix& other) const {
  Matrix out = *this;
  out.AddInPlace(other);
  return out;
}

Matrix Matrix::Sub(const Matrix& other) const {
  Matrix out = *this;
  out.Axpy(-1.0, other);
  return out;
}

Matrix Matrix::Scaled(double scale) const {
  Matrix out = *this;
  out.ScaleInPlace(scale);
  return out;
}

Matrix Matrix::Hadamard(const Matrix& other) const {
  EDGE_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  double* EDGE_RESTRICT dst = out.data_.data();
  const double* EDGE_RESTRICT src = other.data_.data();
  const size_t n = data_.size();
  for (size_t i = 0; i < n; ++i) dst[i] *= src[i];
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  // Tiled transpose: both the read and the write stream stay within a
  // kTile x kTile block (8 KB), so neither side thrashes cache lines the way
  // the naive column-strided loop does on tall matrices.
  constexpr size_t kTile = 32;
  double* EDGE_RESTRICT dst = out.data_.data();
  const double* EDGE_RESTRICT src = data_.data();
  for (size_t rb = 0; rb < rows_; rb += kTile) {
    const size_t r_hi = std::min(rows_, rb + kTile);
    for (size_t cb = 0; cb < cols_; cb += kTile) {
      const size_t c_hi = std::min(cols_, cb + kTile);
      for (size_t r = rb; r < r_hi; ++r) {
        for (size_t c = cb; c < c_hi; ++c) {
          dst[c * rows_ + r] = src[r * cols_ + c];
        }
      }
    }
  }
  return out;
}

double Matrix::Sum() const {
  // Strict sequential association: Sum feeds loss values (SumAll/MeanAll), so
  // its result must not depend on vector width or unrolling choices.
  double sum = 0.0;
  for (double v : data_) sum += v;
  return sum;
}

double Matrix::MaxAbs() const {
  double best = 0.0;
  for (double v : data_) best = std::max(best, std::fabs(v));
  return best;
}

double Matrix::FrobeniusNorm() const {
  // Four fixed stride-4 lanes combined in a fixed tree: deterministic
  // (association depends on nothing runtime) yet vectorizable, unlike the
  // strict single-chain reduction.
  const double* EDGE_RESTRICT p = data_.data();
  const size_t n = data_.size();
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += p[i] * p[i];
    s1 += p[i + 1] * p[i + 1];
    s2 += p[i + 2] * p[i + 2];
    s3 += p[i + 3] * p[i + 3];
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += p[i] * p[i];
  return std::sqrt(((s0 + s1) + (s2 + s3)) + tail);
}

Matrix Matrix::Row(size_t r) const {
  EDGE_CHECK_LT(r, rows_);
  Matrix out(1, cols_);
  std::copy(row_data(r), row_data(r) + cols_, out.data());
  return out;
}

std::string Matrix::ToString() const {
  std::string out = "[";
  for (size_t r = 0; r < rows_; ++r) {
    out += (r == 0) ? "[" : ", [";
    for (size_t c = 0; c < cols_; ++c) {
      if (c > 0) out += ", ";
      out += FormatDouble(At(r, c), 4);
    }
    out += "]";
  }
  out += "]";
  return out;
}

namespace {

/// Shared driver for MatMul and MatMulTransposeB: out = a * b with out
/// pre-zeroed. Row-blocked across threads — each chunk owns a disjoint band
/// of output rows. Inside a band the kernel is cache-blocked over k and
/// register-tiled 4x4, but every out(i, j) still accumulates its k products
/// one by one in ascending order — any thread count, and the naive loop,
/// produce bitwise identical results.
void BlockedMatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  const size_t k_total = a.cols();
  ParallelFor(0, a.rows(), RowGrain(a.rows(), 2 * a.cols() * b.cols()),
              [&](size_t row_begin, size_t row_end) {
                for (size_t kk = 0; kk < k_total; kk += kKTile) {
                  const size_t k_hi = std::min(k_total, kk + kKTile);
                  size_t i = row_begin;
                  for (; i + 4 <= row_end; i += 4) {
                    MatMulPanel4(a.row_data(i), a.row_data(i + 1), a.row_data(i + 2),
                                 a.row_data(i + 3), b, kk, k_hi, out->row_data(i),
                                 out->row_data(i + 1), out->row_data(i + 2),
                                 out->row_data(i + 3));
                  }
                  for (; i + 2 <= row_end; i += 2) {
                    MatMulPanel2(a.row_data(i), a.row_data(i + 1), b, kk, k_hi,
                                 out->row_data(i), out->row_data(i + 1));
                  }
                  if (i < row_end) {
                    MatMulPanel1(a.row_data(i), b, kk, k_hi, out->row_data(i));
                  }
                }
              });
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  EDGE_CHECK_EQ(a.cols(), b.rows());
  Matrix out(a.rows(), b.cols());
  BlockedMatMulInto(a, b, &out);
  return out;
}

Matrix MatMulTransposeA(const Matrix& a, const Matrix& b) {
  EDGE_CHECK_EQ(a.rows(), b.rows());
  Matrix out(a.cols(), b.cols());
  // out(i, j) = sum_k a(k, i) * b(k, j). Transposing a once (data movement
  // only, recycled buffer) lets the shared driver hold each out row band in
  // registers across a whole k band, where an in-place k-outermost loop
  // reloads and stores the full output every 4 k. The products and their
  // ascending-k order per out(i, j) are unchanged.
  Matrix t = a.Transposed();
  BlockedMatMulInto(t, b, &out);
  return out;
}

Matrix MatMulTransposeB(const Matrix& a, const Matrix& b) {
  EDGE_CHECK_EQ(a.cols(), b.cols());
  Matrix out(a.rows(), b.rows());
  // out(i, j) = sum_k a(i, k) * b(j, k). Computing the dots in place makes
  // every k chain a serial dependency the vectorizer cannot touch, so instead
  // we transpose b once (pure data movement, blocked, recycled buffer — no
  // arithmetic, no rounding) and stream through the same register-tiled
  // panels as MatMul. Each out(i, j) still receives its k products one at a
  // time in ascending order: bitwise identical to the naive dot loop.
  Matrix t = b.Transposed();
  BlockedMatMulInto(a, t, &out);
  return out;
}

bool AllClose(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      if (std::fabs(a.At(r, c) - b.At(r, c)) > tol) return false;
    }
  }
  return true;
}

}  // namespace edge::nn
