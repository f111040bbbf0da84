#ifndef EDGE_NN_MATRIX_H_
#define EDGE_NN_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "edge/common/check.h"

/// Tells the optimizer two pointers cannot alias, which lets the compiler
/// vectorize kernel inner loops without emitting runtime overlap checks.
#if defined(__GNUC__) || defined(__clang__)
#define EDGE_RESTRICT __restrict__
#else
#define EDGE_RESTRICT
#endif

namespace edge::nn {

/// Borrowed, non-owning view of one matrix row: `cols` contiguous doubles.
/// The backing matrix must outlive the span. This is the zero-copy currency
/// of the row-oriented paths (AttentionPool, ConcatRows, batched prediction):
/// callers read through the span instead of materializing a 1 x C Matrix.
///
/// Mapped-memory lifetime rule: a span need not point into a Matrix at all —
/// core::MmapModelStore serves spans that alias an mmap'd checkpoint file
/// (fp64 stores) or a caller-owned dequantize scratch buffer (quantized
/// stores). Whatever the backing object is — Matrix, mapping, or scratch
/// vector — it must stay alive and unmodified for as long as the span is
/// read. Store-backed EdgeModels uphold this by holding the store's
/// shared_ptr for the model's lifetime and bounding scratch spans to a single
/// prediction; new call sites must pick one of those two patterns
/// (DESIGN.md §15).
struct ConstRowSpan {
  const double* data = nullptr;
  size_t cols = 0;

  double operator[](size_t c) const {
    EDGE_DCHECK(c < cols);
    return data[c];
  }
  const double* begin() const { return data; }
  const double* end() const { return data + cols; }
};

/// Dense row-major matrix of doubles. This is the single tensor type used by
/// the autodiff tape, the GCN, the MDN head and the baselines. Double
/// precision is deliberate: every op's backward pass is validated against
/// central finite differences, which needs the head-room.
///
/// Storage is recycled through the thread-local tape arena
/// (edge/nn/tape_arena.h): construction acquires a pooled buffer and the
/// destructor parks it for the next same-shaped matrix, so steady-state
/// training steps allocate nothing. The pooling is purely an allocation
/// strategy — element values and numerics are identical to plain heap
/// storage.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}

  /// Creates rows x cols, zero-initialized.
  Matrix(size_t rows, size_t cols);

  /// Creates rows x cols filled with `fill`.
  Matrix(size_t rows, size_t cols, double fill);

  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  Matrix(Matrix&& other) noexcept;
  Matrix& operator=(Matrix&& other) noexcept;
  ~Matrix();

  static Matrix Zeros(size_t rows, size_t cols) { return Matrix(rows, cols); }
  static Matrix Constant(size_t rows, size_t cols, double fill) {
    return Matrix(rows, cols, fill);
  }
  /// Identity matrix of size n.
  static Matrix Identity(size_t n);
  /// Builds a matrix from nested initializer data (row major); all rows must
  /// have equal length.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& At(size_t r, size_t c) {
    EDGE_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double At(size_t r, size_t c) const {
    EDGE_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row_data(size_t r) { return data_.data() + r * cols_; }
  const double* row_data(size_t r) const { return data_.data() + r * cols_; }

  /// Zero-copy view of row r; valid while this matrix is alive and unresized.
  ConstRowSpan RowSpan(size_t r) const {
    EDGE_DCHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  /// Reshapes in place to rows x cols, all elements zero. Reuses the current
  /// buffer when it is large enough — the allocation-free way to (re)build
  /// gradient storage every step.
  void ResetZero(size_t rows, size_t cols);

  /// Sets every element to `value`.
  void Fill(double value);

  /// this += other (same shape).
  void AddInPlace(const Matrix& other);
  /// this += scale * other (same shape); the axpy at the heart of gradient
  /// accumulation and optimizer updates.
  void Axpy(double scale, const Matrix& other);
  /// this *= scale.
  void ScaleInPlace(double scale);

  /// Returns this + other.
  Matrix Add(const Matrix& other) const;
  /// Returns this - other.
  Matrix Sub(const Matrix& other) const;
  /// Returns scale * this.
  Matrix Scaled(double scale) const;
  /// Elementwise product.
  Matrix Hadamard(const Matrix& other) const;
  /// Transpose copy (cache-blocked; see kernel notes in matrix.cc).
  Matrix Transposed() const;

  /// Sum of all elements.
  double Sum() const;
  /// Maximum absolute element (0 for empty).
  double MaxAbs() const;
  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Extracts row r as a 1 x cols matrix (copying). Prefer RowSpan() on hot
  /// paths.
  Matrix Row(size_t r) const;

  /// Debug rendering, e.g. "[[1, 2], [3, 4]]".
  std::string ToString() const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// Returns a * b; inner dimensions must agree. All three matmul kernels are
/// row-blocked over the global thread budget (edge/common/thread_pool.h) and
/// keep each output element's accumulation order independent of the
/// partition, so results are bitwise identical for every num_threads setting.
/// The serial kernels themselves are cache-blocked and register-tiled, but
/// every out(i, j) still accumulates its k terms one at a time in ascending
/// order — bitwise identical to the naive triple loop (proved by
/// tests/parallel_parity_test.cc against a reference kernel).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// Returns a^T * b, bitwise equal to the naive ascending-k loop.
Matrix MatMulTransposeA(const Matrix& a, const Matrix& b);

/// Returns a * b^T, bitwise equal to the naive ascending-k loop.
Matrix MatMulTransposeB(const Matrix& a, const Matrix& b);

/// True when shapes match and all elements are within `tol`.
bool AllClose(const Matrix& a, const Matrix& b, double tol);

}  // namespace edge::nn

#endif  // EDGE_NN_MATRIX_H_
