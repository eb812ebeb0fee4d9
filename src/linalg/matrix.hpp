// Dense row-major double matrix — the only linear-algebra container the
// control plane needs (distance matrices are n x n with n = #switches,
// up to a few thousand, and every pair is populated, so dense is the
// right choice).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace gred::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Construct from nested initializer lists (rows). All rows must have
  /// equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  /// All-ones matrix (the paper's `A` in double centering).
  static Matrix ones(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Row r as a contiguous array of cols() values.
  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }

  /// Bounds-checked access (asserts in debug, throws in release).
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  Matrix transpose() const;
  Matrix operator*(const Matrix& rhs) const;
  Matrix operator+(const Matrix& rhs) const;
  Matrix operator-(const Matrix& rhs) const;
  Matrix operator*(double scalar) const;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double scalar);

  bool operator==(const Matrix& rhs) const = default;

  /// Elementwise square (the paper's L^(2) in double centering).
  Matrix elementwise_square() const;

  /// Frobenius norm.
  double frobenius_norm() const;

  /// Max |a_ij - b_ij|; requires equal shapes.
  double max_abs_diff(const Matrix& other) const;

  bool is_symmetric(double tol = 1e-9) const;

  std::string to_string(int precision = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator*(double scalar, const Matrix& m);

}  // namespace gred::linalg
