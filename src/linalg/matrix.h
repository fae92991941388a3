#pragma once

#include <cstddef>
#include <span>
#include <vector>

/// Minimal dense linear algebra used by the application kernels (the
/// paper's BPMF depends on Eigen; DESIGN.md documents the substitution).
/// Everything is double precision, row-major.
namespace linalg {

class Matrix {
public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
        : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    double& operator()(std::size_t r, std::size_t c) {
        return data_[r * cols_ + c];
    }
    double operator()(std::size_t r, std::size_t c) const {
        return data_[r * cols_ + c];
    }

    double* data() { return data_.data(); }
    const double* data() const { return data_.data(); }

    std::span<double> row(std::size_t r) {
        return {data_.data() + r * cols_, cols_};
    }
    std::span<const double> row(std::size_t r) const {
        return {data_.data() + r * cols_, cols_};
    }

    void fill(double v) { data_.assign(data_.size(), v); }

    /// Frobenius-norm distance to @p other (for tests).
    double distance(const Matrix& other) const;

    static Matrix identity(std::size_t n);

    bool operator==(const Matrix& other) const = default;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// C += A * B (dimensions must agree: A r x k, B k x c, C r x c). C must
/// not be A or B (std::invalid_argument otherwise).
void gemm_acc(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A * B.
Matrix gemm(const Matrix& a, const Matrix& b);

/// C += alpha * A * B on raw row-major buffers (used by SUMMA's block
/// kernel, which works on shared-window memory rather than Matrix objects).
/// C must not overlap A or B: the pointers are restrict-qualified so the
/// inner loop vectorizes without runtime alias checks. Runs a
/// register-blocked AVX-512 kernel where the CPU has AVX-512F and the plain
/// i-k-j loop elsewhere; both give the same bits (linalg/gemm_kernels.h).
void gemm_raw(const double* __restrict a, const double* __restrict b,
              double* __restrict c, std::size_t n, std::size_t k,
              std::size_t m, double alpha = 1.0);

/// y = A * x.
std::vector<double> gemv(const Matrix& a, std::span<const double> x);

/// A += alpha * x * x^T (symmetric rank-1 update; A must be n x n).
void syr_acc(Matrix& a, std::span<const double> x, double alpha = 1.0);

double dot(std::span<const double> a, std::span<const double> b);

/// y += alpha * x.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

}  // namespace linalg
