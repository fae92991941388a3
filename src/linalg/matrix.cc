#include "linalg/matrix.h"

#include <cmath>
#include <stdexcept>

namespace linalg {

double Matrix::distance(const Matrix& other) const {
    if (rows_ != other.rows_ || cols_ != other.cols_) {
        throw std::invalid_argument("distance: shape mismatch");
    }
    double s = 0.0;
    for (std::size_t i = 0; i < data_.size(); ++i) {
        const double d = data_[i] - other.data_[i];
        s += d * d;
    }
    return std::sqrt(s);
}

Matrix Matrix::identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

// Cache-line aligned entry: the hot loop's placement then no longer
// depends on how the surrounding code happens to link, which otherwise
// swings its host time by tens of percent.
__attribute__((aligned(64))) void gemm_raw(const double* __restrict a,
                                           const double* __restrict b,
                                           double* __restrict c,
                                           std::size_t n, std::size_t k,
                                           std::size_t m, double alpha) {
    // i-k-j loop order: unit-stride inner loop over both B and C.
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t l = 0; l < k; ++l) {
            const double av = alpha * a[i * k + l];
            const double* brow = b + l * m;
            double* crow = c + i * m;
            for (std::size_t j = 0; j < m; ++j) {
                crow[j] += av * brow[j];
            }
        }
    }
}

void gemm_acc(const Matrix& a, const Matrix& b, Matrix& c) {
    if (a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols()) {
        throw std::invalid_argument("gemm: shape mismatch");
    }
    if (&c == &a || &c == &b) {
        throw std::invalid_argument("gemm: C aliases an input");
    }
    gemm_raw(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols());
}

Matrix gemm(const Matrix& a, const Matrix& b) {
    Matrix c(a.rows(), b.cols());
    gemm_acc(a, b, c);
    return c;
}

std::vector<double> gemv(const Matrix& a, std::span<const double> x) {
    if (a.cols() != x.size()) throw std::invalid_argument("gemv: shape mismatch");
    std::vector<double> y(a.rows(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        y[i] = dot(a.row(i), x);
    }
    return y;
}

void syr_acc(Matrix& a, std::span<const double> x, double alpha) {
    if (a.rows() != x.size() || a.cols() != x.size()) {
        throw std::invalid_argument("syr: shape mismatch");
    }
    for (std::size_t i = 0; i < x.size(); ++i) {
        for (std::size_t j = 0; j < x.size(); ++j) {
            a(i, j) += alpha * x[i] * x[j];
        }
    }
}

double dot(std::span<const double> a, std::span<const double> b) {
    if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
    if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
    for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

}  // namespace linalg
