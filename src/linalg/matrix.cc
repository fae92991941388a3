#include "linalg/matrix.h"

#include <cmath>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "linalg/gemm_kernels.h"

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

namespace detail {

namespace {

// The plain i-k-j loop over rows [i0, i1) and columns [j0, j1) of C:
// unit-stride inner loop over both B and C.
inline void gemm_plain_block(const double* __restrict a,
                             const double* __restrict b,
                             double* __restrict c, std::size_t i0,
                             std::size_t i1, std::size_t j0, std::size_t j1,
                             std::size_t k, std::size_t m, double alpha) {
    for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t l = 0; l < k; ++l) {
            const double av = alpha * a[i * k + l];
            const double* brow = b + l * m;
            double* crow = c + i * m;
            for (std::size_t j = j0; j < j1; ++j) {
                crow[j] += av * brow[j];
            }
        }
    }
}

}  // namespace

// Cache-line aligned entries: a hot loop's placement then no longer
// depends on how the surrounding code happens to link, which otherwise
// swings its host time by tens of percent.
__attribute__((aligned(64))) void gemm_plain(const double* __restrict a,
                                             const double* __restrict b,
                                             double* __restrict c,
                                             std::size_t n, std::size_t k,
                                             std::size_t m, double alpha) {
    gemm_plain_block(a, b, c, 0, n, 0, m, k, m, alpha);
}

#if defined(__x86_64__)

// Bit-identity with gemm_plain rests on two things: each element still
// sees its products in ascending l, and the multiply and the add stay
// separate (the linalg target builds with -ffp-contract=off, so neither
// this function nor the AVX-512 clone of the edge loop fuses them).
__attribute__((aligned(64), target("avx512f"))) void gemm_avx512(
    const double* __restrict a, const double* __restrict b,
    double* __restrict c, std::size_t n, std::size_t k, std::size_t m,
    double alpha) {
    constexpr std::size_t kRows = 4;   // rows of C per block
    constexpr std::size_t kLane = 8;   // doubles per zmm register
    constexpr std::size_t kVecs = 4;   // zmm registers per row of a block
    constexpr std::size_t kCols = kLane * kVecs;
    const std::size_t nb = n - n % kRows;
    const std::size_t mb = m - m % kCols;
    // j outer: the 32-column panel of B is reused from L1 by every block
    // of rows. The unroll pragmas keep acc in registers at -O2 as well,
    // where GCC would otherwise leave these short loops rolled.
    for (std::size_t j = 0; j < mb; j += kCols) {
        for (std::size_t i = 0; i < nb; i += kRows) {
            double* cblk = c + i * m + j;
            __m512d acc[kRows][kVecs];
#pragma GCC unroll 4
            for (std::size_t r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
                for (std::size_t v = 0; v < kVecs; ++v) {
                    acc[r][v] = _mm512_loadu_pd(cblk + r * m + v * kLane);
                }
            }
            for (std::size_t l = 0; l < k; ++l) {
                const double* brow = b + l * m + j;
                __m512d bv[kVecs];
#pragma GCC unroll 4
                for (std::size_t v = 0; v < kVecs; ++v) {
                    bv[v] = _mm512_loadu_pd(brow + v * kLane);
                }
#pragma GCC unroll 4
                for (std::size_t r = 0; r < kRows; ++r) {
                    const __m512d av =
                        _mm512_set1_pd(alpha * a[(i + r) * k + l]);
#pragma GCC unroll 4
                    for (std::size_t v = 0; v < kVecs; ++v) {
                        acc[r][v] =
                            _mm512_add_pd(acc[r][v], _mm512_mul_pd(av, bv[v]));
                    }
                }
            }
#pragma GCC unroll 4
            for (std::size_t r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
                for (std::size_t v = 0; v < kVecs; ++v) {
                    _mm512_storeu_pd(cblk + r * m + v * kLane, acc[r][v]);
                }
            }
        }
    }
    gemm_plain_block(a, b, c, 0, nb, mb, m, k, m, alpha);
    gemm_plain_block(a, b, c, nb, n, 0, m, k, m, alpha);
}

bool cpu_has_avx512f() {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f");
}

#else

// Off x86-64 there is no AVX-512: gemm_raw never picks this kernel.
void gemm_avx512(const double* __restrict a, const double* __restrict b,
                 double* __restrict c, std::size_t n, std::size_t k,
                 std::size_t m, double alpha) {
    gemm_plain(a, b, c, n, k, m, alpha);
}

bool cpu_has_avx512f() { return false; }

#endif

}  // namespace detail

void gemm_raw(const double* __restrict a, const double* __restrict b,
              double* __restrict c, std::size_t n, std::size_t k,
              std::size_t m, double alpha) {
    static const auto kernel = detail::cpu_has_avx512f()
                                   ? &detail::gemm_avx512
                                   : &detail::gemm_plain;
    kernel(a, b, c, n, k, m, alpha);
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
