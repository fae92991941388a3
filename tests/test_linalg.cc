#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "linalg/cholesky.h"
#include "linalg/gemm_kernels.h"
#include "linalg/matrix.h"
#include "linalg/rng.h"

using namespace linalg;

namespace {

Matrix random_matrix(Rng& rng, std::size_t r, std::size_t c) {
    Matrix m(r, c);
    for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
    }
    return m;
}

Matrix random_spd(Rng& rng, std::size_t n) {
    Matrix a = random_matrix(rng, n, n);
    Matrix spd(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double s = (i == j) ? static_cast<double>(n) : 0.0;
            for (std::size_t k = 0; k < n; ++k) s += a(i, k) * a(j, k);
            spd(i, j) = s;
        }
    }
    return spd;
}

using GemmKernel = void (*)(const double*, const double*, double*,
                           std::size_t, std::size_t, std::size_t, double);

/// C += alpha * A * B as the plain i-k-j loop, written out independently of
/// the library: every kernel must reproduce these bits exactly.
void reference_gemm(const double* a, const double* b, double* c,
                    std::size_t n, std::size_t k, std::size_t m,
                    double alpha) {
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t l = 0; l < k; ++l) {
            const double av = alpha * a[i * k + l];
            for (std::size_t j = 0; j < m; ++j) {
                c[i * m + j] += av * b[l * m + j];
            }
        }
    }
}

/// Runs @p kernel over every n, k, m drawn from sizes that hit both the
/// register blocks (multiples of 4 rows and 32 columns) and the odd edges,
/// and compares C with the reference byte for byte.
void expect_bit_identical_to_reference(GemmKernel kernel) {
    const std::size_t sizes[] = {1, 3, 5, 16, 37, 128};
    constexpr double kAlpha = 0.7;
    Rng rng(17);
    for (std::size_t n : sizes) {
        for (std::size_t k : sizes) {
            for (std::size_t m : sizes) {
                const Matrix a = random_matrix(rng, n, k);
                const Matrix b = random_matrix(rng, k, m);
                Matrix want = random_matrix(rng, n, m);
                Matrix got = want;
                reference_gemm(a.data(), b.data(), want.data(), n, k, m,
                               kAlpha);
                kernel(a.data(), b.data(), got.data(), n, k, m, kAlpha);
                EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                      n * m * sizeof(double)),
                          0)
                    << "n=" << n << " k=" << k << " m=" << m;
            }
        }
    }
}

}  // namespace

TEST(Matrix, IdentityAndFill) {
    Matrix i3 = Matrix::identity(3);
    EXPECT_DOUBLE_EQ(i3(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(i3(0, 1), 0.0);
    i3.fill(2.0);
    EXPECT_DOUBLE_EQ(i3(2, 1), 2.0);
}

TEST(Matrix, GemmAgainstHandComputed) {
    Matrix a(2, 3), b(3, 2);
    a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
    a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
    b(0, 0) = 7; b(0, 1) = 8;
    b(1, 0) = 9; b(1, 1) = 10;
    b(2, 0) = 11; b(2, 1) = 12;
    const Matrix c = gemm(a, b);
    EXPECT_DOUBLE_EQ(c(0, 0), 58);
    EXPECT_DOUBLE_EQ(c(0, 1), 64);
    EXPECT_DOUBLE_EQ(c(1, 0), 139);
    EXPECT_DOUBLE_EQ(c(1, 1), 154);
}

TEST(Matrix, GemmIdentityIsNoop) {
    Rng rng(1);
    const Matrix a = random_matrix(rng, 7, 7);
    EXPECT_LT(gemm(a, Matrix::identity(7)).distance(a), 1e-12);
    EXPECT_LT(gemm(Matrix::identity(7), a).distance(a), 1e-12);
}

TEST(Matrix, GemmAssociativity) {
    Rng rng(2);
    const Matrix a = random_matrix(rng, 5, 6);
    const Matrix b = random_matrix(rng, 6, 4);
    const Matrix c = random_matrix(rng, 4, 3);
    EXPECT_LT(gemm(gemm(a, b), c).distance(gemm(a, gemm(b, c))), 1e-10);
}

TEST(Matrix, GemmShapeMismatchThrows) {
    Matrix a(2, 3), b(2, 3), c(2, 3);
    EXPECT_THROW(gemm_acc(a, b, c), std::invalid_argument);
}

TEST(Matrix, GemmAliasedOutputThrows) {
    // gemm_raw's buffers are restrict-qualified, so C may not be A or B.
    Matrix a = Matrix::identity(3);
    Matrix b = Matrix::identity(3);
    EXPECT_THROW(gemm_acc(a, b, a), std::invalid_argument);
    EXPECT_THROW(gemm_acc(a, b, b), std::invalid_argument);
    EXPECT_THROW(gemm_acc(a, a, a), std::invalid_argument);
    EXPECT_EQ(a, Matrix::identity(3));  // rejected before any write
}

TEST(Matrix, GemvMatchesGemm) {
    Rng rng(3);
    const Matrix a = random_matrix(rng, 6, 4);
    std::vector<double> x = {1.0, -2.0, 0.5, 3.0};
    const auto y = gemv(a, x);
    Matrix xm(4, 1);
    for (std::size_t i = 0; i < 4; ++i) xm(i, 0) = x[i];
    const Matrix ym = gemm(a, xm);
    for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(y[i], ym(i, 0), 1e-12);
}

TEST(Matrix, SyrAndAxpyAndDot) {
    Matrix a(2, 2);
    std::vector<double> x = {2.0, -1.0};
    syr_acc(a, x, 3.0);
    EXPECT_DOUBLE_EQ(a(0, 0), 12.0);
    EXPECT_DOUBLE_EQ(a(0, 1), -6.0);
    EXPECT_DOUBLE_EQ(a(1, 1), 3.0);
    std::vector<double> y = {1.0, 1.0};
    axpy(2.0, x, y);
    EXPECT_DOUBLE_EQ(y[0], 5.0);
    EXPECT_DOUBLE_EQ(y[1], -1.0);
    EXPECT_DOUBLE_EQ(dot(x, y), 11.0);
}

TEST(Cholesky, ReconstructsSpdMatrix) {
    Rng rng(4);
    for (std::size_t n : {1u, 2u, 5u, 16u, 32u}) {
        const Matrix a = random_spd(rng, n);
        const Matrix l = cholesky(a);
        // L * L^T == A.
        Matrix rec(n, n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                double s = 0;
                for (std::size_t k = 0; k <= std::min(i, j); ++k) {
                    s += l(i, k) * l(j, k);
                }
                rec(i, j) = s;
            }
        }
        EXPECT_LT(rec.distance(a), 1e-9 * static_cast<double>(n));
        // Strictly lower triangular factor.
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                EXPECT_DOUBLE_EQ(l(i, j), 0.0);
            }
        }
    }
}

TEST(Cholesky, RejectsIndefinite) {
    Matrix a = Matrix::identity(2);
    a(0, 0) = -1.0;
    EXPECT_THROW(cholesky(a), std::domain_error);
    Matrix b(2, 3);
    EXPECT_THROW(cholesky(b), std::invalid_argument);
}

TEST(Cholesky, SolveSpdIsExactInverseAction) {
    Rng rng(5);
    for (std::size_t n : {1u, 3u, 10u, 24u}) {
        const Matrix a = random_spd(rng, n);
        std::vector<double> b(n);
        for (auto& v : b) v = rng.normal();
        const auto x = solve_spd(a, b);
        const auto ax = gemv(a, x);
        for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
    }
}

TEST(Cholesky, TriangularSolvesInvertEachOther) {
    Rng rng(6);
    const Matrix a = random_spd(rng, 8);
    const Matrix l = cholesky(a);
    std::vector<double> z(8);
    for (auto& v : z) v = rng.normal();
    // L^T x = z, then L^T applied to x must give z back.
    const auto x = solve_lower_transposed(l, z);
    for (std::size_t i = 0; i < 8; ++i) {
        double s = 0;
        for (std::size_t k = i; k < 8; ++k) s += l(k, i) * x[k];
        EXPECT_NEAR(s, z[i], 1e-9);
    }
    const auto y = solve_lower(l, z);
    for (std::size_t i = 0; i < 8; ++i) {
        double s = 0;
        for (std::size_t k = 0; k <= i; ++k) s += l(i, k) * y[k];
        EXPECT_NEAR(s, z[i], 1e-9);
    }
}

TEST(Linalg, GemmRawAccumulatesWithAlpha) {
    const double a[4] = {1, 2, 3, 4};
    const double b[4] = {5, 6, 7, 8};
    double c[4] = {1, 1, 1, 1};
    gemm_raw(a, b, c, 2, 2, 2, 2.0);
    // 2*A*B + C0
    EXPECT_DOUBLE_EQ(c[0], 2 * 19 + 1);
    EXPECT_DOUBLE_EQ(c[1], 2 * 22 + 1);
    EXPECT_DOUBLE_EQ(c[2], 2 * 43 + 1);
    EXPECT_DOUBLE_EQ(c[3], 2 * 50 + 1);
}

TEST(Linalg, GemmRawIsBitIdenticalToPlainLoop) {
    expect_bit_identical_to_reference(&gemm_raw);
}

TEST(Linalg, GemmAvx512KernelIsBitIdenticalToPlainLoop) {
    if (!detail::cpu_has_avx512f()) GTEST_SKIP() << "CPU lacks AVX-512F";
    expect_bit_identical_to_reference(&detail::gemm_avx512);
}

TEST(Linalg, GemmPlainKernelIsBitIdenticalToPlainLoop) {
    expect_bit_identical_to_reference(&detail::gemm_plain);
}
