#pragma once

#include <cstddef>

/// The kernels behind linalg::gemm_raw, exposed so tests can run each one
/// directly. Every kernel computes C += alpha * A * B on row-major buffers
/// (A n x k, B k x m, C n x m; C must not overlap A or B) and produces the
/// same bits: each element of C takes `c += (alpha * a[i][l]) * b[l][j]`
/// for l = 0, 1, ..., k-1, each step a separately rounded multiply and add.
/// Only the order in which different elements are visited differs.
namespace linalg::detail {

/// The plain i-k-j loop: the reference, and the kernel on hosts without
/// AVX-512.
void gemm_plain(const double* __restrict a, const double* __restrict b,
                double* __restrict c, std::size_t n, std::size_t k,
                std::size_t m, double alpha);

/// Register-blocked AVX-512 kernel: 4 x 32 blocks of C stay in registers
/// across the whole k loop; the n % 4 rows and m % 32 columns left over
/// go through gemm_plain. Call it only when cpu_has_avx512f() is true.
void gemm_avx512(const double* __restrict a, const double* __restrict b,
                 double* __restrict c, std::size_t n, std::size_t k,
                 std::size_t m, double alpha);

/// Whether this CPU (and its OS) runs AVX-512F code. gemm_raw asks once per
/// process and then always calls the same kernel.
bool cpu_has_avx512f();

}  // namespace linalg::detail
