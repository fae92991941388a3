#pragma once

#include <cstddef>
#include <cstdint>

/// The kernels behind robust::detail::fold_blocks, exposed so tests can run
/// each one directly. Every kernel folds @p blocks whole blocks of
/// WordFold::kLanes little-endian 64-bit words at @p p (any alignment) into
/// @p lanes: word j of each block takes
/// lanes[j] = (lanes[j] ^ mix64(w)) * WordFold::kPrime, blocks in order.
/// The lanes are independent, so every kernel produces the same bits.
namespace hympi::robust::detail {

/// The plain per-word loop: the reference, and the kernel on hosts without
/// AVX-512F/DQ.
void fold_blocks_portable(std::uint64_t* lanes, const unsigned char* p,
                          std::size_t blocks);

/// AVX-512 kernel: the 32 lanes stay in four zmm registers across all
/// blocks; the 64-bit multiplies are vpmullq (AVX-512DQ). Call it only
/// when cpu_has_avx512dq() is true.
void fold_blocks_avx512(std::uint64_t* lanes, const unsigned char* p,
                        std::size_t blocks);

/// Whether this CPU (and its OS) runs AVX-512F and AVX-512DQ code.
/// fold_blocks asks once per process and then always calls the same kernel.
bool cpu_has_avx512dq();

}  // namespace hympi::robust::detail
