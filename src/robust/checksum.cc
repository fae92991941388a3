#include "robust/checksum.h"

#include "robust/fold_kernels.h"

namespace hympi::robust::detail {

void fold_blocks_portable(std::uint64_t* lanes, const unsigned char* p,
                          std::size_t blocks) {
    for (std::size_t b = 0; b < blocks; ++b, p += 8 * kLanes) {
        for (std::size_t j = 0; j < kLanes; ++j) {
            lanes[j] = WordFold::step(lanes[j], WordFold::load_le64(p + 8 * j));
        }
    }
}

#if defined(__x86_64__)

// Eight lanes per zmm register. GCC's vector extension spells mix64 and the
// lane step exactly as the scalar code does; under this target the 64-bit
// multiplies become vpmullq. x86-64 is little-endian, so a plain load reads
// the words as WordFold does.
using Lanes8 = std::uint64_t __attribute__((vector_size(64)));

__attribute__((aligned(64), target("avx512f,avx512dq"))) void
fold_blocks_avx512(std::uint64_t* lanes, const unsigned char* p,
                   std::size_t blocks) {
    constexpr std::size_t kVecs = kLanes / 8;  // zmm registers of lanes
    Lanes8 acc[kVecs];
    std::memcpy(acc, lanes, sizeof(acc));
    for (std::size_t b = 0; b < blocks; ++b, p += sizeof(acc)) {
#pragma GCC unroll 4
        for (std::size_t v = 0; v < kVecs; ++v) {
            Lanes8 x;
            std::memcpy(&x, p + sizeof(x) * v, sizeof(x));
            x += 0x9e3779b97f4a7c15ULL;
            x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
            x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
            x ^= x >> 31;
            acc[v] = (acc[v] ^ x) * WordFold::kPrime;
        }
    }
    std::memcpy(lanes, acc, sizeof(acc));
}

bool cpu_has_avx512dq() {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq");
}

#else

// Off x86-64 there is no AVX-512: fold_blocks never picks this kernel.
void fold_blocks_avx512(std::uint64_t* lanes, const unsigned char* p,
                        std::size_t blocks) {
    fold_blocks_portable(lanes, p, blocks);
}

bool cpu_has_avx512dq() { return false; }

#endif

void fold_blocks(std::uint64_t* lanes, const unsigned char* p,
                 std::size_t blocks) {
    static const auto kernel =
        cpu_has_avx512dq() ? &fold_blocks_avx512 : &fold_blocks_portable;
    kernel(lanes, p, blocks);
}

}  // namespace hympi::robust::detail
