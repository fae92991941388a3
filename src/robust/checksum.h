#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace hympi::robust {

/// @p w as stored little-endian (identity on little-endian hosts).
inline std::uint64_t to_le64(std::uint64_t w) {
    if constexpr (std::endian::native == std::endian::big) {
        return __builtin_bswap64(w);
    }
    return w;
}

/// splitmix64 — deterministic jitter stream for retry backoff, the mixer
/// behind every seeded payload pattern, and WordFold's per-word mixer.
inline std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

namespace detail {

/// WordFold's lane count: word i of the stream goes to lane i % kLanes.
inline constexpr std::size_t kLanes = 32;

/// Folds @p blocks whole blocks of kLanes little-endian words at @p p
/// (any alignment) into @p lanes, word j of a block into lanes[j]. The
/// kernel is picked once per process (robust/fold_kernels.h); every kernel
/// gives the same bits.
void fold_blocks(std::uint64_t* lanes, const unsigned char* p,
                 std::size_t blocks);

}  // namespace detail

/// Streaming fold over little-endian 64-bit words in kLanes (32)
/// independent lanes. Word i of the stream goes to lane i % 32, and each
/// lane, seeded with the constructor's seed, takes
/// lane = (lane ^ mix64(w)) * 0x100000001b3 per word. digest() folds the
/// 32 lanes in order with the same step (from kOffset), then the pending
/// partial word (zero-padded), then the stream length. Bytes pack into
/// words in stream order, and the lane of a word depends only on its
/// index, so the digest depends only on the concatenated byte stream,
/// never on how it was split into update() calls.
///
/// Why lanes: each word costs three multiplies (two in mix64, one in the
/// step), and a single chain through one state waits for every step's
/// multiply, so a one-lane fold is bound at about four cycles per word.
/// Independent lanes let the multiplies overlap: whole 32-word blocks go through an AVX-512 kernel (four
/// registers of eight lanes) where the CPU has AVX-512F/DQ, and through a
/// portable loop with the same bits everywhere else.
///
/// Why it detects what it must: mix64 is a bijection and so is each step
/// in the lane for a fixed word, and in the word for a fixed lane, as is
/// each combine step in its lane value. So changing any single word —
/// hence any single byte — always changes the digest. mix64 matters for
/// multi-bit errors: a multiply alone only carries a change upward, so
/// without it flipping bit 63 (a double's sign) in two words would cancel
/// out; mix64 spreads every bit of a word over the whole state first.
/// Words are read little-endian on every host, so digests and frame
/// checksums replay identically everywhere (the property the fault plan's
/// splitmix64 stream relies on too).
class WordFold {
public:
    static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
    static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    static constexpr std::size_t kLanes = detail::kLanes;

    explicit WordFold(std::uint64_t seed = kOffset) {
        for (std::uint64_t& l : lanes_) l = seed;
    }

    void update(const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        std::size_t have = len_ & 7;
        std::size_t lane = (len_ >> 3) % kLanes;  // lane of the next word
        len_ += n;
        if (have != 0) {  // top up the pending partial word first
            for (; n > 0 && have < 8; --n, ++have) {
                tail_ |= std::uint64_t{*p++} << (8 * have);
            }
            if (have < 8) return;
            lanes_[lane] = step(lanes_[lane], tail_);
            lane = (lane + 1) % kLanes;
            tail_ = 0;
        }
        // Single words up to the next block boundary, whole blocks through
        // the kernel, then the words of the last partial block.
        for (; lane != 0 && n >= 8; n -= 8, p += 8) {
            lanes_[lane] = step(lanes_[lane], load_le64(p));
            lane = (lane + 1) % kLanes;
        }
        if (const std::size_t blocks = n / (8 * kLanes); blocks > 0) {
            detail::fold_blocks(lanes_, p, blocks);
            p += blocks * 8 * kLanes;
            n -= blocks * 8 * kLanes;
        }
        for (; n >= 8; n -= 8, p += 8, ++lane) {
            lanes_[lane] = step(lanes_[lane], load_le64(p));
        }
        for (std::size_t i = 0; i < n; ++i) {
            tail_ |= std::uint64_t{p[i]} << (8 * i);
        }
    }

    /// Digest of the stream so far: the lanes in order, the pending partial
    /// word (zero-padded), then the stream length, so trailing zero bytes
    /// still count. Folding may continue afterwards.
    std::uint64_t digest() const {
        std::uint64_t h = kOffset;
        for (const std::uint64_t l : lanes_) h = step(h, l);
        if ((len_ & 7) != 0) h = step(h, tail_);
        return (h ^ len_) * kPrime;
    }

    /// One lane step: lane = (lane ^ mix64(w)) * kPrime.
    static std::uint64_t step(std::uint64_t h, std::uint64_t w) {
        return (h ^ mix64(w)) * kPrime;
    }

    /// The 8 bytes at @p p (any alignment) as a little-endian word.
    static std::uint64_t load_le64(const unsigned char* p) {
        std::uint64_t w;
        std::memcpy(&w, p, sizeof(w));
        return to_le64(w);
    }

private:
    std::uint64_t lanes_[kLanes];
    std::uint64_t tail_ = 0;  ///< pending partial word, first byte lowest
    std::uint64_t len_ = 0;   ///< bytes folded so far
};

/// Frame checksum: the payload fold bound to the header's gen and length
/// fields. Binding the header means a corrupted gen/bytes byte fails
/// verification (and is NACKed) instead of masquerading as a stale frame —
/// a stale classification is only trusted when the whole frame proves
/// self-consistent. The attempt counter is deliberately excluded so
/// retransmissions need not re-checksum.
inline std::uint64_t frame_checksum(const void* payload, std::size_t n,
                                    std::uint64_t gen, std::uint64_t bytes) {
    WordFold f;
    f.update(payload, n);
    std::uint64_t h = f.digest();
    h = (h ^ gen) * WordFold::kPrime;
    h = (h ^ bytes) * WordFold::kPrime;
    return h;
}

/// Deterministic payload bytes for (seed, salt): byte i is byte (i % 8) of
/// mix64(seed ^ (salt * golden) ^ (i / 8)), little-endian. One mix64 per
/// word; platform-stable.
inline void fill_pattern(std::byte* out, std::size_t n, std::uint64_t seed,
                         std::uint64_t salt) {
    const std::uint64_t key = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
    std::size_t i = 0;
    std::uint64_t k = 0;
    for (; i + 8 <= n; i += 8, ++k) {
        const std::uint64_t w = to_le64(mix64(key ^ k));
        std::memcpy(out + i, &w, 8);
    }
    if (i < n) {
        const std::uint64_t w = to_le64(mix64(key ^ k));
        std::memcpy(out + i, &w, n - i);
    }
}

}  // namespace hympi::robust
