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

/// Streaming fold over little-endian 64-bit words: per word,
/// h = (h ^ mix64(w)) * 0x100000001b3. Bytes pack into words in stream
/// order and a partial word carries across update() calls, so the digest
/// depends only on the concatenated byte stream, never on how it was split
/// into calls. mix64 is a bijection and so is each step in h for a fixed
/// word, so changing any single word — hence any single byte — always
/// changes the digest. The mix64 matters for multi-bit errors: a multiply
/// alone only carries a change upward, so without it flipping bit 63 (a
/// double's sign) in any two words would cancel out. mix64 spreads every
/// bit of the word over the whole state first, and it sits off the
/// dependency chain through h, so it costs almost nothing. Words are read
/// little-endian on every host, so digests and frame checksums replay
/// identically everywhere (the property the fault plan's splitmix64 stream
/// relies on too).
class WordFold {
public:
    static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
    static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

    explicit WordFold(std::uint64_t seed = kOffset) : h_(seed) {}

    void update(const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        std::size_t have = len_ & 7;
        len_ += n;
        if (have != 0) {  // top up the pending partial word first
            for (; n > 0 && have < 8; --n, ++have) {
                tail_ |= std::uint64_t{*p++} << (8 * have);
            }
            if (have < 8) return;
            h_ = step(h_, tail_);
            tail_ = 0;
        }
        // Fold in a local: h_ could alias the input bytes, which would
        // otherwise force a store of h_ on every word.
        std::uint64_t h = h_;
        for (; n >= 8; n -= 8, p += 8) h = step(h, load_le64(p));
        h_ = h;
        for (std::size_t i = 0; i < n; ++i) {
            tail_ |= std::uint64_t{p[i]} << (8 * i);
        }
    }

    /// Digest of the stream so far: the pending partial word (zero-padded),
    /// then the stream length, so trailing zero bytes still count. Folding
    /// may continue afterwards.
    std::uint64_t digest() const {
        std::uint64_t h = h_;
        if ((len_ & 7) != 0) h = step(h, tail_);
        return (h ^ len_) * kPrime;
    }

private:
    static std::uint64_t step(std::uint64_t h, std::uint64_t w) {
        return (h ^ mix64(w)) * kPrime;
    }

    static std::uint64_t load_le64(const unsigned char* p) {
        std::uint64_t w;
        std::memcpy(&w, p, sizeof(w));
        return to_le64(w);
    }

    std::uint64_t h_;
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
