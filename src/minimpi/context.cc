#include "minimpi/context.h"

#include <cstring>

#include "minimpi/trace_span.h"

namespace minimpi {

void RankCtx::copy_bytes(void* dst, const void* src, std::size_t bytes) {
    if (bytes == 0) return;
    vck().charge_memcpy(*model, bytes);
    stats.memcpy_bytes += bytes;
    if (payload_mode == PayloadMode::Real && dst != nullptr && src != nullptr &&
        dst != src) {
        std::memmove(dst, src, bytes);
    }
}

void RankCtx::copy_bytes_xsocket(void* dst, const void* src,
                                 std::size_t bytes) {
    if (bytes == 0) return;
    copy_bytes(dst, src, bytes);
    // Premium over the local copy already charged by copy_bytes.
    vck().advance(static_cast<VTime>(bytes) *
                  model->memcpy_xsocket_beta_us_per_byte);
    stats.xsocket_bytes += bytes;
    HYTRACE_COUNTER(*this, xsocket_bytes, bytes);
}

void RankCtx::charge_xsocket_read(std::size_t bytes, int concurrency) {
    if (bytes == 0) return;
    if (concurrency < 1) concurrency = 1;
    vck().advance(static_cast<VTime>(bytes) *
                  model->memcpy_xsocket_beta_us_per_byte *
                  static_cast<VTime>(concurrency));
    stats.xsocket_bytes += bytes;
    HYTRACE_COUNTER(*this, xsocket_bytes, bytes);
}

}  // namespace minimpi
