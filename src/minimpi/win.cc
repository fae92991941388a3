#include "minimpi/win.h"

#include <memory>

#include "minimpi/error.h"
#include "minimpi/runtime.h"

namespace minimpi {

namespace {
constexpr std::size_t kCacheLine = 64;

std::size_t align_up(std::size_t x) {
    return (x + kCacheLine - 1) & ~(kCacheLine - 1);
}
}  // namespace

std::byte* Win::my_base() const { return shared_query(rank_).first; }

std::size_t Win::my_size() const {
    return state_->sizes.at(static_cast<std::size_t>(rank_));
}

std::size_t Win::total_size() const { return state_->total; }

bool Win::alloc_failed() const { return valid() && state_->alloc_failed; }

std::pair<std::byte*, std::size_t> Win::shared_query(int rank) const {
    if (!valid()) throw WinError("query on an invalid window");
    if (rank < 0 || rank >= comm_.size()) {
        throw WinError("shared_query rank out of range");
    }
    const auto r = static_cast<std::size_t>(rank);
    std::byte* base =
        state_->aligned ? state_->aligned + state_->offsets[r] : nullptr;
    return {base, state_->sizes[r]};
}

Win win_allocate_shared(const Comm& comm, std::size_t my_bytes) {
    CommState& st = comm.state();
    RankCtx& ctx = comm.ctx();
    Runtime* rt = st.runtime;

    // MPI requirement: the group must be able to share memory.
    const int node0 = comm.node_of(0);
    for (int r = 1; r < comm.size(); ++r) {
        if (comm.node_of(r) != node0) {
            throw WinError(
                "win_allocate_shared on a communicator spanning several "
                "nodes; split with split_shared() first");
        }
    }

    struct AllocData {
        std::vector<std::pair<int, std::size_t>> contribs;  ///< (rank, bytes)
        std::shared_ptr<Win::WinState> state;
    };

    const VTime cost = rt->one_off_sync_cost(comm.size());
    auto data = detail::rendezvous<AllocData>(
        st, ctx, comm.rank(), cost,
        [&](AllocData& d) { d.contribs.emplace_back(comm.rank(), my_bytes); },
        [&](AllocData& d) {
            auto ws = std::make_shared<Win::WinState>();
            ws->sizes.assign(static_cast<std::size_t>(comm.size()), 0);
            for (const auto& [rank, bytes] : d.contribs) {
                ws->sizes.at(static_cast<std::size_t>(rank)) = bytes;
            }
            ws->offsets.resize(ws->sizes.size());
            std::size_t off = 0;
            for (std::size_t i = 0; i < ws->sizes.size(); ++i) {
                ws->offsets[i] = off;
                off += align_up(ws->sizes[i]);
            }
            ws->total = off;
            // Deterministic allocation-failure injection: the finalizer runs
            // once per window, so the per-node allocation index is collective
            // program order and every member observes the same verdict.
            const std::uint64_t alloc_idx = rt->next_shm_alloc_idx(node0);
            ws->alloc_failed =
                rt->fault_plan().should_fail_shm(node0, alloc_idx);
            if (!ws->alloc_failed &&
                rt->payload_mode() == PayloadMode::Real && off > 0) {
                // Over-allocate so every rank segment is cache-line aligned.
                ws->block = std::make_unique<std::byte[]>(off + kCacheLine);
                void* p = ws->block.get();
                std::size_t space = off + kCacheLine;
                ws->aligned = static_cast<std::byte*>(
                    std::align(kCacheLine, off, p, space));
            }
            d.state = ws;
        });

    Win w;
    w.state_ = data->state;
    w.comm_ = comm;
    w.rank_ = comm.rank();
    return w;
}

}  // namespace minimpi
