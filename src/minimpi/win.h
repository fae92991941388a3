#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "minimpi/comm.h"

namespace minimpi {

/// MPI-3 shared-memory window (MPI_Win_allocate_shared +
/// MPI_Win_shared_query). All ranks of the communicator must live on the
/// same simulated node (i.e. the communicator came from split_shared()),
/// matching the MPI requirement that the group be able to share memory.
///
/// The window is one contiguous block; rank i's segment starts where rank
/// i-1's ends (cache-line aligned), as with alloc_shared_noncontig=false.
/// In SizeOnly payload mode no memory is materialized and base pointers are
/// null — the control flow and the modelled costs are unchanged.
///
/// The members' handles share ownership of the block: it lives while any
/// member (or a copy of its handle) holds it, and the last handle dropped
/// frees it, on whichever rank drops it. Pointers from shared_query are
/// valid only while the caller holds a handle.
class Win {
public:
    Win() = default;

    bool valid() const { return state_ != nullptr; }

    /// Base pointer of the calling rank's own segment.
    std::byte* my_base() const;
    std::size_t my_size() const;

    /// MPI_Win_shared_query: base pointer and size of @p rank's segment
    /// (comm-local rank). Charges nothing — it is a local pointer lookup.
    std::pair<std::byte*, std::size_t> shared_query(int rank) const;

    /// Total bytes in the window (sum over ranks).
    std::size_t total_size() const;

    /// Whether the backing allocation failed (deterministically injected
    /// via FaultPlan::shm_fail_every). A failed window is still valid() —
    /// the collective completed and every rank agrees on the failure — but
    /// all segment base pointers are null.
    bool alloc_failed() const;

    /// The communicator the window was allocated on.
    const Comm& comm() const { return comm_; }

private:
    friend Win win_allocate_shared(const Comm&, std::size_t);

    struct WinState {
        std::vector<std::size_t> sizes;    ///< per comm rank
        std::vector<std::size_t> offsets;  ///< per comm rank, aligned
        std::size_t total = 0;
        std::unique_ptr<std::byte[]> block;  ///< null in SizeOnly mode
        std::byte* aligned = nullptr;  ///< cache-line-aligned base in block
        bool alloc_failed = false;     ///< injected allocation failure
    };

    std::shared_ptr<WinState> state_;
    Comm comm_;
    int rank_ = -1;
};

/// Collective: allocate a shared window with @p my_bytes local bytes
/// (different ranks may pass different sizes; the paper's hybrid allgather
/// has the leader ask for the whole node buffer and children ask for 0).
Win win_allocate_shared(const Comm& comm, std::size_t my_bytes);

}  // namespace minimpi
