#pragma once

#include "hybrid/shared_buffer.h"
#include "hybrid/sync.h"
#include "minimpi/icoll.h"

namespace hympi {

/// Backend selector shared with the application layer (same meaning as
/// apps::Backend, duplicated here to keep the hybrid library free of app
/// dependencies).
enum class HaloBackend {
    PureMpi,
    Hybrid,
};

/// 1D halo (ghost-cell) exchange — the point-to-point pattern of Hoefler et
/// al.'s original MPI+MPI paper, which the reproduced paper cites as the
/// prior art its collectives extend, and which its conclusion lists as the
/// natural companion ("more experiences (e.g., p2p communications)").
///
/// Pure MPI: every rank owns  [ghost H | cells | ghost H]  privately and
/// exchanges H-cell halos with BOTH neighbors every iteration — including
/// neighbors on the same node, whose halos travel through the shm transport
/// as real messages.
///
/// Hybrid MPI+MPI: each node holds ONE contiguous slab
/// [ghost H | rank0 cells | rank1 cells | ... | ghost H] in a shared
/// window. On-node neighbors need no transfer at all — a rank's "halo" IS
/// its neighbor's boundary cells, read in place. Only the node-edge ranks
/// exchange halos across the network, and an on-node sync publishes the
/// iteration (paper Sect. 6 suggests the light-weight flag flavor for
/// exactly this non-collective pattern).
///
/// The global domain is a periodic ring of comm.size() * cells_per_rank
/// cells (SMP-contiguous placement assumed, as in the paper's Sect. 4).
class HaloExchange1D {
public:
    /// Collective over hc.world().
    HaloExchange1D(const HierComm& hc, std::size_t cells_per_rank,
                   std::size_t halo_width, HaloBackend backend);

    std::size_t cells_per_rank() const { return cells_; }
    std::size_t halo_width() const { return halo_; }

    /// Where to produce the NEXT iteration's cell values (double-buffered:
    /// writing here never races readers of the published slab).
    double* write_cells();

    /// My cells as of the last publish_and_exchange().
    const double* cells() const;
    /// The H cells logically left/right of my published cells. For hybrid
    /// interior ranks these ALIAS the on-node neighbor's cells — no copy
    /// ever exists; node-edge ranks read the node slab's ghost region.
    const double* left_halo() const;
    const double* right_halo() const;

    /// Publish the values written through write_cells() and refresh the
    /// ghost regions across node boundaries. The sync policy is honored by
    /// the hybrid backend only (pure MPI synchronizes through its halo
    /// messages).
    void publish_and_exchange(SyncPolicy sync = SyncPolicy::Flags);

    /// Split-phase publish (hybrid backend only): posts the node-edge
    /// network transfers on the progress engine and returns immediately;
    /// compute charged between start and wait() overlaps them in virtual
    /// time (interior ranks have no traffic and complete at once). wait()
    /// runs the on-node sync that publishes the slab, so no aliased ghost
    /// may be read before it. One exchange may be outstanding at a time;
    /// do not mix with the blocking form while one is in flight.
    minimpi::CollRequest start_exchange(SyncPolicy sync = SyncPolicy::Flags);

private:
    const HierComm* hc_;
    std::size_t cells_;
    std::size_t halo_;
    HaloBackend backend_;
    std::uint64_t epoch_ = 0;  ///< completed publishes (rank-local)

    // Hybrid: two node slabs in one shared window; slab layout:
    // [H ghost][node_size * cells][H ghost].
    NodeSharedBuffer slab_;
    std::size_t slab_doubles_ = 0;  ///< stride between the two slabs
    NodeSync sync_;

    // Pure MPI: two private slabs [H][cells][H].
    std::vector<double> priv_;

    int left_rank_ = minimpi::kProcNull;
    int right_rank_ = minimpi::kProcNull;

    /// Base (in doubles) of slab @p s (0/1).
    double* slab_base(int s) const;
    /// Published / write slab selectors.
    int pub_slab() const { return static_cast<int>((epoch_ + 1) % 2); }
    int write_slab() const { return static_cast<int>(epoch_ % 2); }
    /// Pointer to local member @p idx's cells within slab @p s (hybrid).
    double* slab_cells(int s, int local_idx) const;
    /// Hybrid network phase for slab @p s over @p world: only the node's
    /// edge ranks trade halos with the neighboring nodes.
    void exchange_node_edges(const minimpi::Comm& world, int s) const;
};

}  // namespace hympi
