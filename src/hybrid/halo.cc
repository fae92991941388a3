#include "hybrid/halo.h"

#include "minimpi/coll_internal.h"

namespace hympi {

using minimpi::detail::at;
using minimpi::detail::irecv_bytes;
using minimpi::detail::kTagHier;
using minimpi::detail::send_bytes;

namespace {
constexpr int kTagLeftward = kTagHier + 0x30;   // halo moving toward lower ranks
constexpr int kTagRightward = kTagHier + 0x31;  // halo moving toward higher ranks
}  // namespace

HaloExchange1D::HaloExchange1D(const HierComm& hc, std::size_t cells_per_rank,
                               std::size_t halo_width, HaloBackend backend)
    : hc_(&hc),
      cells_(cells_per_rank),
      halo_(halo_width),
      backend_(backend),
      sync_(hc) {
    const minimpi::Comm& world = hc.world();
    if (halo_ > cells_) {
        throw minimpi::ArgumentError("halo wider than the owned cell block");
    }
    if (backend_ == HaloBackend::Hybrid && !hc.smp_contiguous()) {
        throw minimpi::ArgumentError(
            "hybrid halo exchange needs SMP-contiguous rank placement (the "
            "node slab maps consecutive ranks to consecutive cells)");
    }
    const int p = world.size();
    left_rank_ = (world.rank() - 1 + p) % p;
    right_rank_ = (world.rank() + 1) % p;

    if (backend_ == HaloBackend::Hybrid) {
        const auto node_cells =
            static_cast<std::size_t>(hc.node_size(hc.my_node())) * cells_;
        slab_doubles_ = node_cells + 2 * halo_;
        slab_ = NodeSharedBuffer(hc, 2 * slab_doubles_ * sizeof(double));
    } else if (world.ctx().payload_mode == minimpi::PayloadMode::Real) {
        priv_.assign(2 * (cells_ + 2 * halo_), 0.0);
    }
}

double* HaloExchange1D::slab_base(int s) const {
    return reinterpret_cast<double*>(
        slab_.at(static_cast<std::size_t>(s) * slab_doubles_ * sizeof(double)));
}

double* HaloExchange1D::slab_cells(int s, int local_idx) const {
    double* base = slab_base(s);
    if (base == nullptr) return nullptr;
    return base + halo_ + static_cast<std::size_t>(local_idx) * cells_;
}

double* HaloExchange1D::write_cells() {
    if (backend_ == HaloBackend::Hybrid) {
        const int local = hc_->shm().rank();
        return slab_cells(write_slab(), local);
    }
    if (priv_.empty()) return nullptr;
    return priv_.data() +
           static_cast<std::size_t>(write_slab()) * (cells_ + 2 * halo_) +
           halo_;
}

const double* HaloExchange1D::cells() const {
    if (backend_ == HaloBackend::Hybrid) {
        return slab_cells(pub_slab(), hc_->shm().rank());
    }
    if (priv_.empty()) return nullptr;
    return priv_.data() +
           static_cast<std::size_t>(pub_slab()) * (cells_ + 2 * halo_) + halo_;
}

const double* HaloExchange1D::left_halo() const {
    if (backend_ == HaloBackend::Hybrid) {
        const int local = hc_->shm().rank();
        if (local > 0) {
            // Alias the on-node left neighbor's rightmost cells: no copy.
            const double* n = slab_cells(pub_slab(), local - 1);
            return n ? n + (cells_ - halo_) : nullptr;
        }
        double* base = slab_base(pub_slab());
        return base;  // node ghost
    }
    return priv_.empty() ? nullptr : cells() - halo_;
}

const double* HaloExchange1D::right_halo() const {
    if (backend_ == HaloBackend::Hybrid) {
        const int local = hc_->shm().rank();
        if (local + 1 < hc_->shm().size()) {
            return slab_cells(pub_slab(), local + 1);  // alias, no copy
        }
        double* base = slab_base(pub_slab());
        return base ? base + (slab_doubles_ - halo_) : nullptr;
    }
    return priv_.empty() ? nullptr : cells() + cells_;
}

void HaloExchange1D::publish_and_exchange(SyncPolicy sync) {
    const minimpi::Comm& world = hc_->world();
    const std::size_t hb = halo_ * sizeof(double);
    ++epoch_;  // the slab just written becomes the published one

    if (backend_ == HaloBackend::PureMpi) {
        // Every rank exchanges with BOTH neighbors — on-node neighbors
        // included, each a real message through the shm transport.
        double* base =
            priv_.empty()
                ? nullptr
                : priv_.data() + static_cast<std::size_t>(pub_slab()) *
                                     (cells_ + 2 * halo_);
        double* my = base ? base + halo_ : nullptr;
        // Rightward: my last H cells -> right neighbor's left ghost.
        minimpi::Request r1 =
            irecv_bytes(world, base, hb, left_rank_, kTagRightward, true);
        send_bytes(world, my ? my + (cells_ - halo_) : nullptr, hb,
                   right_rank_, kTagRightward, true);
        r1.wait();
        // Leftward: my first H cells -> left neighbor's right ghost.
        minimpi::Request r2 =
            irecv_bytes(world, my ? my + cells_ : nullptr, hb, right_rank_,
                        kTagLeftward, true);
        send_bytes(world, my, hb, left_rank_, kTagLeftward, true);
        r2.wait();
        return;
    }

    // Hybrid: only node-edge ranks touch the network; everyone then syncs
    // on node so the aliased reads see the published slab.
    exchange_node_edges(world, pub_slab());
    sync_.full_sync(sync);
}

void HaloExchange1D::exchange_node_edges(const minimpi::Comm& world,
                                         int s) const {
    const std::size_t hb = halo_ * sizeof(double);
    const int local = hc_->shm().rank();
    const int ppn = hc_->shm().size();
    double* base = slab_base(s);
    double* my = slab_cells(s, local);

    // Post receives, then send, then wait — a rank can hold BOTH edge roles
    // (single-rank node), so interleaving the phases avoids self-deadlock.
    minimpi::Request r_right, r_left;
    if (local == ppn - 1) {
        // The right node's first rank fills my node's right ghost.
        r_right = irecv_bytes(
            world, base ? base + (slab_doubles_ - halo_) : nullptr, hb,
            right_rank_, kTagLeftward, true);
    }
    if (local == 0) {
        r_left = irecv_bytes(world, base, hb, left_rank_, kTagRightward, true);
    }
    if (local == ppn - 1) {
        send_bytes(world, my ? my + (cells_ - halo_) : nullptr, hb,
                   right_rank_, kTagRightward, true);
    }
    if (local == 0) {
        send_bytes(world, my, hb, left_rank_, kTagLeftward, true);
    }
    r_right.wait();
    r_left.wait();
}

minimpi::CollRequest HaloExchange1D::start_exchange(SyncPolicy sync) {
    if (backend_ != HaloBackend::Hybrid) {
        throw minimpi::ArgumentError(
            "split-phase halo exchange requires the hybrid backend (pure "
            "MPI has no engine phase to overlap)");
    }
    const minimpi::Comm& world = hc_->world();
    ++epoch_;
    const int s = pub_slab();
    const int local = hc_->shm().rank();
    const int ppn = hc_->shm().size();
    auto on_wait = [this, sync] { sync_.full_sync(sync); };

    if (local != 0 && local != ppn - 1) {
        // Interior ranks carry no network traffic; only the publishing
        // sync remains, and that runs owner-side at wait().
        return minimpi::CollRequest(minimpi::detail::make_complete_icoll(
            world, "hy_halo", std::move(on_wait)));
    }
    // Only the node-edge ranks post engine tasks, so the per-comm posting
    // counter cannot be used for matching — the halo's own epoch counter
    // is the explicit sequence instead (identical on every rank, and
    // monotonic so in-flight epochs cannot cross-match).
    return minimpi::CollRequest(minimpi::detail::post_icoll(
        world, "hy_halo", [this, world, s] { exchange_node_edges(world, s); },
        std::move(on_wait), epoch_));
}

}  // namespace hympi
