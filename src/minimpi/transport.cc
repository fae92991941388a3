#include "minimpi/transport.h"

#include <algorithm>

#include "minimpi/error.h"

namespace minimpi {

Transport::Transport(int nranks, PayloadMode mode) : mode_(mode) {
    boxes_.reserve(static_cast<std::size_t>(nranks));
    for (int i = 0; i < nranks; ++i) {
        boxes_.push_back(std::make_unique<Mailbox>());
    }
}

Payload Transport::make_payload(const void* src, std::size_t bytes) const {
    if (mode_ == PayloadMode::SizeOnly || bytes == 0 || src == nullptr) {
        return nullptr;
    }
    auto copy = std::make_shared_for_overwrite<std::byte[]>(bytes);
    std::memcpy(copy.get(), src, bytes);
    return copy;
}

void Transport::complete(PostedRecv* r, InMsg& m) {
    r->msg_bytes = m.bytes;
    r->matched_src = m.src_global;
    r->matched_tag = m.tag;
    r->arrival = m.arrival;
    r->recv_overhead = m.recv_overhead;
    r->dropped = m.dropped;
    if (m.bytes > r->capacity) {
        r->truncated = true;
    } else if (m.payload && r->buf) {
        std::memcpy(r->buf, m.payload.get(), m.bytes);
    }
    if (r->keep && m.bytes == r->capacity && !m.dropped) {
        r->kept = std::move(m.payload);
    }
    r->completed = true;
}

void Transport::deliver(int dst_global, InMsg msg) {
    // Fault injection happens at the delivery boundary, before matching.
    // Reserved contexts are exempt: the robust control channel models a
    // reliable side band (see kRobustCtrlCtx).
    InMsg dup;
    bool have_dup = false;
    if (faults_ != nullptr && msg.ctx >= kFirstUserCtx) {
        msg.arrival +=
            faults_->jitter_us(msg.src_global, dst_global, msg.fault_seq);
        if (faults_->rank_delay_us > 0.0 && faults_->delays(msg.src_global)) {
            msg.arrival += faults_->rank_delay_us;
        }
        const bool payload_target =
            faults_->scope == FaultScope::AllTraffic || msg.robust_frame;
        if (payload_target) {
            if (faults_->should_drop(msg.src_global, dst_global,
                                     msg.fault_seq)) {
                // Tombstone: the envelope still arrives so a blocked
                // receiver wakes and observes the loss instead of hanging.
                msg.dropped = true;
                msg.payload.reset();
            } else {
                if (msg.payload && msg.bytes > 0 &&
                    faults_->should_corrupt(msg.src_global, dst_global,
                                            msg.fault_seq)) {
                    // Copy on write: the payload may also travel to other
                    // receivers or be kept by the sender for its next send.
                    auto bad =
                        std::make_shared_for_overwrite<std::byte[]>(msg.bytes);
                    std::memcpy(bad.get(), msg.payload.get(), msg.bytes);
                    bad[faults_->corrupt_byte(msg.src_global, dst_global,
                                              msg.fault_seq, msg.bytes)] ^=
                        std::byte{0x40};
                    msg.payload = std::move(bad);
                }
                if (faults_->should_dup(msg.src_global, dst_global,
                                        msg.fault_seq)) {
                    dup.ctx = msg.ctx;
                    dup.src_global = msg.src_global;
                    dup.tag = msg.tag;
                    dup.bytes = msg.bytes;
                    dup.payload = msg.payload;
                    dup.arrival = msg.arrival + faults_->dup_delay_us;
                    dup.recv_overhead = msg.recv_overhead;
                    dup.fault_seq = msg.fault_seq;
                    dup.robust_frame = msg.robust_frame;
                    have_dup = true;
                }
            }
        }
    }
    deliver_matched(dst_global, std::move(msg));
    if (have_dup) deliver_matched(dst_global, std::move(dup));
}

void Transport::deliver_matched(int dst_global, InMsg msg) {
    Mailbox& mb = box(dst_global);
    // A dead destination's inbound traffic tombstones: nothing will ever
    // receive it, and keeping it alive would leak and (worse) let a later
    // shrunken communicator reusing the rank observe stale state.
    if (mb.dead.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(mb.mu);
    for (auto it = mb.posted.begin(); it != mb.posted.end(); ++it) {
        if (matches(**it, msg)) {
            complete(*it, msg);
            mb.posted.erase(it);
            mb.site.notify_all();
            return;
        }
    }
    mb.unexpected.push_back(std::move(msg));
    // Probes may be waiting even with no posted receive.
    mb.site.notify_all();
}

void Transport::post_recv(int me, PostedRecv* r) {
    Mailbox& mb = box(me);
    std::lock_guard<std::mutex> lock(mb.mu);
    for (auto it = mb.unexpected.begin(); it != mb.unexpected.end(); ++it) {
        if (matches(*r, *it)) {
            complete(r, *it);
            mb.unexpected.erase(it);
            return;
        }
    }
    mb.posted.push_back(r);
}

std::size_t Transport::wait(int me, std::span<PostedRecv* const> rs,
                            RankCtx* ctx,
                            const std::function<bool()>& interrupt) {
    Mailbox& mb = box(me);
    std::size_t hit = SIZE_MAX;
    const detail::WaitDesc at =
        rs.empty() ? detail::WaitDesc::recv(0, kAnySource, kAnyTag)
                   : detail::WaitDesc::recv(rs[0]->ctx, rs[0]->src_global,
                                            rs[0]->tag);
    detail::block_until(
        detail::Waiter{*this, ctx}, mb.mu, mb.site, at,
        [&] {
            for (std::size_t i = 0; i < rs.size(); ++i) {
                if (rs[i]->completed) {
                    hit = i;
                    return true;
                }
            }
            return false;
        },
        [&] {
            for (const PostedRecv* r : rs) {
                if (const detail::WaitInterrupt wi = interrupt_of(*r)) return wi;
            }
            return detail::WaitInterrupt{interrupt && interrupt()
                                             ? detail::WaitInterrupt::External
                                             : detail::WaitInterrupt::None};
        },
        [&] {
            for (PostedRecv* r : rs) mb.posted.remove(r);
        });
    return hit;
}

void Transport::wake_parked() {
    if (sched_ != nullptr) sched_->wake_all();
}

void Transport::poison(int by_rank) {
    poison_rank_.store(by_rank, std::memory_order_relaxed);
    poisoned_.store(true, std::memory_order_release);
    wake_parked();
}

void Transport::check_poison() const {
    if (poisoned()) {
        throw JobAborted(poison_rank_.load(std::memory_order_relaxed));
    }
}

void Transport::mark_dead(int world_rank, VTime at) {
    Mailbox& mb = box(world_rank);
    {
        std::lock_guard<std::mutex> lock(mb.mu);
        if (mb.dead.load(std::memory_order_relaxed)) return;
        mb.death_vtime = at;
        mb.dead.store(true, std::memory_order_release);
        // The dying rank's fiber has already unwound: its pending receives
        // point at dead stack frames and its unexpected queue will never be
        // drained — tombstone both sides.
        mb.posted.clear();
        mb.unexpected.clear();
    }
    dead_count_.fetch_add(1, std::memory_order_release);
    wake_parked();
}

void Transport::revoke_ctx(std::uint64_t ctx) {
    {
        std::lock_guard<std::mutex> lock(revoked_mu_);
        if (std::find(revoked_.begin(), revoked_.end(), ctx) !=
            revoked_.end()) {
            return;  // idempotent: concurrent revokes from several survivors
        }
        revoked_.push_back(ctx);
    }
    revoke_count_.fetch_add(1, std::memory_order_release);
    wake_parked();
}

bool Transport::ctx_revoked(std::uint64_t ctx) const {
    if (revoke_count_.load(std::memory_order_acquire) == 0) return false;
    std::lock_guard<std::mutex> lock(revoked_mu_);
    return std::find(revoked_.begin(), revoked_.end(), ctx) != revoked_.end();
}

detail::WaitInterrupt Transport::interrupt_of(const PostedRecv& r) const {
    if (dead_count_.load(std::memory_order_acquire) > 0) {
        if (r.src_global >= 0 && is_dead(r.src_global)) {
            return {detail::WaitInterrupt::Dead, r.src_global};
        }
        // ULFM semantics: a wildcard receive has a pending failure as soon
        // as ANY process died (the dead one might have been the sender).
        if (r.src_global == kAnySource) {
            for (std::size_t i = 0; i < boxes_.size(); ++i) {
                if (boxes_[i]->dead.load(std::memory_order_acquire)) {
                    return {detail::WaitInterrupt::Dead, static_cast<int>(i)};
                }
            }
        }
    }
    if (ctx_revoked(r.ctx)) return {detail::WaitInterrupt::Revoked};
    return {};
}

bool Transport::test_recv(int me, PostedRecv* r) {
    Mailbox& mb = box(me);
    std::lock_guard<std::mutex> lock(mb.mu);
    return r->completed;
}

bool Transport::cancel_recv(int me, PostedRecv* r) {
    Mailbox& mb = box(me);
    std::lock_guard<std::mutex> lock(mb.mu);
    if (r->completed) return false;
    mb.posted.remove(r);
    return true;
}

bool Transport::find_unexpected(const Mailbox& mb, const PostedRecv& key,
                                Status* out) {
    for (const InMsg& m : mb.unexpected) {
        if (!matches(key, m)) continue;
        if (out) {
            out->source = m.src_global;  // translated by caller
            out->tag = m.tag;
            out->bytes = m.bytes;
        }
        return true;
    }
    return false;
}

bool Transport::iprobe(int me, std::uint64_t ctx_id, int src_global, int tag,
                       Status* out) {
    Mailbox& mb = box(me);
    PostedRecv key;
    key.ctx = ctx_id;
    key.src_global = src_global;
    key.tag = tag;
    std::lock_guard<std::mutex> lock(mb.mu);
    return find_unexpected(mb, key, out);
}

void Transport::probe(int me, std::uint64_t ctx_id, int src_global, int tag,
                      Status* out, RankCtx* ctx) {
    Mailbox& mb = box(me);
    PostedRecv key;
    key.ctx = ctx_id;
    key.src_global = src_global;
    key.tag = tag;
    const detail::WaitDesc at = detail::WaitDesc::recv(ctx_id, src_global, tag);
    detail::block_until(
        detail::Waiter{*this, ctx}, mb.mu, mb.site, at,
        [&] { return find_unexpected(mb, key, out); },
        [&] { return interrupt_of(key); });
}

std::size_t Transport::unexpected_count(int me) {
    Mailbox& mb = box(me);
    std::lock_guard<std::mutex> lock(mb.mu);
    return mb.unexpected.size();
}

}  // namespace minimpi
