#include "minimpi/runtime.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>

#include "minimpi/error.h"
#include "trace/recorder.h"
#include "trace/sink.h"
#include "tuning/decision.h"

namespace minimpi {

Runtime::Runtime(ClusterSpec cluster, ModelParams model, PayloadMode payload,
                 RunOptions opts)
    : cluster_(std::move(cluster)),
      model_(std::move(model)),
      payload_(payload),
      opts_(opts) {}

CommState* Runtime::create_comm(std::vector<int> members_world,
                                CommState* parent) {
    auto st = std::make_unique<CommState>();
    st->runtime = this;
    st->ctx_p2p = alloc_ctx();
    st->ctx_coll = alloc_ctx();
    st->parent = parent;
    st->members = std::move(members_world);
    st->world_to_local.assign(
        static_cast<std::size_t>(cluster_.total_ranks()), -1);
    for (std::size_t i = 0; i < st->members.size(); ++i) {
        st->world_to_local.at(static_cast<std::size_t>(st->members[i])) =
            static_cast<int>(i);
    }
    st->member_epoch.assign(st->members.size(), 0);
    st->member_shrink_epoch.assign(st->members.size(), 0);
    st->member_chan_seq.assign(st->members.size(), 0);
    CommState* raw = st.get();
    bool born_revoked = false;
    {
        std::lock_guard<std::mutex> lock(registry_mu_);
        comms_.push_back(std::move(st));
        // Registration and the inherited-revocation check are one critical
        // section against revoke_comm's cascade scan: either this comm is
        // registered before the scan snapshot (the cascade revokes it), or
        // the scan's lock ordering makes the parent's revoked flag visible
        // here and the child is born revoked. No third interleaving.
        if (parent != nullptr &&
            parent->revoked.load(std::memory_order_acquire)) {
            raw->revoked.store(true, std::memory_order_release);
            born_revoked = true;
        }
    }
    if (born_revoked) {
        transport_->revoke_ctx(raw->ctx_p2p);
        transport_->revoke_ctx(raw->ctx_coll);
    }
    return raw;
}

void Runtime::revoke_comm(CommState& st) {
    if (st.revoked.exchange(true, std::memory_order_acq_rel)) return;
    // Revoking the contexts wakes every parked rank, rendezvous waiters on
    // this comm included (they re-check st.revoked).
    transport_->revoke_ctx(st.ctx_p2p);
    transport_->revoke_ctx(st.ctx_coll);
    // Cascade to derived comms (see CommState::parent): a survivor blocked
    // in an internal hierarchy leg whose direct peers are all alive can only
    // be interrupted through its sub-communicator. Snapshot under the
    // registry lock, then recurse outside it; the exchange above makes
    // re-entry through overlapping subtrees a no-op.
    std::vector<CommState*> derived;
    {
        std::lock_guard<std::mutex> lock(registry_mu_);
        for (const auto& comm : comms_) {
            for (const CommState* a = comm->parent; a != nullptr;
                 a = a->parent) {
                if (a == &st) {
                    derived.push_back(comm.get());
                    break;
                }
            }
        }
    }
    for (CommState* child : derived) revoke_comm(*child);
}

VTime Runtime::one_off_sync_cost(int nranks) const {
    if (nranks <= 1) return model_.shm.overhead_us;
    const double rounds = std::ceil(std::log2(static_cast<double>(nranks)));
    return rounds * (model_.net.alpha_us + 2.0 * model_.net.overhead_us);
}

std::vector<VTime> Runtime::run(const std::function<void(Comm&)>& rank_main) {
    const int n = cluster_.total_ranks();

    // Fresh state for this run: every fiber of a previous run has finished
    // (run returns only then), so replacing the registries is safe.
    {
        std::lock_guard<std::mutex> lock(registry_mu_);
        comms_.clear();
        shm_alloc_seq_.assign(static_cast<std::size_t>(cluster_.num_nodes()),
                              0);
    }
    transport_ = std::make_unique<Transport>(n, payload_);
    transport_->set_fault_plan(fault_plan_.active() ? &fault_plan_ : nullptr);
    next_ctx_.store(kFirstUserCtx);

    std::vector<int> world_members(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) world_members[static_cast<std::size_t>(i)] = i;
    CommState* world_state = create_comm(std::move(world_members));

    std::vector<RankCtx> ctxs(static_cast<std::size_t>(n));
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));

    // Span recording is on when the caller asked (RunOptions::spans) or
    // process-wide via HYMPI_TRACE; the sink only receives runs in the
    // latter case.
    hytrace::TraceSink& sink = hytrace::TraceSink::instance();
    const bool span_trace = opts_.spans || sink.enabled();
    const bool span_p2p = opts_.span_p2p || sink.p2p();
    std::vector<hytrace::Recorder> recorders;
    if (span_trace) {
        recorders.assign(static_cast<std::size_t>(n),
                         hytrace::Recorder(span_p2p));
    }

    // Tuned algorithm selection for this vendor profile (null when the
    // profile has no table). Resolved once, before the ranks start.
    const tuning::DecisionTable* tuned = tuning::find_table(model_.name);

    detail::Scheduler sched;
    transport_->set_scheduler(&sched);
    for (int i = 0; i < n; ++i) {
        auto& ctx = ctxs[static_cast<std::size_t>(i)];
        ctx.world_rank = i;
        ctx.runtime = this;
        ctx.cluster = &cluster_;
        ctx.model = &model_;
        ctx.payload_mode = payload_;
        ctx.tuned = tuned;
        ctx.robust_cfg = &robust_cfg_;
        if (fault_plan_.kill_active()) {
            ctx.kill_at = fault_plan_.kill_time(i);
        }
        if (span_trace) ctx.spans = &recorders[static_cast<std::size_t>(i)];
        ctx.fiber = &sched.spawn(i, [&, i] {
            RankCtx& me = ctxs[static_cast<std::size_t>(i)];
            try {
                Comm world(world_state, &me, i);
                rank_main(world);
            } catch (const detail::RankKilled& k) {
                // Scheduled process failure (FaultPlan kill), not an error:
                // the fiber ends silently and the job keeps running.
                // Survivors observe the death as ProcessFailedError and run
                // detect–agree–shrink.
                transport_->mark_dead(k.world_rank, k.at);
            } catch (...) {
                errors[static_cast<std::size_t>(i)] = std::current_exception();
                transport_->poison(i);
            }
        });
    }

    // A stall — every live rank parked, none able to wake another — fails
    // the run with the wait-for table; the poison unwinds the parked ranks.
    std::string stall;
    sched.run(std::clamp(detail::Scheduler::affinity_cpus(), 1, std::max(1, n)),
              [&](const std::vector<detail::Parked>& parked) {
                  std::ostringstream os;
                  os << parked.size() << " of " << n
                     << " ranks parked with no rank runnable:";
                  for (const detail::Parked& p : parked) {
                      os << "\n  rank " << p.rank << " at vclock "
                         << ctxs[static_cast<std::size_t>(p.rank)].clock.now()
                         << " us: " << p.at->str();
                  }
                  stall = os.str();
                  transport_->poison(-1);
              });
    transport_->set_scheduler(nullptr);

    // Prefer the originating error over the JobAborted exceptions raised in
    // ranks that were merely unblocked by the poison.
    std::exception_ptr first_abort;
    for (int i = 0; i < n; ++i) {
        auto& err = errors[static_cast<std::size_t>(i)];
        if (!err) continue;
        try {
            std::rethrow_exception(err);
        } catch (const JobAborted&) {
            if (!first_abort) first_abort = err;
        } catch (...) {
            std::rethrow_exception(err);
        }
    }
    if (!stall.empty()) throw StallError(stall);
    if (first_abort) std::rethrow_exception(first_abort);

    std::vector<VTime> clocks(static_cast<std::size_t>(n));
    last_stats_.resize(static_cast<std::size_t>(n));
    last_robust_stats_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        clocks[static_cast<std::size_t>(i)] =
            ctxs[static_cast<std::size_t>(i)].clock.now();
        last_stats_[static_cast<std::size_t>(i)] =
            ctxs[static_cast<std::size_t>(i)].stats;
        last_robust_stats_[static_cast<std::size_t>(i)] =
            ctxs[static_cast<std::size_t>(i)].robust_stats;
    }
    last_span_traces_.clear();
    if (span_trace) {
        last_span_traces_.reserve(recorders.size());
        for (int i = 0; i < n; ++i) {
            auto& rec = recorders[static_cast<std::size_t>(i)];
            hytrace::RankTrace rt;
            rt.node = cluster_.node_of(i);
            rt.spans = rec.spans();
            rt.counters = rec.counters();
            last_span_traces_.push_back(std::move(rt));
        }
        if (sink.enabled()) {
            hytrace::RunTrace run_trace;
            run_trace.ranks = last_span_traces_;
            sink.add_run(std::move(run_trace));
        }
    }
    if (robust_cfg_.dump_at_finalize) {
        const hympi::RobustStats total = total_robust_stats();
        if (total.any()) {
            std::fprintf(
                stderr,
                "[hympi robust] retries=%llu timeouts=%llu checksum_failures="
                "%llu stale_discards=%llu recoveries=%llu sync_trips=%llu "
                "sync_downgrades=%llu flat_downgrades=%llu alloc_failures="
                "%llu failures_detected=%llu shrinks=%llu\n",
                static_cast<unsigned long long>(total.retries),
                static_cast<unsigned long long>(total.timeouts),
                static_cast<unsigned long long>(total.checksum_failures),
                static_cast<unsigned long long>(total.stale_discards),
                static_cast<unsigned long long>(total.recoveries),
                static_cast<unsigned long long>(total.sync_trips),
                static_cast<unsigned long long>(total.sync_downgrades),
                static_cast<unsigned long long>(total.flat_downgrades),
                static_cast<unsigned long long>(total.alloc_failures),
                static_cast<unsigned long long>(total.failures_detected),
                static_cast<unsigned long long>(total.shrinks));
        }
    }
    return clocks;
}

CommStats Runtime::total_stats() const {
    CommStats total;
    for (const auto& s : last_stats_) total += s;
    return total;
}

hympi::RobustStats Runtime::total_robust_stats() const {
    hympi::RobustStats total;
    for (const auto& s : last_robust_stats_) total += s;
    return total;
}

hytrace::Counters Runtime::total_span_counters() const {
    hytrace::Counters total;
    for (const auto& rt : last_span_traces_) total += rt.counters;
    return total;
}

std::uint64_t Runtime::next_shm_alloc_idx(int node) {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto& seq = shm_alloc_seq_.at(static_cast<std::size_t>(node));
    return seq++;
}

}  // namespace minimpi
