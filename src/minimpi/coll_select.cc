#include "minimpi/coll.h"
#include "minimpi/coll_internal.h"
#include "minimpi/runtime.h"
#include "minimpi/trace_span.h"

/// Profile-driven algorithm selection: the bridge between the collectives
/// and the tuned decision tables (src/tuning). Every selection helper
/// falls back to the legacy hardcoded thresholds when the profile has no
/// table, so profiles like "test" behave exactly as before tuning.
namespace minimpi::detail {

tuning::Shape comm_shape(const Comm& comm) {
    const int node0 = comm.node_of(0);
    for (int r = 1; r < comm.size(); ++r) {
        if (comm.node_of(r) != node0) return tuning::Shape::Net;
    }
    return tuning::Shape::Shm;
}

std::optional<tuning::Choice> tuned_choice(const Comm& comm, tuning::Op op,
                                           std::uint64_t bytes) {
    const tuning::DecisionTable* table = comm.ctx().tuned;
    if (table == nullptr) return std::nullopt;
    return table->lookup(op, comm_shape(comm), comm.size(), bytes);
}

void bcast_auto(const Comm& comm, void* buf, std::size_t bytes, int root) {
    if (comm.size() == 1) return;
    TraceSpan span(comm.ctx(), hytrace::Phase::Coll, "bcast");
    span.set_coll("Bcast");
    span.set_bytes(bytes);
    span.set_comm(comm.size(), comm.rank());
    if (auto c = tuned_choice(comm, tuning::Op::Bcast, bytes)) {
        if (c->algo == tuning::algo::kBcPipelined) {
            span.set_algo("pipelined_chain");
            bcast_pipelined_chain(comm, buf, bytes, root, c->segment_bytes);
        } else {
            span.set_algo("binomial");
            bcast_binomial(comm, buf, bytes, root);
        }
        return;
    }
    if (bytes <= comm.ctx().model->bcast_long_threshold) {
        span.set_algo("binomial");
        bcast_binomial(comm, buf, bytes, root);
    } else {
        span.set_algo("pipelined_chain");
        bcast_pipelined_chain(comm, buf, bytes, root);
    }
}

void barrier_auto(const Comm& comm) {
    TraceSpan span(comm.ctx(), hytrace::Phase::Sync, "barrier");
    span.set_coll("Barrier");
    span.set_comm(comm.size(), comm.rank());
    span.set_algo("dissemination");
    barrier_dissemination(comm);
}

}  // namespace minimpi::detail
