#include "service/service.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "bench_util/latency.h"
#include "hybrid/hympi.h"
#include "minimpi/trace_span.h"
#include "robust/checksum.h"

namespace service {

using minimpi::Comm;
using minimpi::PayloadMode;
using minimpi::QosPolicy;
using minimpi::RankCtx;
using minimpi::Runtime;
using minimpi::TenantState;
using minimpi::VTime;

namespace {

using hympi::robust::fill_pattern;
using hympi::robust::mix64;
using hympi::robust::WordFold;

/// Uniform in [0, 1) with a 53-bit dyadic-rational mantissa — exact in
/// IEEE double arithmetic, so schedules are byte-stable across platforms.
/// Every random choice in the service is a pure function of (cfg.seed,
/// tenant, draw index), never of host scheduling.
double u01(std::uint64_t x) {
    return static_cast<double>(mix64(x) >> 11) * 0x1.0p-53;
}

/// Host-side coordination of one job: the member ranks meet here to create
/// the job comm (a registry op — a world-collective split would couple
/// EVERY tenant's clock through the rendezvous max, destroying the
/// concurrency the scenario exists to measure) and to deposit their finish
/// clocks and digests.
struct JobSlot {
    std::mutex mu;
    minimpi::detail::WaitSite site;  ///< members waiting for the job comm
    minimpi::CommState* child = nullptr;
    int arrived = 0;
    VTime max_clock = 0.0;
    std::vector<VTime> finish;           ///< per member position
    std::vector<std::uint64_t> digest;   ///< per member position
};

int member_pos(const std::vector<int>& members, int world_rank) {
    const auto it =
        std::lower_bound(members.begin(), members.end(), world_rank);
    if (it == members.end() || *it != world_rank) return -1;
    return static_cast<int>(it - members.begin());
}

/// Create-or-join the job communicator. Members sync clocks to the max of
/// their entry clocks + the usual one-off coordination cost, exactly like
/// Comm::split, but scoped to the job's members only.
Comm join_job_comm(Runtime& rt, Comm& world, const JobSpec& job, JobSlot& slot,
                   int mpos) {
    RankCtx& ctx = world.ctx();
    const int n = static_cast<int>(job.members.size());
    {
        std::lock_guard<std::mutex> lk(slot.mu);
        slot.max_clock = std::max(slot.max_clock, ctx.clock.now());
        if (++slot.arrived == n) {
            slot.child = rt.create_comm(job.members, &world.state());
            slot.site.notify_all();
        }
    }
    // A peer that aborts never arrives; the poison wakes this wait.
    VTime max_clock = 0.0;
    const minimpi::detail::WaitDesc at =
        minimpi::detail::WaitDesc::service_join(
            job.tenant, static_cast<std::uint64_t>(job.index));
    minimpi::detail::block_until(
        minimpi::detail::waiter_of(ctx), slot.mu, slot.site, at, [&] {
            max_clock = slot.max_clock;
            return slot.child != nullptr;
        });
    ctx.clock.sync_to(max_clock);
    ctx.clock.advance(rt.one_off_sync_cost(n));
    return Comm(slot.child, &ctx, mpos);
}

/// Execute one job on its (already created) comm: the seeded op stream,
/// folding every result buffer into the member's digest in Real mode. The
/// control flow of modelled operations is payload-mode independent, so
/// Real (isolation-oracle) and SizeOnly (bench) runs see identical clocks.
/// @p sendbuf and @p recvbuf belong to the calling rank and outlive the
/// job, so their capacity carries over from one job to the next; every op
/// sizes and fills them before use, the unbatched allreduce included.
std::uint64_t run_ops(const ServiceConfig& cfg, Comm& jc, const JobSpec& job,
                      int mpos, std::vector<std::byte>& sendbuf,
                      std::vector<std::byte>& recvbuf) {
    const bool real = cfg.payload == PayloadMode::Real;
    const int n = jc.size();
    WordFold digest(WordFold::kOffset ^ mix64(job.seed));

    std::optional<hympi::HierComm> hc;
    std::optional<hympi::AllgatherChannel> chan;
    std::optional<hympi::CollBatcher> batcher;

    // Deferred results of batched ops, folded into the digest in op order
    // at the next drain point (a barrier, a channel allgather, or job end)
    // so the digest stream is byte-identical to the unbatched run's.
    struct Posted {
        OpKind kind = OpKind::Barrier;
        std::size_t cnt = 0;
        std::vector<std::byte> send, recv;
        std::vector<double> rin, rout;
        minimpi::CollRequest req;
    };
    std::vector<Posted> posted;
    auto drain = [&] {
        for (Posted& p : posted) p.req.wait();
        for (const Posted& p : posted) {
            if (!real) break;
            if (p.kind == OpKind::Allreduce) {
                digest.update(p.rout.data(), p.cnt * sizeof(double));
            } else {
                digest.update(p.recv.data(), p.recv.size());
            }
        }
        posted.clear();
    };
    const bool batching = cfg.batch_small && job.hybrid;
    if (batching) {
        hc.emplace(jc);
        batcher.emplace(*hc);
    }

    for (std::size_t oi = 0; oi < job.ops.size(); ++oi) {
        const OpSpec& op = job.ops[oi];
        const std::uint64_t salt = (oi + 1) << 16;
        switch (op.kind) {
            case OpKind::Barrier:
                drain();  // a barrier closes the batch window by intent
                minimpi::barrier(jc);
                break;
            case OpKind::Bcast: {
                const int root = (job.index + static_cast<int>(oi)) % n;
                if (batching && op.bytes <= cfg.small_bytes) {
                    Posted p;
                    p.kind = OpKind::Bcast;
                    if (real) {
                        p.recv.assign(op.bytes, std::byte{0});
                        if (mpos == root) {
                            fill_pattern(p.recv.data(), op.bytes, job.seed,
                                         salt);
                        }
                    }
                    p.req = batcher->post_bcast(
                        real ? p.recv.data() : nullptr, op.bytes, root);
                    posted.push_back(std::move(p));
                    break;
                }
                if (batching) {
                    // Large op: bypass the batcher entirely (the size gate
                    // keeps the open window intact instead of forcing a
                    // flush), but its digest fold must stay in op order
                    // with the deferred batched results — run it now and
                    // fold at the next drain via an already-complete
                    // Posted entry (its default req waits as a no-op).
                    Posted p;
                    p.kind = OpKind::Bcast;
                    if (real) {
                        p.recv.assign(op.bytes, std::byte{0});
                        if (mpos == root) {
                            fill_pattern(p.recv.data(), op.bytes, job.seed,
                                         salt);
                        }
                    }
                    minimpi::bcast(jc, real ? p.recv.data() : nullptr,
                                   op.bytes, minimpi::Datatype::Byte, root);
                    posted.push_back(std::move(p));
                    break;
                }
                if (real) {
                    recvbuf.assign(op.bytes, std::byte{0});
                    if (mpos == root) {
                        fill_pattern(recvbuf.data(), op.bytes, job.seed,
                                     salt);
                    }
                    minimpi::bcast(jc, recvbuf.data(), op.bytes,
                                   minimpi::Datatype::Byte, root);
                    digest.update(recvbuf.data(), op.bytes);
                } else {
                    minimpi::bcast(jc, nullptr, op.bytes,
                                   minimpi::Datatype::Byte, root);
                }
                break;
            }
            case OpKind::Allgather: {
                if (batching && op.bytes <= cfg.small_bytes) {
                    Posted p;
                    p.kind = OpKind::Allgather;
                    if (real) {
                        p.send.resize(op.bytes);
                        fill_pattern(p.send.data(), op.bytes, job.seed,
                                     salt + static_cast<std::uint64_t>(mpos));
                        p.recv.assign(op.bytes * static_cast<std::size_t>(n),
                                      std::byte{0});
                    }
                    p.req = batcher->post_allgather(
                        real ? p.send.data() : nullptr, op.bytes,
                        real ? p.recv.data() : nullptr);
                    posted.push_back(std::move(p));
                    break;
                }
                if (job.hybrid) {
                    // The channel folds its digest inline, so pending
                    // batched results must land first to keep fold order.
                    drain();
                    if (!chan) {
                        if (!hc) hc.emplace(jc);
                        chan.emplace(*hc, op.bytes);
                    }
                    if (real) {
                        fill_pattern(chan->my_block(), op.bytes, job.seed,
                                     salt + static_cast<std::uint64_t>(mpos));
                    }
                    chan->run();
                    if (real) {
                        for (int r = 0; r < n; ++r) {
                            digest.update(chan->block_of(r),
                                          chan->block_size(r));
                        }
                    }
                    // Read phase over; the next iteration rewrites
                    // my_block, so the node must quiesce in between.
                    chan->quiesce();
                } else {
                    if (real) {
                        sendbuf.resize(op.bytes);
                        fill_pattern(sendbuf.data(), op.bytes, job.seed,
                                     salt + static_cast<std::uint64_t>(mpos));
                        recvbuf.assign(op.bytes * static_cast<std::size_t>(n),
                                       std::byte{0});
                    }
                    minimpi::allgather(jc, real ? sendbuf.data() : nullptr,
                                       op.bytes,
                                       real ? recvbuf.data() : nullptr,
                                       minimpi::Datatype::Byte);
                    if (real) digest.update(recvbuf.data(), recvbuf.size());
                }
                break;
            }
            case OpKind::Allreduce: {
                const std::size_t cnt = std::max<std::size_t>(1, op.bytes / 8);
                if (batching) {
                    Posted p;
                    p.kind = OpKind::Allreduce;
                    p.cnt = cnt;
                    if (real) {
                        p.rin.resize(cnt);
                        for (std::size_t k = 0; k < cnt; ++k) {
                            p.rin[k] = static_cast<double>(
                                mix64(job.seed ^ salt ^
                                      (static_cast<std::uint64_t>(mpos)
                                       << 32) ^
                                      k) &
                                0xFF);
                        }
                        p.rout.assign(cnt, 0.0);
                    }
                    if (op.bytes <= cfg.small_bytes) {
                        p.req = batcher->post_allreduce(
                            real ? p.rin.data() : nullptr,
                            real ? p.rout.data() : nullptr, cnt,
                            minimpi::Datatype::Double, minimpi::Op::Sum);
                    } else {
                        // Large op: bypass the batcher (same size gate as
                        // the allgather/bcast paths — no forced window
                        // flush); the complete Posted entry keeps the
                        // digest fold in op order at the next drain.
                        minimpi::allreduce(jc, real ? p.rin.data() : nullptr,
                                           real ? p.rout.data() : nullptr,
                                           cnt, minimpi::Datatype::Double,
                                           minimpi::Op::Sum);
                    }
                    posted.push_back(std::move(p));
                    break;
                }
                if (real) {
                    // Small-integer-valued doubles: the sum over members is
                    // exact regardless of the reduction algorithm's
                    // association order. The operands live in the rank's
                    // byte buffers (operator new aligns them for double).
                    sendbuf.resize(cnt * sizeof(double));
                    recvbuf.assign(cnt * sizeof(double), std::byte{0});
                    for (std::size_t k = 0; k < cnt; ++k) {
                        const double v = static_cast<double>(
                            mix64(job.seed ^ salt ^
                                  (static_cast<std::uint64_t>(mpos) << 32) ^ k) &
                            0xFF);
                        std::memcpy(sendbuf.data() + k * sizeof v, &v,
                                    sizeof v);
                    }
                    minimpi::allreduce(jc, sendbuf.data(), recvbuf.data(),
                                       cnt, minimpi::Datatype::Double,
                                       minimpi::Op::Sum);
                    digest.update(recvbuf.data(), recvbuf.size());
                } else {
                    minimpi::allreduce(jc, nullptr, nullptr, cnt,
                                       minimpi::Datatype::Double,
                                       minimpi::Op::Sum);
                }
                break;
            }
        }
    }
    drain();
    return digest.digest();
}

}  // namespace

const char* op_name(OpKind k) {
    switch (k) {
        case OpKind::Allgather: return "allgather";
        case OpKind::Allreduce: return "allreduce";
        case OpKind::Bcast: return "bcast";
        case OpKind::Barrier: return "barrier";
    }
    return "?";
}

const char* qos_name(QosPolicy q) {
    return q == QosPolicy::WeightedShares ? "weighted" : "fifo";
}

QosPolicy qos_from_env(QosPolicy fallback) {
    const char* e = std::getenv("HYMPI_QOS");
    if (e == nullptr || e[0] == '\0') return fallback;
    if (std::strcmp(e, "fifo") == 0) return QosPolicy::Fifo;
    if (std::strcmp(e, "weighted") == 0 || std::strcmp(e, "wfq") == 0) {
        return QosPolicy::WeightedShares;
    }
    std::fprintf(stderr,
                 "service: unrecognized HYMPI_QOS=%s (want fifo|weighted); "
                 "keeping %s\n",
                 e, qos_name(fallback));
    return fallback;
}

double ServiceConfig::weight_of(int tenant) const {
    if (tenant < 0) return 1.0;
    const auto i = static_cast<std::size_t>(tenant);
    return i < weights.size() ? weights[i] : 1.0;
}

double ServiceConfig::total_weight() const {
    double t = 0.0;
    for (int i = 0; i < tenants; ++i) t += weight_of(i);
    return t > 0.0 ? t : 1.0;
}

std::vector<JobSpec> build_schedule(const ServiceConfig& cfg) {
    const int world = cfg.nodes * cfg.ppn;
    std::vector<JobSpec> jobs;
    for (int t = 0; t < cfg.tenants; ++t) {
        if (cfg.only_tenant >= 0 && t != cfg.only_tenant) continue;
        // Per-tenant independent stream: filtering to one tenant (the solo
        // run of the isolation oracle) reproduces its arrivals, members and
        // ops exactly.
        const std::uint64_t base = mix64(
            cfg.seed ^ (static_cast<std::uint64_t>(t + 1) * 0x9e3779b97f4a7c15ULL));
        std::uint64_t k = 0;
        auto draw = [&] { return u01(base + k++); };
        VTime arrival = 0.0;
        for (int j = 0; j < cfg.jobs_per_tenant; ++j) {
            JobSpec job;
            job.tenant = t;
            job.index = j;
            job.seed = mix64(base ^ (0xABCDULL + static_cast<std::uint64_t>(j)));
            // Open-loop arrivals: uniform gaps in [0.25, 1.75) * mean.
            arrival += cfg.mean_gap_us * (0.25 + 1.5 * draw());
            job.arrival = arrival;
            // Wrap-around contiguous member block from a seeded offset:
            // tenants share ranks with high probability, which is what
            // makes them contend for the same outgoing links.
            const int span =
                2 + static_cast<int>(draw() * static_cast<double>(world - 1));
            const int start = static_cast<int>(draw() * world) % world;
            job.members.reserve(static_cast<std::size_t>(std::min(span, world)));
            for (int i = 0; i < std::min(span, world); ++i) {
                job.members.push_back((start + i) % world);
            }
            std::sort(job.members.begin(), job.members.end());
            const bool large = draw() < cfg.large_fraction;
            const std::size_t block = large ? cfg.large_bytes : cfg.small_bytes;
            const bool want_hybrid = draw() < cfg.hybrid_fraction;
            // Regular clusters place ranks node-contiguously (SMP), so the
            // node of world rank r is r / ppn.
            const int first_node = job.members.front() / cfg.ppn;
            const int last_node = job.members.back() / cfg.ppn;
            job.hybrid = want_hybrid && first_node != last_node;
            const int nops =
                cfg.min_ops +
                static_cast<int>(draw() *
                                 static_cast<double>(cfg.max_ops - cfg.min_ops + 1));
            for (int o = 0; o < nops; ++o) {
                OpSpec op;
                switch (static_cast<int>(draw() * 4.0) % 4) {
                    case 0: op.kind = OpKind::Allgather; op.bytes = block; break;
                    case 1:
                        op.kind = OpKind::Allreduce;
                        op.bytes = std::max<std::size_t>(8, block & ~std::size_t{7});
                        break;
                    case 2: op.kind = OpKind::Bcast; op.bytes = block; break;
                    default: op.kind = OpKind::Barrier; op.bytes = 0; break;
                }
                job.ops.push_back(op);
            }
            jobs.push_back(std::move(job));
        }
    }
    // The global execution order every rank walks identically — overlapping
    // member sets process their shared jobs in the same relative order, so
    // the schedule is deadlock-free by construction.
    std::sort(jobs.begin(), jobs.end(), [](const JobSpec& a, const JobSpec& b) {
        if (a.arrival != b.arrival) return a.arrival < b.arrival;
        if (a.tenant != b.tenant) return a.tenant < b.tenant;
        return a.index < b.index;
    });
    return jobs;
}

ServiceResult run_service(const ServiceConfig& cfg) {
    const std::vector<JobSpec> schedule = build_schedule(cfg);
    const QosPolicy policy = cfg.use_env ? qos_from_env(cfg.qos) : cfg.qos;
    const double total_w = cfg.total_weight();

    const minimpi::ClusterSpec cs = minimpi::ClusterSpec::regular(cfg.nodes, cfg.ppn);
    const int nranks = cs.total_ranks();
    Runtime rt(cs, cfg.model, cfg.payload);

    std::vector<TenantState> tstates(static_cast<std::size_t>(nranks));
    std::deque<JobSlot> slots(schedule.size());
    for (std::size_t j = 0; j < schedule.size(); ++j) {
        slots[j].finish.assign(schedule[j].members.size(), 0.0);
        slots[j].digest.assign(schedule[j].members.size(), 0);
    }

    rt.run([&](Comm& world) {
        RankCtx& ctx = world.ctx();
        const int w = world.to_world();
        TenantState& ts = tstates[static_cast<std::size_t>(w)];
        ts = TenantState{};
        ts.policy = policy;
        ts.total_weight = total_w;
        ts.bridge_bytes.assign(static_cast<std::size_t>(cfg.tenants), 0);
        ts.bridge_msgs.assign(static_cast<std::size_t>(cfg.tenants), 0);
        ctx.tenant = &ts;
        // Tenant of the last job this rank executed — the owner of the
        // rank's admission backlog.
        int admit_owner = -2;
        // The rank's unbatched op buffers, reused by every job it runs.
        std::vector<std::byte> sendbuf, recvbuf;
        for (std::size_t j = 0; j < schedule.size(); ++j) {
            const JobSpec& job = schedule[j];
            const int mpos = member_pos(job.members, w);
            if (mpos < 0) continue;
            // Open loop: the job is offered at its arrival regardless of
            // cluster state; a rank still busy with an earlier job simply
            // starts late and the delay lands in completion latency.
            ctx.clock.sync_to(job.arrival);
            if (ts.policy == QosPolicy::WeightedShares &&
                admit_owner != job.tenant) {
                // Weighted admission arbitration. The clock being past the
                // arrival is the rank's queueing backlog — time spent on
                // OTHER tenants' jobs (collective create/free rendezvous
                // max-sync member clocks past every modelled arrival, so
                // per-link backlog can never survive a job boundary; the
                // admission queue is where tenants genuinely wait on each
                // other). Weighted shares model preemptive arbitration of
                // that queue: the tenant's share of the backlog interval is
                // granted to it, so only the remaining fraction is waited.
                // Same-tenant backlog keeps the full FIFO wait (a tenant
                // cannot preempt its own queue), mirroring the per-send NIC
                // arbiter in minimpi::detail::tenant_bridge_start.
                const VTime backlog = ctx.clock.now() - job.arrival;
                if (backlog > 0.0) {
                    ctx.clock.set(job.arrival +
                                  backlog *
                                      (1.0 - cfg.weight_of(job.tenant) /
                                                 total_w));
                }
            }
            admit_owner = job.tenant;
            ts.tenant = job.tenant;
            ts.weight = cfg.weight_of(job.tenant);
            {
                minimpi::TraceSpan sp(ctx, hytrace::Phase::Coll, "tenant_job");
                sp.set_coll("service_job");
                sp.set_peer(job.tenant);
                sp.set_comm(static_cast<int>(job.members.size()), mpos);
                sp.set_bytes(job.total_bytes());
                Comm jc = join_job_comm(rt, world, job, slots[j], mpos);
                const std::uint64_t digest =
                    run_ops(cfg, jc, job, mpos, sendbuf, recvbuf);
                jc.free();
                slots[j].finish[static_cast<std::size_t>(mpos)] =
                    ctx.clock.now();
                slots[j].digest[static_cast<std::size_t>(mpos)] = digest;
                HYTRACE_COUNTER(ctx, tenant_jobs, 1);
            }
            ts.tenant = -1;
            ts.weight = 1.0;
        }
        ctx.tenant = nullptr;
    });

    ServiceResult res;
    res.qos = policy;
    res.jobs.reserve(schedule.size());
    VTime first_arrival = 0.0, last_finish = 0.0;
    std::vector<std::vector<double>> lat_by_tenant(
        static_cast<std::size_t>(cfg.tenants));
    std::vector<double> lat_all;
    for (std::size_t j = 0; j < schedule.size(); ++j) {
        const JobSpec& job = schedule[j];
        JobResult r;
        r.tenant = job.tenant;
        r.index = job.index;
        r.arrival = job.arrival;
        r.ops = static_cast<int>(job.ops.size());
        std::uint64_t h = 1099511628211ULL;
        for (std::size_t m = 0; m < job.members.size(); ++m) {
            r.finish = std::max(r.finish, slots[j].finish[m]);
            h = mix64(h ^ slots[j].digest[m]);
        }
        r.digest = h;
        r.latency_us = r.finish - r.arrival;
        if (j == 0 || job.arrival < first_arrival) first_arrival = job.arrival;
        last_finish = std::max(last_finish, r.finish);
        lat_by_tenant[static_cast<std::size_t>(job.tenant)].push_back(
            r.latency_us);
        lat_all.push_back(r.latency_us);
        res.total_ops += static_cast<std::uint64_t>(r.ops);
        res.jobs.push_back(r);
    }
    res.total_jobs = static_cast<int>(res.jobs.size());
    res.makespan_us = last_finish - first_arrival;
    res.ops_per_sec = res.makespan_us > 0.0
                          ? static_cast<double>(res.total_ops) * 1e6 /
                                res.makespan_us
                          : 0.0;
    res.p50_us = benchu::percentile(lat_all, 50.0);
    res.p99_us = benchu::percentile(lat_all, 99.0);

    for (int t = 0; t < cfg.tenants; ++t) {
        if (cfg.only_tenant >= 0 && t != cfg.only_tenant) continue;
        TenantMetrics m;
        m.tenant = t;
        m.weight = cfg.weight_of(t);
        const auto& lat = lat_by_tenant[static_cast<std::size_t>(t)];
        m.jobs = static_cast<int>(lat.size());
        double sum = 0.0;
        for (double v : lat) {
            sum += v;
            m.max_us = std::max(m.max_us, v);
        }
        m.mean_us = lat.empty() ? 0.0 : sum / static_cast<double>(lat.size());
        m.p50_us = benchu::percentile(lat, 50.0);
        m.p99_us = benchu::percentile(lat, 99.0);
        for (const JobResult& r : res.jobs) {
            if (r.tenant == t) m.ops += static_cast<std::uint64_t>(r.ops);
        }
        for (const TenantState& ts : tstates) {
            m.bridge_bytes += ts.bridge_bytes[static_cast<std::size_t>(t)];
            m.bridge_msgs += ts.bridge_msgs[static_cast<std::size_t>(t)];
        }
        res.tenants.push_back(m);
    }
    return res;
}

std::string verify_isolation(ServiceConfig cfg) {
    cfg.payload = PayloadMode::Real;
    cfg.use_env = false;  // the oracle pins its own policy
    cfg.only_tenant = -1;
    const ServiceResult full = run_service(cfg);
    for (int t = 0; t < cfg.tenants; ++t) {
        ServiceConfig solo = cfg;
        solo.only_tenant = t;
        const ServiceResult alone = run_service(solo);
        std::map<int, const JobResult*> solo_jobs;
        for (const JobResult& r : alone.jobs) solo_jobs[r.index] = &r;
        for (const JobResult& r : full.jobs) {
            if (r.tenant != t) continue;
            const auto it = solo_jobs.find(r.index);
            if (it == solo_jobs.end()) {
                return "tenant " + std::to_string(t) + " job " +
                       std::to_string(r.index) + " missing from its solo run";
            }
            if (it->second->digest != r.digest) {
                char buf[160];
                std::snprintf(buf, sizeof buf,
                              "tenant %d job %d payload diverged under "
                              "contention: solo digest %016llx vs "
                              "concurrent %016llx",
                              t, r.index,
                              static_cast<unsigned long long>(
                                  it->second->digest),
                              static_cast<unsigned long long>(r.digest));
                return buf;
            }
        }
    }
    return "";
}

namespace {

void write_num(std::ostream& os, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    os << buf;
}

}  // namespace

bool ServiceResult::write_json(const std::string& path,
                               const ServiceConfig& cfg) const {
    std::ofstream os(path, std::ios::trunc);
    if (!os) return false;
    os << "{\n  \"service\": {\n"
       << "    \"qos\": \"" << qos_name(qos) << "\",\n"
       << "    \"profile\": \"" << cfg.model.name << "\",\n"
       << "    \"seed\": " << cfg.seed << ",\n"
       << "    \"cluster\": {\"nodes\": " << cfg.nodes
       << ", \"ppn\": " << cfg.ppn << "},\n"
       << "    \"total\": {\"jobs\": " << total_jobs << ", \"ops\": "
       << total_ops << ", \"makespan_us\": ";
    write_num(os, makespan_us);
    os << ", \"ops_per_sec\": ";
    write_num(os, ops_per_sec);
    os << ", \"p50_us\": ";
    write_num(os, p50_us);
    os << ", \"p99_us\": ";
    write_num(os, p99_us);
    os << "},\n    \"tenants\": [\n";
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const TenantMetrics& m = tenants[i];
        os << "      {\"tenant\": " << m.tenant << ", \"weight\": ";
        write_num(os, m.weight);
        os << ", \"jobs\": " << m.jobs << ", \"ops\": " << m.ops
           << ", \"mean_us\": ";
        write_num(os, m.mean_us);
        os << ", \"p50_us\": ";
        write_num(os, m.p50_us);
        os << ", \"p99_us\": ";
        write_num(os, m.p99_us);
        os << ", \"max_us\": ";
        write_num(os, m.max_us);
        os << ", \"bridge_bytes\": " << m.bridge_bytes
           << ", \"bridge_msgs\": " << m.bridge_msgs << "}"
           << (i + 1 < tenants.size() ? ",\n" : "\n");
    }
    os << "    ]\n  }\n}\n";
    return os.good();
}

}  // namespace service
