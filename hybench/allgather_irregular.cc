// allgather_irregular — paper Fig. 10 scaled to the host: Hy_Allgather
// (AllgatherChannel, Barrier and Flags sync, tuned bridge) against the flat
// minimpi::allgather on 8 irregularly populated nodes (7 x 12 + 1 x 8 = 92
// ranks, one socket per node, Cray profile, Real payloads). No compute: the
// host cost is all runtime wake-ups, hybrid sync and bridge traffic.

#include <memory>

#include "passes.h"
#include "hybrid/hympi.h"
#include "workloads.h"

namespace hybench {

namespace {

using hympi::AllgatherChannel;
using hympi::SyncPolicy;
using minimpi::Comm;

enum class Path { Barrier, Flags, Flat };

struct Step {
    std::size_t size_idx = 0;
    Path path = Path::Flat;
};

struct Schedule {
    std::vector<std::size_t> elems;  ///< doubles per rank, per sweep size
    std::vector<Step> ops;
};

/// Per size: `rounds` Barrier rounds, `rounds` Flags rounds, then as many
/// flat rounds as the two hybrid policies together.
Schedule make_schedule(bool smoke) {
    Schedule s;
    const std::size_t max_elems = smoke ? 16 : 2048;
    const int rounds = smoke ? 1 : 12;
    for (std::size_t e = 1; e <= max_elems; e *= 2) s.elems.push_back(e);
    for (std::size_t i = 0; i < s.elems.size(); ++i) {
        for (int k = 0; k < rounds; ++k) s.ops.push_back({i, Path::Barrier});
        for (int k = 0; k < rounds; ++k) s.ops.push_back({i, Path::Flags});
        for (int k = 0; k < 2 * rounds; ++k) s.ops.push_back({i, Path::Flat});
    }
    return s;
}

/// The seeded contribution of comm rank @p rank to op @p op.
std::uint64_t block_key(std::uint64_t seed, std::size_t op, int rank) {
    return mix64(seed ^ mix64((static_cast<std::uint64_t>(op) << 20) ^
                              static_cast<std::uint64_t>(rank)));
}

double element(std::uint64_t key, std::size_t k) {
    return static_cast<double>(mix64(key + k) >> 11) * 0x1p-53;
}

void fill(double* dst, std::size_t n, std::uint64_t key) {
    for (std::size_t k = 0; k < n; ++k) dst[k] = element(key, k);
}

bool check_full(const double* got, std::size_t n, std::uint64_t key) {
    for (std::size_t k = 0; k < n; ++k) {
        if (got[k] != element(key, k)) return false;
    }
    return true;
}

bool check_sampled(const double* got, std::size_t n, std::uint64_t key) {
    return got[0] == element(key, 0) && got[n - 1] == element(key, n - 1) &&
           got[n / 2] == element(key, n / 2);
}

const char* host_name(Path p) {
    switch (p) {
        case Path::Barrier: return "AllgatherChannel::run.barrier";
        case Path::Flags: return "AllgatherChannel::run.flags";
        case Path::Flat: return "minimpi::allgather";
    }
    return "?";
}

void spmd(Comm& world, PassCtx& pc, const Schedule& sched, std::uint64_t seed) {
    minimpi::RankCtx& ctx = world.ctx();
    const int me = world.rank();
    const int nranks = world.size();
    Ledger& led = pc.ledgers[static_cast<std::size_t>(me)];
    HostTrace* host = pc.host_for(world);

    const int setup_span = host ? host->begin("hybrid.setup", pc.pass_span) : -1;
    hympi::HierComm hc(world);
    // One channel per (size, sync policy): a channel's flag epochs belong
    // to the policy it runs under.
    std::vector<std::unique_ptr<AllgatherChannel>> barrier_ch, flags_ch;
    for (std::size_t e : sched.elems) {
        barrier_ch.push_back(std::make_unique<AllgatherChannel>(hc, e * sizeof(double)));
        flags_ch.push_back(std::make_unique<AllgatherChannel>(hc, e * sizeof(double)));
    }
    if (host) host->end(setup_span);
    const std::size_t max_elems = sched.elems.back();
    std::vector<double> send(max_elems);
    std::vector<double> recv(max_elems * static_cast<std::size_t>(nranks));
    const int shm_rank = hc.shm().rank();
    const int shm_size = hc.shm().size();

    minimpi::barrier(world);
    if (me == 0) pc.mark_ready();

    for (std::size_t op = 0; op < sched.ops.size(); ++op) {
        const Step& st = sched.ops[op];
        const std::size_t n = sched.elems[st.size_idx];
        if (st.path == Path::Flat) {
            fill(send.data(), n, block_key(seed, op, me));
            {
                OpTimer t(ctx, led, op, kOri, host, host_name(st.path), pc.pass_span);
                minimpi::allgather(world, send.data(), n, recv.data(),
                                   minimpi::Datatype::Double);
            }
            // Every rank samples every block; one rank per op reads all.
            const bool full = static_cast<int>(op % static_cast<std::size_t>(nranks)) == me;
            for (int j = 0; j < nranks; ++j) {
                const double* got = recv.data() + static_cast<std::size_t>(j) * n;
                const std::uint64_t key = block_key(seed, op, j);
                if (!(full ? check_full(got, n, key) : check_sampled(got, n, key))) {
                    led.bad[op] = 1;
                }
            }
            continue;
        }
        const SyncPolicy policy =
            st.path == Path::Flags ? SyncPolicy::Flags : SyncPolicy::Barrier;
        AllgatherChannel& ch = st.path == Path::Flags ? *flags_ch[st.size_idx]
                                                      : *barrier_ch[st.size_idx];
        fill(reinterpret_cast<double*>(ch.my_block()), n, block_key(seed, op, me));
        {
            OpTimer t(ctx, led, op, kHy, host, host_name(st.path), pc.pass_span);
            ch.run(policy, hympi::BridgeAlgo::Auto);
        }
        // The node-shared result is read in full once per node: the node's
        // ranks split the blocks between them.
        for (int j = shm_rank; j < nranks; j += shm_size) {
            const double* got = reinterpret_cast<const double*>(ch.block_of(j));
            if (!check_full(got, n, block_key(seed, op, j))) led.bad[op] = 1;
        }
        ch.quiesce(policy);
    }

    minimpi::barrier(world);
    if (me == 0) pc.mark_done();
}

}  // namespace

void run_allgather_irregular(const Options& opts, HostTrace& host, Report& r) {
    const minimpi::ClusterSpec cluster =
        minimpi::ClusterSpec::irregular({12, 12, 12, 12, 12, 12, 12, 8});
    const Schedule sched = make_schedule(opts.smoke);
    const std::uint64_t seed = opts.seed;
    const Series s = run_passes(opts, r, cluster, sched.ops.size(), host,
                                [&](Comm& world, PassCtx& pc) {
                                    spmd(world, pc, sched, seed);
                                });
    const PassResult* f = s.first();
    if (f == nullptr || f->threw) return;
    const PassOps& ops = f->ops;
    const double hy = ops.sum(kHy);
    const double ori = ops.sum(kOri);
    double all = 0.0;
    for (double v : ops.vt) all += v;
    if (!opts.trace) {
        r.add("vt_hy_us", hy, "us");
        r.add("vt_ori_us", ori, "us");
        r.add("vt_job_p50_us", percentile(ops.vt, 50.0), "us");
        r.add("vt_job_p99_us", percentile(ops.vt, 99.0), "us");
        r.add("vt_ops_per_s", static_cast<double>(ops.vt.size()) / (all * 1e-6), "1/s");
        add_host_end_to_end(r, untraced_costs(s));
        return;
    }
    add_series_layer_metrics(r, s);
    add_host_layer_metrics(r, untraced_costs(s), cluster, 128);
    r.add("vt_job.samples", static_cast<double>(ops.vt.size()), "count");
    r.add("hybrid.ori_over_hy", ori / hy, "ratio");
    auto host_pct = [&](const char* span, double p) {
        return percentile(host.durations_us(span, s.host_first, s.host_last), p);
    };
    r.add("minimpi.allgather_host_us.p50", host_pct("minimpi::allgather", 50), "us");
    r.add("minimpi.allgather_host_us.p99", host_pct("minimpi::allgather", 99), "us");
    r.add("minimpi.allgather_host_us.n",
          static_cast<double>(
              host.durations_us("minimpi::allgather", s.host_first, s.host_last).size()),
          "count");
    r.add("hybrid.run_host_us.barrier.p50", host_pct("AllgatherChannel::run.barrier", 50), "us");
    r.add("hybrid.run_host_us.barrier.p99", host_pct("AllgatherChannel::run.barrier", 99), "us");
    r.add("hybrid.run_host_us.flags.p50", host_pct("AllgatherChannel::run.flags", 50), "us");
    r.add("hybrid.run_host_us.flags.p99", host_pct("AllgatherChannel::run.flags", 99), "us");
    r.add("hybrid.setup_host_ms",
          median(host.durations_us("hybrid.setup", s.host_first, s.host_last)) * 1e-3,
          "ms");
}

}  // namespace hybench
