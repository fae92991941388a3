// hybench — the repository benchmark. One workload per invocation:
//
//   hybench --workload <allgather_irregular|summa_lookahead|service_churn>
//           [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//           [--spans-out FILE]
//
// Prints one "name value unit" line per metric, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// prints the end-to-end metrics, --trace 1 the per-layer ones. Exits 1 when
// any check failed, 2 on a usage error. hybench/run.py builds and drives it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

using namespace hybench;

int usage(const char* why) {
    std::fprintf(stderr,
                 "hybench: %s\nusage: hybench --workload "
                 "<allgather_irregular|summa_lookahead|service_churn> "
                 "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
                 "[--spans-out FILE]\n",
                 why);
    return 2;
}

bool parse(int argc, char** argv, Options& o, std::string& err) {
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (i + 1 >= argc) {
            err = "missing value for " + a;
            return false;
        }
        const char* v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &end);
        } else if (a == "--trace") {
            o.trace = std::strcmp(v, "1") == 0;
            if (!o.trace && std::strcmp(v, "0") != 0) end = const_cast<char*>(v);
        } else if (a == "--spans-out") {
            o.spans_out = v;
        } else {
            err = "unknown option " + a;
            return false;
        }
        if (end != nullptr && *end != '\0') {
            err = "bad value for " + a + ": " + v;
            return false;
        }
    }
    if (o.workload.empty()) {
        err = "--workload is required";
        return false;
    }
    if (!(o.seconds > 0.0)) {
        err = "--seconds must be positive";
        return false;
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    Options opts;
    std::string err;
    if (!parse(argc, argv, opts, err)) return usage(err.c_str());

    Report r;
    HostTrace host;
    try {
        if (opts.workload == "allgather_irregular") {
            run_allgather_irregular(opts, host, r);
        } else if (opts.workload == "summa_lookahead") {
            run_summa_lookahead(opts, host, r);
        } else if (opts.workload == "service_churn") {
            run_service_churn(opts, host, r);
        } else {
            return usage(("unknown workload " + opts.workload).c_str());
        }
    } catch (const std::exception& e) {
        r.error(std::string("workload aborted: ") + e.what());
    }
    if (r.attempted == 0) {
        r.attempted = 1;
        r.failed = 1;
        r.error("no op completed");
    }
    if (!opts.trace) {
        r.add("ops_ok_frac",
              1.0 - static_cast<double>(r.failed) / static_cast<double>(r.attempted),
              "ratio");
    }
    normalize(r, opts.trace ? kPerLayer : kEndToEnd);
    if (!opts.spans_out.empty() && !host.write_json(opts.spans_out)) {
        r.error("could not write " + opts.spans_out);
    }

    for (const Metric& m : r.metrics) {
        if (!std::isfinite(m.value)) r.error("metric " + m.name + " is not finite");
    }

    std::printf("# hybench workload=%s seed=%llu seconds=%g trace=%d%s\n",
                opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
                opts.seconds, opts.trace ? 1 : 0, opts.smoke ? " smoke" : "");
    std::printf("# ops attempted=%llu failed=%llu\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (const std::string& e : r.errors) std::printf("# error: %s\n", e.c_str());
    for (const Metric& m : r.metrics) {
        std::printf("%-40s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    const bool correct = r.errors.empty() && r.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}
