// Standalone driver for the randomized differential conformance harness.
//
//   conformance_fuzz --seed N [--cases M] [--no-faults] [--kill]
//                    [--service K] [--list]
//
// Reproduces exactly the case stream a failing CI run reports: same seed,
// same cases, same order. --kill additionally samples the kill-injection
// dimension (process failure + ULFM detect/agree/shrink recovery, checked
// against the survivor-equivalence oracle); the extra draws come after all
// base draws, so a seed's base cases are identical with and without it.
// --service K appends K multi-tenant isolation cases: each runs 2-4
// concurrent tenants through the collective service with real payloads and
// asserts every tenant's per-job digests are byte-identical to the same
// tenant running solo (cross-tenant contention may reorder time, never
// bytes). --list prints each case spec without running it (useful to
// eyeball what a seed covers). Before running a case it prints that case's
// --list line to stderr, flushed, so a run that is killed or hangs names its
// case. Exit code 0 = all cases passed.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "conformance/conformance.h"
#include "service/service.h"

namespace {

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--seed N] [--cases M] [--no-faults] [--kill]"
                 " [--service K] [--list]\n",
                 argv0);
}

/// The K-th multi-tenant isolation case for a fuzz seed: small clusters so
/// wall time stays in budget, tenant count cycling through 2..4, both
/// vendor profiles, and per-case service seeds spread by an odd multiplier
/// so nightly runs with distinct --seed values never resample a stream.
service::ServiceConfig service_case(std::uint64_t seed, int k) {
    service::ServiceConfig cfg;
    cfg.seed = seed * 1000003ULL + static_cast<std::uint64_t>(k);
    cfg.tenants = 2 + (k % 3);
    cfg.nodes = 3 + (k % 2);
    cfg.ppn = 2;
    cfg.jobs_per_tenant = 3;
    cfg.mean_gap_us = 150.0;
    cfg.large_fraction = (k % 2 == 0) ? 0.25 : 0.5;
    cfg.hybrid_fraction = 0.5;
    cfg.model = (k % 2 == 0) ? minimpi::ModelParams::cray()
                             : minimpi::ModelParams::openmpi();
    cfg.qos = (k % 2 == 0) ? minimpi::QosPolicy::Fifo
                           : minimpi::QosPolicy::WeightedShares;
    return cfg;
}

/// A case's one-line description: --list prints it to stdout, and a run
/// prints it to stderr (flushed) just before the case starts.
void print_case(std::FILE* out, int i, const conformance::CaseSpec& spec) {
    std::fprintf(out, "case %4d: %s\n", i, spec.describe().c_str());
    std::fflush(out);
}

void print_service_case(std::FILE* out, int i,
                        const service::ServiceConfig& cfg) {
    std::fprintf(out,
                 "service case %4d: %d tenants on %dx%d, seed=%llu, qos=%s\n",
                 i, cfg.tenants, cfg.nodes, cfg.ppn,
                 static_cast<unsigned long long>(cfg.seed),
                 service::qos_name(cfg.qos));
    std::fflush(out);
}

}  // namespace

int main(int argc, char** argv) {
    std::uint64_t seed = 1;
    int cases = 200;
    int service_cases = 0;
    bool with_faults = true;
    bool with_kills = false;
    bool list_only = false;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(argv[i], "--cases") == 0 && i + 1 < argc) {
            cases = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--service") == 0 && i + 1 < argc) {
            service_cases = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--no-faults") == 0) {
            with_faults = false;
        } else if (std::strcmp(argv[i], "--kill") == 0) {
            with_kills = true;
        } else if (std::strcmp(argv[i], "--list") == 0) {
            list_only = true;
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    if (list_only) {
        for (int i = 0; i < cases; ++i) {
            print_case(stdout, i,
                       conformance::generate_case(seed, i, with_faults,
                                                  with_kills));
        }
        for (int i = 0; i < service_cases; ++i) {
            print_service_case(stdout, i, service_case(seed, i));
        }
        return 0;
    }

    if (cases > 0) {
        const auto report = conformance::run_random_cases(
            seed, cases, with_faults, with_kills,
            [](int i, const conformance::CaseSpec& spec) {
                print_case(stderr, i, spec);
            });
        if (report.failures != 0) {
            std::fprintf(stderr, "conformance FAILURE after %d cases:\n%s\n",
                         report.cases, report.first_failure.c_str());
            return 1;
        }
        std::printf("conformance: %d/%d cases passed (seed=%llu)\n",
                    report.cases, cases,
                    static_cast<unsigned long long>(seed));
    }

    for (int i = 0; i < service_cases; ++i) {
        const auto cfg = service_case(seed, i);
        print_service_case(stderr, i, cfg);
        const std::string err = service::verify_isolation(cfg);
        if (!err.empty()) {
            std::fprintf(stderr,
                         "conformance FAILURE in service isolation case %d "
                         "(%d tenants, seed=%llu):\n%s\n",
                         i, cfg.tenants,
                         static_cast<unsigned long long>(cfg.seed),
                         err.c_str());
            return 1;
        }
    }
    if (service_cases > 0) {
        std::printf(
            "conformance: %d/%d service isolation cases passed (seed=%llu)\n",
            service_cases, service_cases,
            static_cast<unsigned long long>(seed));
    }
    return 0;
}
