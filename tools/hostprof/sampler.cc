// hostprof sampler: a preloadable SIGPROF profiler for any binary of this
// repository (or any other dynamically linked program).
//
//   HOSTPROF_OUT=prof.txt LD_PRELOAD=libhostprof.so ./program [args]
//   python3 tools/hostprof/hostprof.py report prof.txt
//
// Without HOSTPROF_OUT the library does nothing. With it, a process-wide
// ITIMER_PROF timer sends SIGPROF every millisecond of CPU time (at most
// once per kernel tick); each signal records the interrupted user PC. CPU time of every
// thread counts, system time included: a sample taken in the kernel lands
// on the instruction after the syscall. At exit the library writes its
// header, a copy of /proc/self/maps and one hexadecimal PC per line to
// HOSTPROF_OUT; hostprof.py maps them to symbols.

#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#if !defined(__x86_64__)
#error "hostprof reads the x86-64 program counter (REG_RIP)"
#endif

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 22;  // 32 MiB of PCs
constexpr long kIntervalUs = 1000;

std::uint64_t* g_pcs = nullptr;  // reserved, pages touched as they fill
std::atomic<std::size_t> g_count{0};
const char* g_out = nullptr;

void on_sigprof(int, siginfo_t*, void* ucv) {
    const auto* uc = static_cast<const ucontext_t*>(ucv);
    const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples) {
        g_pcs[i] = static_cast<std::uint64_t>(uc->uc_mcontext.gregs[REG_RIP]);
    }
}

void set_timer(long interval_us) {
    itimerval t{};
    t.it_interval.tv_usec = interval_us;
    t.it_value = t.it_interval;
    setitimer(ITIMER_PROF, &t, nullptr);
}

__attribute__((constructor)) void hostprof_start() {
    g_out = std::getenv("HOSTPROF_OUT");
    if (g_out == nullptr || *g_out == '\0') return;
    void* p = mmap(nullptr, kMaxSamples * sizeof(std::uint64_t),
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) return;
    g_pcs = static_cast<std::uint64_t*>(p);
    struct sigaction sa {};
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    set_timer(kIntervalUs);
}

__attribute__((destructor)) void hostprof_stop() {
    if (g_pcs == nullptr) return;
    set_timer(0);
    signal(SIGPROF, SIG_IGN);
    FILE* out = std::fopen(g_out, "w");
    if (out == nullptr) {
        std::perror("hostprof: HOSTPROF_OUT");
        return;
    }
    const std::size_t total = g_count.load(std::memory_order_relaxed);
    const std::size_t kept = total < kMaxSamples ? total : kMaxSamples;
    std::fprintf(out, "hostprof 1 samples=%zu dropped=%zu\n", kept,
                 total - kept);
    if (FILE* maps = std::fopen("/proc/self/maps", "r")) {
        char line[4096];
        while (std::fgets(line, sizeof line, maps) != nullptr) {
            std::fprintf(out, "map %s", line);
        }
        std::fclose(maps);
    }
    for (std::size_t i = 0; i < kept; ++i) {
        std::fprintf(out, "%llx\n", static_cast<unsigned long long>(g_pcs[i]));
    }
    std::fclose(out);
}

}  // namespace
