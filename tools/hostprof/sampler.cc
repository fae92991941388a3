// hostprof sampler: a preloadable SIGPROF profiler for any binary of this
// repository (or any other dynamically linked program).
//
//   HOSTPROF_OUT=prof.txt LD_PRELOAD=libhostprof.so ./program [args]
//   python3 tools/hostprof/hostprof.py report prof.txt
//
// Without HOSTPROF_OUT the library does nothing. With it, a process-wide
// ITIMER_PROF timer sends SIGPROF every millisecond of CPU time (at most
// once per kernel tick); each signal records the interrupted user PC. CPU
// time of every thread counts, system time included: a sample taken in the
// kernel lands on the instruction after the syscall. Each sample also keeps
// caller candidates: the word at the interrupted RSP (the return address
// while a frameless leaf such as libc's memcpy runs) and the return
// addresses of up to kFrames frames of the RBP chain (meaningful only in
// code built with -fno-omit-frame-pointer; elsewhere RBP is any value).
// Both are read with process_vm_readv, which reports a bad address as an
// error instead of faulting. At exit the library writes its header, a copy
// of /proc/self/maps and one line per sample to HOSTPROF_OUT: the PC, the
// RSP word and the chain's return addresses in hexadecimal, 0 where a read
// failed or the chain ended. hostprof.py maps them to symbols.

#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#if !defined(__x86_64__)
#error "hostprof reads the x86-64 program counter (REG_RIP)"
#endif

namespace {

constexpr std::size_t kFrames = 4;           // RBP-chain return addresses
constexpr std::size_t kWords = 2 + kFrames;  // PC, RSP word, chain
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;  // 48 MiB
constexpr long kIntervalUs = 1000;

std::uint64_t* g_samples = nullptr;  // reserved, pages touched as they fill
std::atomic<std::size_t> g_count{0};
const char* g_out = nullptr;
pid_t g_pid = 0;

/// Copies @p n bytes at @p addr of this process into @p out; false where
/// any of them is unmapped.
bool read_own(std::uint64_t addr, void* out, std::size_t n) {
    iovec local{out, n};
    iovec remote{reinterpret_cast<void*>(addr), n};
    return process_vm_readv(g_pid, &local, 1, &remote, 1, 0) ==
           static_cast<ssize_t>(n);
}

void on_sigprof(int, siginfo_t*, void* ucv) {
    const int saved_errno = errno;
    const auto* uc = static_cast<const ucontext_t*>(ucv);
    const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples) {
        std::uint64_t* rec = g_samples + i * kWords;  // zero until written
        const auto reg = [uc](int r) {
            return static_cast<std::uint64_t>(uc->uc_mcontext.gregs[r]);
        };
        rec[0] = reg(REG_RIP);
        read_own(reg(REG_RSP), &rec[1], sizeof(rec[1]));
        // Frame record at fp: {caller's fp, return address}. Stacks grow
        // down, so a well-formed chain moves strictly upward.
        std::uint64_t fp = reg(REG_RBP);
        for (std::size_t k = 0; k < kFrames && fp != 0 && fp % 8 == 0; ++k) {
            std::uint64_t frame[2];
            if (!read_own(fp, frame, sizeof(frame))) break;
            rec[2 + k] = frame[1];
            if (frame[0] <= fp) break;
            fp = frame[0];
        }
    }
    errno = saved_errno;
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
    void* p = mmap(nullptr, kMaxSamples * kWords * sizeof(std::uint64_t),
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) return;
    g_samples = static_cast<std::uint64_t*>(p);
    g_pid = getpid();
    struct sigaction sa {};
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    set_timer(kIntervalUs);
}

__attribute__((destructor)) void hostprof_stop() {
    if (g_samples == nullptr) return;
    set_timer(0);
    signal(SIGPROF, SIG_IGN);
    FILE* out = std::fopen(g_out, "w");
    if (out == nullptr) {
        std::perror("hostprof: HOSTPROF_OUT");
        return;
    }
    const std::size_t total = g_count.load(std::memory_order_relaxed);
    const std::size_t kept = total < kMaxSamples ? total : kMaxSamples;
    std::fprintf(out, "hostprof 2 samples=%zu dropped=%zu frames=%zu\n", kept,
                 total - kept, kFrames);
    if (FILE* maps = std::fopen("/proc/self/maps", "r")) {
        char line[4096];
        while (std::fgets(line, sizeof line, maps) != nullptr) {
            std::fprintf(out, "map %s", line);
        }
        std::fclose(maps);
    }
    for (std::size_t i = 0; i < kept; ++i) {
        const std::uint64_t* rec = g_samples + i * kWords;
        for (std::size_t w = 0; w < kWords; ++w) {
            std::fprintf(out, w + 1 < kWords ? "%llx " : "%llx\n",
                         static_cast<unsigned long long>(rec[w]));
        }
    }
    std::fclose(out);
}

}  // namespace
