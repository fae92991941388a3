#include "minimpi/sched.h"

#include <cxxabi.h>
#include <sched.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <new>
#include <thread>

#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(__SANITIZE_ADDRESS__)
#define __SANITIZE_ADDRESS__ 1
#endif
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
#define __SANITIZE_THREAD__ 1
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#include <pthread.h>
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif
#if !defined(__x86_64__)
#error "minimpi fibers switch stacks with x86-64 assembly only"
#endif

// hympi_switch_stack(save, load): push the callee-saved registers and the
// SSE/x87 control words on the current stack, store the stack pointer to
// *save, load `load` as the stack pointer and pop the same frame from it.
// A fresh fiber's stack holds a frame whose return address is
// hympi_fiber_start, which calls r13(r12) = Fiber::entry(fiber).
extern "C" void hympi_switch_stack(void** save, void* load);
extern "C" void hympi_fiber_start();
asm(R"(
    .text
    .globl hympi_switch_stack
    .hidden hympi_switch_stack
    .type hympi_switch_stack,@function
    .p2align 4
hympi_switch_stack:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size hympi_switch_stack,.-hympi_switch_stack

    .globl hympi_fiber_start
    .hidden hympi_fiber_start
    .type hympi_fiber_start,@function
    .p2align 4
hympi_fiber_start:
    movq %r12, %rdi
    callq *%r13
    ud2
    .size hympi_fiber_start,.-hympi_fiber_start
)");

namespace minimpi::detail {

namespace {

/// libstdc++'s per-thread exception state (__cxa_eh_globals): the stack of
/// caught exceptions (what `throw;` rethrows) and the uncaught count.
struct EhState {
    void* caught = nullptr;
    unsigned int uncaught = 0;
};

// Out of line on purpose: __cxa_get_globals is declared const, so two calls
// in one function may be merged — across a switch that moved the fiber to
// another thread, that would read the old thread's state.
[[gnu::noinline]] void eh_save(EhState& s) {
    std::memcpy(static_cast<void*>(&s), abi::__cxa_get_globals(), sizeof s);
}
[[gnu::noinline]] void eh_load(const EhState& s) {
    std::memcpy(abi::__cxa_get_globals(), &s, sizeof s);
}

thread_local Fiber* tls_current = nullptr;

[[gnu::noinline]] Fiber* exchange_current(Fiber* f) {
    Fiber* prev = tls_current;
    tls_current = f;
    return prev;
}

constexpr std::size_t kStackBytes = std::size_t{1} << 20;

std::size_t page_bytes() {
    static const std::size_t page =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return page;
}

/// Process-wide free list of fiber stacks. Stacks are never unmapped, so
/// a run's rank and task fibers reuse the pages earlier runs touched
/// instead of paying fresh mappings and page faults.
struct StackCache {
    std::mutex mu;
    std::vector<Stack> free;
};

StackCache& stack_cache() {
    static auto* cache = new StackCache;  // outlives static destructors
    return *cache;
}

Stack acquire_stack() {
    StackCache& c = stack_cache();
    {
        std::lock_guard<std::mutex> lock(c.mu);
        if (!c.free.empty()) {
            const Stack s = c.free.back();
            c.free.pop_back();
            return s;
        }
    }
    const std::size_t guard = page_bytes();
    void* p = mmap(nullptr, guard + kStackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    if (mprotect(p, guard, PROT_NONE) != 0) {
        munmap(p, guard + kStackBytes);
        throw std::bad_alloc();
    }
    return {static_cast<char*>(p) + guard, kStackBytes};
}

void release_stack(const Stack& s) {
#if defined(__SANITIZE_ADDRESS__)
    // Frames that never returned (the entry frame) leave poisoned redzones.
    ASAN_UNPOISON_MEMORY_REGION(s.base, s.size);
#endif
    StackCache& c = stack_cache();
    std::lock_guard<std::mutex> lock(c.mu);
    c.free.push_back(s);
}

}  // namespace

struct Context {
    void* sp = nullptr;
    EhState eh;
#if defined(__SANITIZE_ADDRESS__)
    const void* stack_bottom = nullptr;
    std::size_t stack_size = 0;
#endif
#if defined(__SANITIZE_THREAD__)
    void* tsan = nullptr;
#endif
};

namespace {

/// Switch from @p from (the running context) to @p to; returns when
/// something switches back to @p from. @p from_done: @p from never runs
/// again (a finished fiber).
[[gnu::noinline]] void switch_context(Context& from, Context& to,
                                      bool from_done) {
    eh_save(from.eh);
#if defined(__SANITIZE_ADDRESS__)
    void* fake_stack = nullptr;
    __sanitizer_start_switch_fiber(from_done ? nullptr : &fake_stack,
                                   to.stack_bottom, to.stack_size);
#else
    (void)from_done;
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(to.tsan, 0);
#endif
    hympi_switch_stack(&from.sp, to.sp);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
    eh_load(from.eh);
}

#if defined(__SANITIZE_ADDRESS__)
/// Bounds of this thread's own stack (what a switch back to it announces).
void native_stack(Context& c) {
    thread_local const void* bottom = nullptr;
    thread_local std::size_t size = 0;
    if (bottom == nullptr) {
        pthread_attr_t attr;
        void* addr = nullptr;
        if (pthread_getattr_np(pthread_self(), &attr) == 0) {
            pthread_attr_getstack(&attr, &addr, &size);
            pthread_attr_destroy(&attr);
        }
        bottom = addr;
    }
    c.stack_bottom = bottom;
    c.stack_size = size;
}
#endif

}  // namespace

// ---- WaitDesc / WaitSite ----------------------------------------------------

std::string WaitDesc::str() const {
    char buf[160];
    switch (site) {
        case Site::Recv:
            std::snprintf(buf, sizeof buf, "recv ctx=%llu src=%d tag=%d",
                          static_cast<unsigned long long>(ctx), src, tag);
            break;
        case Site::Rendezvous:
            std::snprintf(buf, sizeof buf, "rendezvous slot ctx=%llu key=%llu",
                          static_cast<unsigned long long>(ctx),
                          static_cast<unsigned long long>(key));
            break;
        case Site::Flag:
            std::snprintf(buf, sizeof buf, "node flag owner=%d want=%llu", src,
                          static_cast<unsigned long long>(key));
            break;
        case Site::IcollGate:
            std::snprintf(buf, sizeof buf, "icoll gate %s", what);
            break;
        case Site::ServiceJoin:
            std::snprintf(buf, sizeof buf, "service join tenant=%d job=%llu",
                          src, static_cast<unsigned long long>(key));
            break;
    }
    return buf;
}

void WaitSite::link(WaitNode& n) {
    if (n.linked) return;
    n.prev = nullptr;
    n.next = head_;
    if (head_ != nullptr) head_->prev = &n;
    head_ = &n;
    n.linked = true;
}

void WaitSite::unlink(WaitNode& n) {
    if (!n.linked) return;
    if (n.prev != nullptr) {
        n.prev->next = n.next;
    } else {
        head_ = n.next;
    }
    if (n.next != nullptr) n.next->prev = n.prev;
    n.prev = n.next = nullptr;
    n.linked = false;
}

void WaitSite::notify_all() {
    while (head_ != nullptr) {
        WaitNode& n = *head_;
        unlink(n);
        n.fiber->scheduler()->make_ready(*n.fiber);
    }
}

// ---- Fiber ------------------------------------------------------------------

Fiber::Fiber(std::function<void()> fn, Scheduler* sched, int rank)
    : fn_(std::move(fn)),
      stack_(acquire_stack()),
      self_(std::make_unique<Context>()),
      sched_(sched),
      rank_(rank) {
    const std::uintptr_t top =
        reinterpret_cast<std::uintptr_t>(stack_.base + stack_.size) &
        ~std::uintptr_t{15};
    // The frame hympi_switch_stack pops: control words, r15, r14, r13, r12,
    // rbx, rbp, return address. 16-byte aligned, so hympi_fiber_start's
    // call enters Fiber::entry with the ABI's stack alignment.
    auto* frame = reinterpret_cast<std::uint64_t*>(top - 80);
    frame[0] = 0x1F80u | (std::uint64_t{0x037F} << 32);  // MXCSR, x87 CW
    frame[1] = 0;
    frame[2] = 0;
    frame[3] = reinterpret_cast<std::uint64_t>(&Fiber::entry);
    frame[4] = reinterpret_cast<std::uint64_t>(this);
    frame[5] = 0;
    frame[6] = 0;
    frame[7] = reinterpret_cast<std::uint64_t>(&hympi_fiber_start);
    self_->sp = frame;
#if defined(__SANITIZE_ADDRESS__)
    self_->stack_bottom = stack_.base;
    self_->stack_size = stack_.size;
#endif
#if defined(__SANITIZE_THREAD__)
    self_->tsan = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
    if (started_ && !finished_) {
        std::fputs("minimpi: destroying a fiber that has not finished\n",
                   stderr);
        std::abort();
    }
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(self_->tsan);
#endif
    release_stack(stack_);
}

void Fiber::entry(Fiber* self) {
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
    eh_load(EhState{});
    try {
        self->fn_();
    } catch (...) {
        std::terminate();  // fiber bodies catch what they own
    }
    self->finished_ = true;
    switch_context(*self->self_, *self->caller_, true);
    std::abort();  // a finished fiber is never resumed
}

void Fiber::resume() {
    Context caller;
#if defined(__SANITIZE_ADDRESS__)
    if (Fiber* f = current_fiber()) {
        caller.stack_bottom = f->stack_.base;
        caller.stack_size = f->stack_.size;
    } else {
        native_stack(caller);
    }
#endif
#if defined(__SANITIZE_THREAD__)
    caller.tsan = __tsan_get_current_fiber();
#endif
    started_ = true;
    Fiber* const prev = exchange_current(this);
    caller_ = &caller;
    switch_context(caller, *self_, false);
    caller_ = nullptr;
    exchange_current(prev);
}

void Fiber::suspend() { switch_context(*self_, *caller_, false); }

[[gnu::noinline]] Fiber* current_fiber() { return tls_current; }

// ---- Scheduler --------------------------------------------------------------

Fiber& Scheduler::spawn(int rank, std::function<void()> fn) {
    fibers_.push_back(std::make_unique<Fiber>(std::move(fn), this, rank));
    Fiber& f = *fibers_.back();
    std::lock_guard<std::mutex> lock(mu_);
    ready_.push_back(&f);
    ++live_;
    return f;
}

void Scheduler::run(
    int workers,
    const std::function<void(const std::vector<Parked>&)>& on_stall) {
    on_stall_ = &on_stall;
    std::vector<std::thread> extra;
    extra.reserve(static_cast<std::size_t>(std::max(0, workers - 1)));
    for (int i = 1; i < workers; ++i) {
        extra.emplace_back([this] { worker_loop(); });
    }
    worker_loop();
    for (std::thread& t : extra) t.join();
    on_stall_ = nullptr;
}

void Scheduler::worker_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        if (ready_.empty()) {
            if (live_ == 0) return;
            if (running_ > 0 || in_stall_) {
                idle_.wait(lock);
                continue;
            }
            // Nothing runs, nothing can: every live fiber is parked.
            if (++stalls_ > 1) {
                std::fputs("minimpi: the job stalled again after its stall "
                           "was reported\n",
                           stderr);
                std::abort();
            }
            std::vector<Parked> parked;
            for (const auto& f : fibers_) {
                if (f->state_ == Fiber::State::Parked) {
                    parked.push_back({f->rank_, f->parked_at_});
                }
            }
            in_stall_ = true;
            lock.unlock();
            (*on_stall_)(parked);
            lock.lock();
            in_stall_ = false;
            continue;
        }
        Fiber* f = ready_.front();
        ready_.pop_front();
        f->state_ = Fiber::State::Running;
        ++running_;
        lock.unlock();
        f->resume();
        lock.lock();
        --running_;
        if (f->finished_) {
            f->state_ = Fiber::State::Done;
            if (--live_ == 0) idle_.notify_all();
        } else if (f->wake_pending_ || f->yielding_) {
            f->wake_pending_ = false;
            f->yielding_ = false;
            f->state_ = Fiber::State::Ready;
            ready_.push_back(f);
        } else {
            f->state_ = Fiber::State::Parked;
        }
    }
}

void Scheduler::park(Fiber& self, const WaitDesc& at) {
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (self.wake_pending_) {
            self.wake_pending_ = false;
            return;
        }
        self.parked_at_ = &at;
    }
    self.suspend();
}

void Scheduler::yield(Fiber& self) {
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (ready_.empty()) return;
        self.yielding_ = true;
    }
    self.suspend();
}

void Scheduler::make_ready(Fiber& f) {
    std::lock_guard<std::mutex> lock(mu_);
    if (f.state_ == Fiber::State::Parked) {
        f.state_ = Fiber::State::Ready;
        ready_.push_back(&f);
        idle_.notify_one();
    } else if (f.state_ == Fiber::State::Running) {
        f.wake_pending_ = true;
    }
}

void Scheduler::wake_all() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& f : fibers_) {
        if (f->state_ == Fiber::State::Parked) {
            f->state_ = Fiber::State::Ready;
            ready_.push_back(f.get());
        } else if (f->state_ == Fiber::State::Running) {
            f->wake_pending_ = true;
        }
    }
    idle_.notify_all();
}

int Scheduler::affinity_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
    return std::max(1, CPU_COUNT(&set));
}

void yield_fiber() {
    Fiber* f = current_fiber();
    if (f != nullptr && f->scheduler() != nullptr) f->scheduler()->yield(*f);
}

}  // namespace minimpi::detail
