#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// The execution substrate of a run: every rank, and every nonblocking-
/// collective task, is a fiber in one address space. A fiber runs on its own
/// cached 1 MiB stack (with a guard page) and is switched by a hand-rolled
/// x86-64 context switch, the only one (sched.cc stops at an #error on other
/// architectures). Runtime::run hands the rank fibers to a Scheduler whose
/// K worker threads (K = CPUs in the process's affinity mask, at most one
/// per rank) take them from one FIFO ready queue.
///
/// Virtual time decides every result (DESIGN.md §2), so the host order in
/// which fibers run is free; the scheduler only has to run every fiber that
/// can make progress, and to notice when none can (a stall).
namespace minimpi::detail {

class Fiber;
class Scheduler;

/// What a parked fiber waits for, for the stall report. Building one reads
/// no clock and allocates nothing.
struct WaitDesc {
    enum class Site : unsigned char {
        Recv,         ///< a receive or probe: ctx, src, tag
        Rendezvous,   ///< a collective rendezvous slot: ctx, key
        Flag,         ///< a node flag: publishing world rank (src), want
        IcollGate,    ///< completion of a nonblocking collective: what
        ServiceJoin,  ///< a service job's comm creation: tenant (src), key
    };
    Site site = Site::Recv;
    std::uint64_t ctx = 0;
    std::uint64_t key = 0;  ///< Rendezvous/ServiceJoin key, Flag target
    int src = -1;
    int tag = 0;
    const char* what = "";

    static WaitDesc recv(std::uint64_t ctx, int src, int tag) {
        return {Site::Recv, ctx, 0, src, tag, ""};
    }
    static WaitDesc rendezvous(std::uint64_t ctx, std::uint64_t key) {
        return {Site::Rendezvous, ctx, key, -1, 0, ""};
    }
    static WaitDesc flag(int owner_world, std::uint64_t want) {
        return {Site::Flag, 0, want, owner_world, 0, ""};
    }
    static WaitDesc icoll(const char* kind) {
        return {Site::IcollGate, 0, 0, -1, 0, kind};
    }
    static WaitDesc service_join(int tenant, std::uint64_t job) {
        return {Site::ServiceJoin, 0, job, tenant, 0, ""};
    }

    std::string str() const;
};

/// One registration of a fiber at a WaitSite; lives in the waiting frame.
struct WaitNode {
    WaitNode* prev = nullptr;
    WaitNode* next = nullptr;
    Fiber* fiber = nullptr;  ///< the fiber a notify makes ready
    bool linked = false;
};

/// The fibers parked at one wait site. It has no mutex of its own: it is
/// guarded by the mutex of the state it sits next to (a mailbox, a
/// rendezvous comm, a node's flag block, a service job slot, a request's
/// gate), which every waiter holds while it checks its condition and links
/// its node, and every notifier holds while it changes that state.
class WaitSite {
public:
    void link(WaitNode& n);
    void unlink(WaitNode& n);  ///< no-op when not linked
    /// Unlink every node and make its fiber ready (see Scheduler::make_ready).
    void notify_all();

private:
    WaitNode* head_ = nullptr;
};

struct Stack {
    char* base = nullptr;  ///< lowest usable byte (the guard page is below)
    std::size_t size = 0;
};

/// Saved registers of a fiber or of a thread's own stack (sched.cc).
struct Context;

/// A function running on its own stack. resume() switches into it from
/// whatever runs now (a worker thread, or another fiber); suspend(), called
/// by the fiber itself, switches back there. A fiber never changes OS thread
/// while it runs, but may resume on another one: the libstdc++ exception
/// state (caught-exception stack, uncaught count) is saved and restored per
/// fiber at every switch, so a fiber may park inside a catch handler.
class Fiber {
public:
    /// @p sched and @p rank are set for the rank fibers a Scheduler runs;
    /// task fibers are switched to directly by their owner and have neither.
    explicit Fiber(std::function<void()> fn, Scheduler* sched = nullptr,
                   int rank = -1);
    ~Fiber();  ///< the fiber must have finished or never started
    Fiber(const Fiber&) = delete;
    Fiber& operator=(const Fiber&) = delete;

    void resume();
    void suspend();
    /// First code a fiber runs (the switch trampoline's target).
    static void entry(Fiber* self);

    bool finished() const { return finished_; }
    Scheduler* scheduler() const { return sched_; }

private:
    friend class Scheduler;

    std::function<void()> fn_;
    Stack stack_;
    std::unique_ptr<Context> self_;
    Context* caller_ = nullptr;  ///< context to return to; set by resume()
    bool started_ = false;
    bool finished_ = false;

    // Scheduler state, guarded by Scheduler::mu_.
    enum class State : unsigned char { Ready, Running, Parked, Done };
    Scheduler* sched_;
    int rank_;
    State state_ = State::Ready;
    bool wake_pending_ = false;  ///< made ready while still running
    bool yielding_ = false;      ///< suspended to go to the back of the queue
    const WaitDesc* parked_at_ = nullptr;
};

/// The fiber running on this thread, or null on a plain thread.
Fiber* current_fiber();

/// One parked rank in a stall report.
struct Parked {
    int rank;
    const WaitDesc* at;
};

/// Runs rank fibers on K worker threads from one FIFO ready queue.
///
/// Wake-ups cannot be lost: a fiber is marked Running from the moment a
/// worker takes it until that worker has seen it switch out, and a
/// make_ready() that lands in that window only sets a wake-pending flag,
/// which the fiber's next park() consumes at once (or the worker, on
/// seeing the fiber switch out, turns into a requeue).
class Scheduler {
public:
    Scheduler() = default;
    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /// Add a rank fiber running @p fn; it is queued in spawn order.
    Fiber& spawn(int rank, std::function<void()> fn);

    /// Run every spawned fiber to completion on @p workers threads (the
    /// calling thread and workers - 1 new ones). When the ready queue is
    /// empty, no worker runs a fiber and fibers are still parked, that is a
    /// stall: @p on_stall gets the parked ranks (in rank order), runs once
    /// with no fiber running, and must wake them so they can fail (the
    /// runtime poisons the job). A second stall aborts the process.
    void run(int workers,
             const std::function<void(const std::vector<Parked>&)>& on_stall);

    /// Park the calling fiber @p self at @p at until make_ready(); returns
    /// at once if a wake is already pending.
    void park(Fiber& self, const WaitDesc& at);
    /// Let the other ready fibers run first (for polling loops); returns at
    /// once when none is waiting.
    void yield(Fiber& self);
    void make_ready(Fiber& f);
    /// Make every parked fiber ready (poison, a death, a revocation).
    void wake_all();

    /// CPUs in this process's affinity mask (what `nproc` prints), >= 1.
    static int affinity_cpus();

private:
    void worker_loop();

    std::mutex mu_;
    std::condition_variable idle_;  ///< workers with an empty queue
    std::deque<Fiber*> ready_;
    std::vector<std::unique_ptr<Fiber>> fibers_;
    int live_ = 0;
    int running_ = 0;
    int stalls_ = 0;
    bool in_stall_ = false;
    const std::function<void(const std::vector<Parked>&)>* on_stall_ = nullptr;
};

/// Let other ranks run if the calling fiber is a scheduled one (polling
/// calls: test(), iprobe() that found nothing); a no-op elsewhere.
void yield_fiber();

}  // namespace minimpi::detail
