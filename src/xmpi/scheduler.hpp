// FiberScheduler — bounded worker pool multiplexing simulated ranks over
// user-level stacks.
//
// Each rank runs on its own fiber, and N host workers (N ≈ cores, not
// ranks) run runnable fibers from per-worker ready lanes. A fiber switch is
// a register-only x86-64 routine (callee-saved registers, MXCSR and the x87
// control word, then a stack swap): no syscall per switch. Fiber stacks are
// leased from the process-wide StackPool *lazily at first dispatch* and
// returned the moment the rank's body finishes, so a 100k-rank run whose
// ranks mostly wait holds stacks only for the ranks actually in flight,
// and successive rank waves recycle the same few mappings (see
// stackpool.hpp; PLIN_XMPI_STACK_GUARD picks the guard-page geometry —
// per-stack guards by default up to 8192 ranks, one guard per slab above
// that to stay under vm.max_map_count). When a rank blocks in
// Mailbox::match / a collective, its fiber *parks*: it switches back to
// the worker, freeing it to run another rank. A matching post (or
// World::abort) *wakes* it — pushes the fiber onto the waking worker's lane
// (a wake from outside the pool goes to lane `index % workers`), where any
// worker can resume it. An idle worker pops its own lane first, then
// steals from the other lanes in order, and only then sleeps on an
// eventcount; a push notifies only when a worker sleeps. This keeps host
// thread count bounded at paper-scale rank counts (1296 ranks ⇒ N threads,
// not 1296), and no lock is shared by every worker.
//
// Each fiber's state is an atomic state machine changed by CAS:
//   Ready → Running → {Parked, RunningWoken, Finished};
//   Parked → Ready (wake); RunningWoken → Ready (re-queued at switch-out).
// park() switches out without any lock; the worker then moves
// Running→Parked. A wake() that lands while the fiber still runs turns
// Running into RunningWoken, and the worker re-queues instead of parking.
// A wake() on a Ready fiber is a no-op: the fiber rechecks its mailbox
// when it runs, and the mailbox retry loop absorbs spurious resumes.
// Deadlock detection is one atomic `runnable` count (ready + running): a
// park or finish that drops it to 0 while unfinished fibers remain is a
// deadlock. With one worker the dispatch order is FIFO by wake order.
//
// Determinism note: the scheduler decides only *host* interleaving. All
// simulated time/energy outputs derive from per-rank virtual clocks and
// message arrival stamps, so results are bit-identical for any worker
// count — see docs/xmpi.md for the full contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "trace/hardware_context.hpp"
#include "xmpi/mailbox.hpp"

namespace plin::xmpi {

class FiberScheduler {
 public:
  struct Task {
    /// Runs on the rank's fiber. Must not let exceptions escape (the
    /// runtime wraps rank_main in its own catch-all).
    std::function<void()> body;
    /// Hardware context bound to the host worker for the duration of every
    /// dispatch of this task, so measurement reads follow the rank across
    /// workers.
    const trace::HardwareContext* hw = nullptr;
  };

  struct Options {
    /// Host worker threads; 0 → std::thread::hardware_concurrency().
    /// Always clamped to the task count.
    std::size_t workers = 0;
    /// Usable fiber stack bytes; 0 → 512 KiB. Clamped to ≥ 64 KiB and
    /// rounded up to the page size. Stacks come from the slab-backed
    /// StackPool (lazily committed, leased at first dispatch, recycled
    /// when the rank finishes).
    std::size_t stack_bytes = 0;
    /// Invoked (without scheduler locks) when every unfinished rank is
    /// parked — a simulated-communication deadlock. Expected to unwedge
    /// the ranks, e.g. World::abort, which wakes every parked receiver
    /// with Aborted.
    std::function<void()> on_deadlock;
  };

  FiberScheduler(std::vector<Task> tasks, Options options);
  ~FiberScheduler();

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// The parking strategy of task `index`, for Mailbox::set_parker.
  /// Pointers stay valid for the scheduler's lifetime.
  Mailbox::Parker* parker(std::size_t index);

  /// Runs every task to completion (blocking). Callable once.
  void run();

  /// True if run() hit the all-parked condition and fired on_deadlock.
  bool deadlocked() const;

  /// Worker threads run() will use.
  std::size_t worker_count() const { return workers_; }

  /// Host-side scheduler counters over the whole run: fiber park
  /// transitions (a rank yielding its worker) and wake() calls. Purely
  /// host diagnostics — the values depend on worker count and host timing,
  /// so they are surfaced in RunResult but never enter a canonical trace.
  std::uint64_t park_count() const;
  std::uint64_t wake_count() const;

  struct RankFiber;  // opaque in the header; defined in scheduler.cpp

 private:
  struct PoolState;

  void worker_loop(std::size_t lane);
  bool find_work(std::size_t lane, std::size_t& index);
  bool wait_for_work(std::size_t lane, std::size_t& index);
  void dispatch(RankFiber& fiber, void* worker_tsan);
  void switched_out(RankFiber& fiber, std::size_t lane);
  void push_ready(std::size_t lane, std::size_t index);
  void leave_runnable();
  void stop_workers();

  std::vector<RankFiber> fibers_;
  std::size_t workers_ = 1;
  /// Resolved stack geometry every fiber leases from the StackPool.
  std::size_t stack_bytes_ = 0;
  bool guard_stacks_ = true;
  std::function<void()> on_deadlock_;

  // Lanes, counters and the sleep eventcount (kept out of the header with
  // the fiber internals).
  PoolState* pool_ = nullptr;
};

}  // namespace plin::xmpi
