#include "xmpi/scheduler.hpp"

#include <ucontext.h>

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>

#include "support/error.hpp"
#include "xmpi/stackpool.hpp"

// ThreadSanitizer must be told about user-level context switches, or it
// attributes one fiber's stack reads to another fiber's writes and reports
// phantom races. GCC and Clang expose the same extern "C" fiber API.
#if defined(__SANITIZE_THREAD__)
#define PLIN_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PLIN_TSAN_FIBERS 1
#endif
#endif

#if defined(PLIN_TSAN_FIBERS)
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

// AddressSanitizer must be told which stack runs after a switch, or an
// exception unwinding on a fiber stack looks like a wild stack access
// (its no-return handler poisons the wrong range).
#if defined(__SANITIZE_ADDRESS__)
#define PLIN_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PLIN_ASAN_FIBERS 1
#endif
#endif

#if defined(PLIN_ASAN_FIBERS)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     std::size_t* size_old);
}
#endif

namespace plin::xmpi {

namespace {

void* tsan_current_fiber() {
#if defined(PLIN_TSAN_FIBERS)
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

void* tsan_create_fiber() {
#if defined(PLIN_TSAN_FIBERS)
  return __tsan_create_fiber(0);
#else
  return nullptr;
#endif
}

void tsan_destroy_fiber(void* fiber) {
#if defined(PLIN_TSAN_FIBERS)
  if (fiber != nullptr) __tsan_destroy_fiber(fiber);
#else
  (void)fiber;
#endif
}

/// Where a switch goes: the context to resume, its TSan fiber and the
/// stack it runs on (for ASan).
struct SwitchTarget {
  ucontext_t* context = nullptr;
  void* tsan_fiber = nullptr;
  const void* stack_bottom = nullptr;
  std::size_t stack_bytes = 0;
};

/// Tells ASan that this side of a switch is now running, and, through
/// `from`, which stack control came from (nullptr to ignore it).
/// `fake_stack` is what this side saved when it last switched out (nullptr
/// on a fiber's first entry).
void finish_switch(void* fake_stack, SwitchTarget* from) {
#if defined(PLIN_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(
      fake_stack, from != nullptr ? &from->stack_bottom : nullptr,
      from != nullptr ? &from->stack_bytes : nullptr);
#else
  (void)fake_stack;
  (void)from;
#endif
}

/// The one context switch: saves the running context in `save`, tells both
/// sanitizers where control goes, and resumes `to`. `final` marks a switch
/// out of a finished fiber, which never resumes (ASan then frees its fake
/// stack). On return, `from` names the stack that switched back here.
void switch_context(ucontext_t* save, const SwitchTarget& to, bool final,
                    SwitchTarget* from) {
  void* fake_stack = nullptr;
#if defined(PLIN_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(final ? nullptr : &fake_stack,
                                 to.stack_bottom, to.stack_bytes);
#else
  (void)final;
#endif
#if defined(PLIN_TSAN_FIBERS)
  if (to.tsan_fiber != nullptr) __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
  ::swapcontext(save, to.context);
  finish_switch(fake_stack, from);
}

constexpr std::size_t kDefaultStackBytes = 512 * 1024;
constexpr std::size_t kMinStackBytes = 64 * 1024;

/// Above this many tasks, "auto" guard mode switches to one guard page per
/// slab: per-stack guards cost ~2 kernel VMAs each, and vm.max_map_count
/// commonly defaults to 65530.
constexpr std::size_t kGuardAutoMaxTasks = 8192;

/// PLIN_XMPI_STACK_GUARD: unset/"auto" → guard iff the run is small
/// enough; "0"/"off" → never; anything else → always.
bool resolve_stack_guard(std::size_t tasks) {
  const char* value = std::getenv("PLIN_XMPI_STACK_GUARD");
  if (value == nullptr || *value == '\0' ||
      std::string_view(value) == "auto") {
    return tasks <= kGuardAutoMaxTasks;
  }
  const std::string_view text(value);
  return text != "0" && text != "off";
}

}  // namespace

/// One simulated rank: its fiber context, leased stack and park/wake
/// endpoint. `state`/`wake_pending` are guarded by the scheduler queue
/// mutex; the context/stack fields are touched only by whichever worker
/// currently owns the fiber (ownership is handed over through that mutex).
struct FiberScheduler::RankFiber final : Mailbox::Parker {
  enum class State { kReady, kRunning, kParked, kFinished };

  FiberScheduler* sched = nullptr;
  std::size_t index = 0;
  Task task;

  ucontext_t context{};
  void* tsan_fiber = nullptr;
  /// The worker currently running this fiber: its scheduler context and
  /// TSan fiber are set at every dispatch (a parked fiber may resume on a
  /// different worker), its stack each time the fiber gains control.
  SwitchTarget worker;
  /// Stack leased from the StackPool at first dispatch, returned when the
  /// body finishes — unstarted and finished ranks hold no stack at all.
  StackPool::Allocation stack;
  bool started = false;
  /// Set by the trampoline just before its final switch-out, so the worker
  /// can tell "finished" from "parked".
  bool body_done = false;

  State state = State::kReady;
  bool wake_pending = false;

  void park() override;
  void wake() override;

  /// Transfers control back to the owning worker's scheduler context.
  void switch_to_worker() {
    switch_context(&context, worker, /*final=*/body_done, &worker);
  }
};

struct FiberScheduler::QueueState {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::size_t> ready;
  std::size_t running = 0;
  std::size_t finished = 0;
  std::uint64_t parks = 0;  // fibers returning to the worker unfinished
  std::uint64_t wakes = 0;  // wake() calls on unfinished fibers
  bool stop = false;
};

namespace {
/// Carries the RankFiber pointer into its trampoline: makecontext cannot
/// portably pass pointers, so the dispatching worker stores it here right
/// before the first switch into a fresh fiber, and the trampoline copies
/// it to a stack local at entry (the thread_local itself would go stale
/// once the fiber migrates to another worker).
thread_local FiberScheduler::RankFiber* t_launching_fiber = nullptr;

extern "C" void plin_fiber_trampoline() {
  FiberScheduler::RankFiber* self = t_launching_fiber;
  finish_switch(nullptr, &self->worker);
  self->task.body();
  self->body_done = true;
  self->switch_to_worker();
  // A finished fiber is never resumed; reaching here means scheduler
  // corruption, and returning from a makecontext entry with no uc_link
  // would be undefined.
  std::abort();
}
}  // namespace

void FiberScheduler::RankFiber::park() { switch_to_worker(); }

void FiberScheduler::RankFiber::wake() {
  QueueState& queue = *sched->queue_;
  std::lock_guard<std::mutex> lock(queue.mutex);
  if (state != State::kFinished) ++queue.wakes;
  if (state == State::kParked) {
    state = State::kReady;
    queue.ready.push_back(index);
    queue.cv.notify_one();
  } else if (state != State::kFinished) {
    // Ready or Running (possibly mid-switch-out): remember the wake so the
    // worker re-queues instead of parking, or the next park returns
    // immediately. The mailbox retry loop absorbs the spurious resume.
    wake_pending = true;
  }
}

FiberScheduler::FiberScheduler(std::vector<Task> tasks, Options options)
    : fibers_(tasks.size()), on_deadlock_(std::move(options.on_deadlock)) {
  PLIN_CHECK_MSG(!tasks.empty(), "FiberScheduler needs at least one task");

  std::size_t workers = options.workers;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_ = std::min(workers, tasks.size());

  stack_bytes_ = std::max(options.stack_bytes == 0 ? kDefaultStackBytes
                                                   : options.stack_bytes,
                          kMinStackBytes);
  guard_stacks_ = resolve_stack_guard(tasks.size());

  // No stacks or contexts yet: construction is O(tasks) pointer setup, and
  // a fiber leases its stack only when it is first dispatched. 100k ranks
  // cost ~100k queue entries here, not 100k mmaps.
  queue_ = new QueueState();
  for (std::size_t i = 0; i < fibers_.size(); ++i) {
    RankFiber& fiber = fibers_[i];
    fiber.sched = this;
    fiber.index = i;
    fiber.task = std::move(tasks[i]);
    queue_->ready.push_back(i);
  }
}

FiberScheduler::~FiberScheduler() {
  // Normal completion released everything in worker_loop; this sweep
  // covers runs that never finished (exceptions, never-run schedulers).
  for (RankFiber& fiber : fibers_) {
    tsan_destroy_fiber(fiber.tsan_fiber);
    StackPool::instance().release(fiber.stack);
  }
  delete queue_;
}

Mailbox::Parker* FiberScheduler::parker(std::size_t index) {
  PLIN_CHECK(index < fibers_.size());
  return &fibers_[index];
}

std::uint64_t FiberScheduler::park_count() const {
  std::lock_guard<std::mutex> lock(queue_->mutex);
  return queue_->parks;
}

std::uint64_t FiberScheduler::wake_count() const {
  std::lock_guard<std::mutex> lock(queue_->mutex);
  return queue_->wakes;
}

void FiberScheduler::dispatch(RankFiber& fiber, void* worker_tsan) {
  if (!fiber.started) {
    // First dispatch: lease a stack and build the context now. Ranks that
    // never run (abort before first dispatch) never pay for one.
    fiber.stack = StackPool::instance().acquire(stack_bytes_, guard_stacks_);
    PLIN_CHECK_MSG(::getcontext(&fiber.context) == 0, "getcontext failed");
    fiber.context.uc_stack.ss_sp = fiber.stack.sp;
    fiber.context.uc_stack.ss_size = fiber.stack.bytes;
    fiber.context.uc_link = nullptr;  // fibers exit via switch_to_worker
    ::makecontext(&fiber.context, plin_fiber_trampoline, 0);
    fiber.tsan_fiber = tsan_create_fiber();
    fiber.started = true;
  }
  ucontext_t worker_context;
  fiber.worker.context = &worker_context;
  fiber.worker.tsan_fiber = worker_tsan;
  // Measurement reads (simulated RAPL/PAPI) resolve through the host
  // thread's binding, so it must follow the rank onto whichever worker
  // dispatches it.
  trace::ScopedHardwareBinding binding(fiber.task.hw);
  t_launching_fiber = &fiber;
  switch_context(&worker_context,
                 SwitchTarget{&fiber.context, fiber.tsan_fiber, fiber.stack.sp,
                              fiber.stack.bytes},
                 /*final=*/false, /*from=*/nullptr);
  // Control returns here when the fiber parks or finishes.
}

void FiberScheduler::worker_loop() {
  void* worker_tsan = tsan_current_fiber();
  QueueState& queue = *queue_;
  std::unique_lock<std::mutex> lock(queue.mutex);
  for (;;) {
    queue.cv.wait(lock, [&] { return queue.stop || !queue.ready.empty(); });
    if (queue.ready.empty()) {
      if (queue.stop) return;
      continue;
    }
    const std::size_t index = queue.ready.front();
    queue.ready.pop_front();
    RankFiber& fiber = fibers_[index];
    fiber.state = RankFiber::State::kRunning;
    ++queue.running;
    lock.unlock();

    dispatch(fiber, worker_tsan);
    if (fiber.body_done) {
      // Recycle the stack immediately (outside the queue lock): the next
      // wave of ranks leases it back from the pool's free list instead of
      // mapping fresh memory.
      tsan_destroy_fiber(fiber.tsan_fiber);
      fiber.tsan_fiber = nullptr;
      StackPool::instance().release(fiber.stack);
    }

    lock.lock();
    --queue.running;
    if (!fiber.body_done) ++queue.parks;
    if (fiber.body_done) {
      fiber.state = RankFiber::State::kFinished;
      if (++queue.finished == fibers_.size()) {
        queue.stop = true;
        queue.cv.notify_all();
      }
    } else if (fiber.wake_pending) {
      // A wake raced with the switch-out: skip Parked entirely.
      fiber.wake_pending = false;
      fiber.state = RankFiber::State::kReady;
      queue.ready.push_back(index);
      queue.cv.notify_one();
    } else {
      fiber.state = RankFiber::State::kParked;
    }
    if (!queue.stop && queue.running == 0 && queue.ready.empty() &&
        queue.finished < fibers_.size() && !deadlock_) {
      // Every unfinished rank is parked and nothing can wake them: a
      // simulated-communication deadlock. Checked after *any* transition
      // that can idle the pool (a park, or the last running rank
      // finishing while a peer stays parked). Fire the callback outside
      // the queue lock — it typically calls World::abort, whose interrupt
      // path re-enters wake() and therefore this mutex.
      deadlock_ = true;
      lock.unlock();
      if (on_deadlock_) on_deadlock_();
      lock.lock();
    }
  }
}

void FiberScheduler::run() {
  if (workers_ == 1) {
    // Degenerate pool: run the scheduler loop on the calling thread and
    // skip the spawn entirely (also the single-CPU default).
    worker_loop();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers_);
  for (std::size_t i = 0; i < workers_; ++i) {
    pool.emplace_back([this] { worker_loop(); });
  }
  for (std::thread& worker : pool) worker.join();
}

}  // namespace plin::xmpi
