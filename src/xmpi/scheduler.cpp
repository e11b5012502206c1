#include "xmpi/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <memory>
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

#if !defined(__x86_64__)
#error "the xmpi fiber switch is written for the x86-64 SysV ABI only"
#endif

// The one fiber switch: pushes the callee-saved registers, MXCSR and the
// x87 control word onto the running stack, stores the stack pointer in
// *save_sp, loads resume_sp and pops the same frame from there. Everything
// else the SysV ABI lets a call clobber. No signal mask is switched, so a
// switch makes no syscall.
//
// A fresh fiber's stack holds a hand-built frame (see initial_frame) whose
// return address is plin_xmpi_fiber_entry; it passes the RankFiber* that
// the frame put in r12 to plin_xmpi_fiber_main, which never returns. The
// entry marks rip undefined so unwinders stop there.
extern "C" {
__attribute__((visibility("hidden"))) void plin_xmpi_fiber_switch(
    void** save_sp, void* resume_sp);
__attribute__((visibility("hidden"))) void plin_xmpi_fiber_entry();
}

asm(".pushsection .text\n"
    ".globl plin_xmpi_fiber_switch\n"
    ".hidden plin_xmpi_fiber_switch\n"
    ".type plin_xmpi_fiber_switch, @function\n"
    ".p2align 4\n"
    "plin_xmpi_fiber_switch:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  subq $16, %rsp\n"
    "  stmxcsr 8(%rsp)\n"
    "  fnstcw (%rsp)\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  ldmxcsr 8(%rsp)\n"
    "  fldcw (%rsp)\n"
    "  addq $16, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  ret\n"
    ".size plin_xmpi_fiber_switch, .-plin_xmpi_fiber_switch\n"
    ".globl plin_xmpi_fiber_entry\n"
    ".hidden plin_xmpi_fiber_entry\n"
    ".type plin_xmpi_fiber_entry, @function\n"
    ".p2align 4\n"
    "plin_xmpi_fiber_entry:\n"
    "  .cfi_startproc\n"
    "  .cfi_undefined rip\n"
    "  movq %r12, %rdi\n"
    "  call plin_xmpi_fiber_main\n"
    "  ud2\n"
    "  .cfi_endproc\n"
    ".size plin_xmpi_fiber_entry, .-plin_xmpi_fiber_entry\n"
    ".popsection\n");

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

/// Where a switch goes: the stack pointer to resume, its TSan fiber and the
/// stack it runs on (for ASan).
struct SwitchTarget {
  void* sp = nullptr;
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

/// The one context switch: saves the running stack pointer in `save`, tells
/// both sanitizers where control goes, and resumes `to`. `final` marks a
/// switch out of a finished fiber, which never resumes (ASan then frees its
/// fake stack). On return, `from` names the stack that switched back here.
void switch_context(void** save, const SwitchTarget& to, bool final,
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
  plin_xmpi_fiber_switch(save, to.sp);
  finish_switch(fake_stack, from);
}

/// Lays out the frame plin_xmpi_fiber_switch pops on a fresh stack: the
/// caller's MXCSR and x87 control word, zeroed callee-saved registers
/// (rbp = 0 ends frame-pointer walks) except r12 = `fiber`, and the entry
/// stub as return address. The stub starts with rsp 16-byte aligned, as a
/// call site must be. Returns the stack pointer to resume.
void* initial_frame(const StackPool::Allocation& stack, void* fiber) {
  const std::uintptr_t top =
      reinterpret_cast<std::uintptr_t>(stack.sp + stack.bytes) &
      ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<std::uint64_t*>(top - 88);
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_control = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpu_control));
  frame[0] = fpu_control;
  frame[1] = mxcsr;
  frame[2] = 0;                                      // r15
  frame[3] = 0;                                      // r14
  frame[4] = 0;                                      // r13
  frame[5] = reinterpret_cast<std::uintptr_t>(fiber);  // r12
  frame[6] = 0;                                      // rbx
  frame[7] = 0;                                      // rbp
  frame[8] = reinterpret_cast<std::uintptr_t>(&plin_xmpi_fiber_entry);
  return frame;
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

/// One simulated rank: its saved stack pointer, leased stack and park/wake
/// endpoint. `state` is the atomic state machine of the header comment; the
/// stack fields are touched only by whichever worker currently runs the
/// fiber (ownership passes through a lane mutex or a `state` CAS).
struct alignas(64) FiberScheduler::RankFiber final : Mailbox::Parker {
  enum class State : std::uint8_t {
    kReady,
    kRunning,
    kRunningWoken,
    kParked,
    kFinished
  };

  FiberScheduler* sched = nullptr;
  std::size_t index = 0;
  Task task;

  /// Stack pointer saved by the last switch out of this fiber.
  void* sp = nullptr;
  void* tsan_fiber = nullptr;
  /// The worker currently running this fiber: its saved stack pointer and
  /// TSan fiber are set at every dispatch (a parked fiber may resume on a
  /// different worker), its stack each time the fiber gains control.
  SwitchTarget worker;
  /// Stack leased from the StackPool at first dispatch, returned when the
  /// body finishes — unstarted and finished ranks hold no stack at all.
  StackPool::Allocation stack;
  bool started = false;
  /// Set just before the final switch-out, so the worker can tell
  /// "finished" from "parked".
  bool body_done = false;

  std::atomic<State> state{State::kReady};

  void park() override;
  void wake() override;

  /// Transfers control back to the owning worker.
  void switch_to_worker() {
    switch_context(&sp, worker, /*final=*/body_done, &worker);
  }
};

namespace {

/// One worker's ready lane. `size` mirrors `ready.size()` so that stealing
/// and the pre-sleep recheck skip empty lanes without taking their mutex.
struct alignas(64) Lane {
  std::mutex mutex;
  std::deque<std::size_t> ready;
  std::atomic<std::size_t> size{0};
  std::atomic<std::uint64_t> parks{0};  // fibers returning unfinished
  std::atomic<std::uint64_t> wakes{0};  // wake() calls from this worker
};

/// The pool worker this host thread is, if any.
struct WorkerSlot {
  const FiberScheduler* sched = nullptr;
  std::size_t lane = 0;
};

thread_local WorkerSlot t_worker;

/// Out of line so that a fiber which migrated between workers reads its
/// current host thread's slot, not an address cached before a switch.
[[gnu::noinline]] WorkerSlot current_worker() { return t_worker; }

}  // namespace

struct FiberScheduler::PoolState {
  explicit PoolState(std::size_t workers) : lanes(new Lane[workers]) {}

  std::unique_ptr<Lane[]> lanes;
  /// Ready plus running fibers; 0 with unfinished fibers left is a deadlock.
  alignas(64) std::atomic<std::size_t> runnable{0};
  std::atomic<std::size_t> finished{0};
  std::atomic<std::uint64_t> outside_wakes{0};  // wake() from non-workers
  std::atomic<bool> deadlock{false};
  std::atomic<bool> stop{false};
  // Eventcount of idle workers: a sleeper registers in `sleepers`, reads
  // `epoch`, rechecks the lanes, then waits for `epoch` to move. A push
  // bumps `epoch` under `sleep_mutex` only if someone sleeps.
  alignas(64) std::atomic<std::size_t> sleepers{0};
  std::atomic<std::uint64_t> epoch{0};
  std::mutex sleep_mutex;
  std::condition_variable sleep_cv;
};

extern "C" [[noreturn]] __attribute__((used, visibility("hidden"))) void
plin_xmpi_fiber_main(FiberScheduler::RankFiber* self) {
  finish_switch(nullptr, &self->worker);
  self->task.body();
  self->body_done = true;
  self->switch_to_worker();
  // A finished fiber is never resumed; reaching here means scheduler
  // corruption.
  std::abort();
}

void FiberScheduler::RankFiber::park() { switch_to_worker(); }

void FiberScheduler::RankFiber::wake() {
  PoolState& pool = *sched->pool_;
  const WorkerSlot slot = current_worker();
  const bool in_pool = slot.sched == sched;
  State current = state.load(std::memory_order_acquire);
  for (;;) {
    if (current == State::kFinished) return;
    if (current == State::kReady || current == State::kRunningWoken) break;
    const State next =
        current == State::kParked ? State::kReady : State::kRunningWoken;
    if (state.compare_exchange_weak(current, next, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      if (next == State::kReady) {
        // Count it runnable before it is visible in a lane, so no worker
        // can pop, park and decrement it first (a false zero).
        pool.runnable.fetch_add(1);
        sched->push_ready(in_pool ? slot.lane : index % sched->workers_,
                          index);
      }
      break;
    }
  }
  std::atomic<std::uint64_t>& wakes =
      in_pool ? pool.lanes[slot.lane].wakes : pool.outside_wakes;
  wakes.fetch_add(1, std::memory_order_relaxed);
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

  // No stacks yet: construction is O(tasks) pointer setup, and a fiber
  // leases its stack only when it is first dispatched. 100k ranks cost
  // ~100k lane entries here, not 100k mmaps.
  pool_ = new PoolState(workers_);
  pool_->runnable.store(fibers_.size());
  for (std::size_t i = 0; i < fibers_.size(); ++i) {
    RankFiber& fiber = fibers_[i];
    fiber.sched = this;
    fiber.index = i;
    fiber.task = std::move(tasks[i]);
    Lane& lane = pool_->lanes[i % workers_];
    lane.ready.push_back(i);
    lane.size.fetch_add(1, std::memory_order_relaxed);
  }
}

FiberScheduler::~FiberScheduler() {
  // Normal completion released everything in switched_out; this sweep
  // covers runs that never finished (exceptions, never-run schedulers).
  for (RankFiber& fiber : fibers_) {
    tsan_destroy_fiber(fiber.tsan_fiber);
    StackPool::instance().release(fiber.stack);
  }
  delete pool_;
}

Mailbox::Parker* FiberScheduler::parker(std::size_t index) {
  PLIN_CHECK(index < fibers_.size());
  return &fibers_[index];
}

bool FiberScheduler::deadlocked() const { return pool_->deadlock.load(); }

std::uint64_t FiberScheduler::park_count() const {
  std::uint64_t parks = 0;
  for (std::size_t i = 0; i < workers_; ++i) {
    parks += pool_->lanes[i].parks.load(std::memory_order_relaxed);
  }
  return parks;
}

std::uint64_t FiberScheduler::wake_count() const {
  std::uint64_t wakes = pool_->outside_wakes.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < workers_; ++i) {
    wakes += pool_->lanes[i].wakes.load(std::memory_order_relaxed);
  }
  return wakes;
}

void FiberScheduler::push_ready(std::size_t lane, std::size_t index) {
  Lane& target = pool_->lanes[lane];
  {
    std::lock_guard<std::mutex> lock(target.mutex);
    target.ready.push_back(index);
    target.size.fetch_add(1);
  }
  // Pairs with the sleeper's `sleepers` increment and lane recheck: either
  // the sleeper sees this entry, or this load sees the sleeper.
  if (pool_->sleepers.load() != 0) {
    {
      std::lock_guard<std::mutex> lock(pool_->sleep_mutex);
      pool_->epoch.fetch_add(1);
    }
    pool_->sleep_cv.notify_one();
  }
}

bool FiberScheduler::find_work(std::size_t lane, std::size_t& index) {
  // Own lane first, then steal from the others in order.
  for (std::size_t k = 0; k < workers_; ++k) {
    Lane& from = pool_->lanes[(lane + k) % workers_];
    if (from.size.load() == 0) continue;
    std::lock_guard<std::mutex> lock(from.mutex);
    if (from.ready.empty()) continue;
    index = from.ready.front();
    from.ready.pop_front();
    from.size.fetch_sub(1);
    return true;
  }
  return false;
}

bool FiberScheduler::wait_for_work(std::size_t lane, std::size_t& index) {
  PoolState& pool = *pool_;
  for (;;) {
    pool.sleepers.fetch_add(1);
    const std::uint64_t seen = pool.epoch.load();
    const bool found = find_work(lane, index);
    if (found || pool.stop.load()) {
      pool.sleepers.fetch_sub(1);
      return found;
    }
    {
      std::unique_lock<std::mutex> lock(pool.sleep_mutex);
      pool.sleep_cv.wait(lock, [&] { return pool.epoch.load() != seen; });
    }
    pool.sleepers.fetch_sub(1);
  }
}

void FiberScheduler::stop_workers() {
  pool_->stop.store(true);
  {
    std::lock_guard<std::mutex> lock(pool_->sleep_mutex);
    pool_->epoch.fetch_add(1);
  }
  pool_->sleep_cv.notify_all();
}

void FiberScheduler::leave_runnable() {
  // Every finisher counts itself finished before it leaves `runnable`, so
  // whoever takes `runnable` to 0 sees every earlier finish.
  if (pool_->runnable.fetch_sub(1) != 1) return;
  if (pool_->finished.load() == fibers_.size()) return;
  // Every unfinished rank is parked and nothing can wake them: a
  // simulated-communication deadlock. The callback typically calls
  // World::abort, whose interrupt path re-enters wake().
  if (!pool_->deadlock.exchange(true) && on_deadlock_) on_deadlock_();
}

void FiberScheduler::dispatch(RankFiber& fiber, void* worker_tsan) {
  if (!fiber.started) {
    // First dispatch: lease a stack and lay out its entry frame now. Ranks
    // that never run (abort before first dispatch) never pay for one.
    fiber.stack = StackPool::instance().acquire(stack_bytes_, guard_stacks_);
    fiber.sp = initial_frame(fiber.stack, &fiber);
    fiber.tsan_fiber = tsan_create_fiber();
    fiber.started = true;
  }
  fiber.worker.tsan_fiber = worker_tsan;
  // Measurement reads (simulated RAPL/PAPI) resolve through the host
  // thread's binding, so it must follow the rank onto whichever worker
  // dispatches it.
  trace::ScopedHardwareBinding binding(fiber.task.hw);
  switch_context(&fiber.worker.sp,
                 SwitchTarget{fiber.sp, fiber.tsan_fiber, fiber.stack.sp,
                              fiber.stack.bytes},
                 /*final=*/false, /*from=*/nullptr);
  // Control returns here when the fiber parks or finishes.
}

void FiberScheduler::switched_out(RankFiber& fiber, std::size_t lane) {
  using State = RankFiber::State;
  if (fiber.body_done) {
    // Recycle the stack immediately: the next wave of ranks leases it back
    // from the pool's free list instead of mapping fresh memory.
    tsan_destroy_fiber(fiber.tsan_fiber);
    fiber.tsan_fiber = nullptr;
    StackPool::instance().release(fiber.stack);
    fiber.state.store(State::kFinished, std::memory_order_release);
    if (pool_->finished.fetch_add(1) + 1 == fibers_.size()) stop_workers();
    leave_runnable();
    return;
  }
  pool_->lanes[lane].parks.fetch_add(1, std::memory_order_relaxed);
  State expected = State::kRunning;
  if (fiber.state.compare_exchange_strong(expected, State::kParked,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    leave_runnable();
    return;
  }
  // A wake raced with the switch-out (RunningWoken): skip Parked. Wakes on
  // RunningWoken are no-ops, so nothing else writes the state here.
  fiber.state.store(State::kReady, std::memory_order_release);
  push_ready(lane, fiber.index);
}

void FiberScheduler::worker_loop(std::size_t lane) {
  const WorkerSlot outer = t_worker;
  t_worker = WorkerSlot{this, lane};
  void* worker_tsan = tsan_current_fiber();
  std::size_t index = 0;
  while (find_work(lane, index) || wait_for_work(lane, index)) {
    RankFiber& fiber = fibers_[index];
    fiber.state.store(RankFiber::State::kRunning, std::memory_order_release);
    dispatch(fiber, worker_tsan);
    switched_out(fiber, lane);
  }
  t_worker = outer;
}

void FiberScheduler::run() {
  if (workers_ == 1) {
    // Degenerate pool: run the scheduler loop on the calling thread and
    // skip the spawn entirely (also the single-CPU default).
    worker_loop(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers_);
  for (std::size_t i = 0; i < workers_; ++i) {
    pool.emplace_back([this, i] { worker_loop(i); });
  }
  for (std::thread& worker : pool) worker.join();
}

}  // namespace plin::xmpi
