// StackPool — process-global slab allocator for fiber stacks.
//
// The fiber scheduler used to mmap one guard-paged mapping per rank, which
// has two walls at 100k ranks: every mapping plus its PROT_NONE guard is
// two kernel VMAs (vm.max_map_count defaults to 65530), and 100k mmap /
// munmap pairs dominate spawn time. The pool instead carves stacks out of
// slabs of kSlotsPerSlab stacks per mmap and recycles freed stacks through
// a free list, so a wave of short-lived ranks reuses a handful of stacks
// and spawn throughput is bounded by context setup, not the kernel.
//
// Two slab geometries (see Scheduler's PLIN_XMPI_STACK_GUARD knob):
//   - guarded: every stack gets its own PROT_NONE guard page below it
//     (overflow faults immediately). ~2 VMAs per *live* stack — the right
//     default up to a few thousand concurrent stacks.
//   - unguarded: one guard page below the whole slab; interior stacks are
//     contiguous, so an overflow from slot i scribbles into slot i-1
//     instead of faulting. ~1 VMA per 64 stacks — required above the
//     max_map_count wall, acceptable because ranks at that scale run
//     shallow harness workloads.
//
// Slabs are MAP_NORESERVE and released stacks are madvise(MADV_DONTNEED),
// so committed memory tracks the deepest concurrently-live stacks, not the
// total rank count. Slabs themselves are never unmapped: the pool is a
// process-wide cache shared by successive runs.
#pragma once

#include <cstddef>
#include <cstdint>

namespace plin::xmpi {

class StackPool {
 public:
  /// One leased stack: `sp` is the lowest usable byte (the stack grows
  /// down from `sp + bytes`), `bytes` the usable size.
  struct Allocation {
    unsigned char* sp = nullptr;
    std::size_t bytes = 0;
    bool guarded = false;
    bool valid() const { return sp != nullptr; }
  };

  /// Cumulative counters since process start (host diagnostics only).
  struct Stats {
    std::uint64_t slabs = 0;         // slabs ever mapped
    std::uint64_t mapped_bytes = 0;  // virtual bytes under slabs
    std::uint64_t served = 0;        // acquire() calls
    std::uint64_t reuse_hits = 0;    // served from the free list
    std::uint64_t live = 0;          // currently leased
    std::uint64_t peak_live = 0;     // high-water mark of live
  };

  static StackPool& instance();

  /// Leases a stack of at least `stack_bytes` usable bytes (rounded up to
  /// the page size). Same-geometry (size, guardedness) frees are reused
  /// first; otherwise a slot is carved from the current slab, mapping a
  /// new slab when full.
  Allocation acquire(std::size_t stack_bytes, bool guarded);

  /// Returns a leased stack to the free list and drops its committed
  /// pages. `alloc` is reset to empty.
  void release(Allocation& alloc);

  Stats stats() const;

  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

 private:
  StackPool();
  ~StackPool();

  struct Impl;
  Impl* impl_;
};

}  // namespace plin::xmpi
