// PayloadPool — size-classed recycling allocator for message payload
// buffers.
//
// Every eager message needs a host-side buffer that lives from the send
// until the matching receive consumes it. The original transport
// heap-allocated a fresh std::vector per message and dropped it on the
// allocator after the receive-side copy, so a 1296-rank campaign paid a
// malloc/free round trip (and the attendant allocator-lock traffic) for
// every one of its millions of messages. The pool recycles those buffers
// instead: freed payload storage parks on a per-size-class free list and
// the next send of a similar size reuses it.
//
// Size classes are powers of two from 64 B to 4 MiB; larger payloads fall
// back to plain heap allocation (counted as misses). Each class keeps at
// most `kMaxCachedPerClass` buffers — beyond that, returned storage is
// freed, so a burst of huge broadcasts cannot pin memory forever.
//
// Buffers are handed out as RAII PayloadBuffer handles that return their
// storage on destruction, which is what makes the receive path leak-free
// by construction: consuming an envelope recycles its buffer.
//
// All host-side only: the pool never touches virtual clocks, the energy
// ledger or message ordering, so simulated outputs do not depend on which
// acquires hit the free lists.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace plin::xmpi {

/// Snapshot of pool counters (all monotonic, relaxed atomics — exact once
/// the run has quiesced, e.g. when read from RunResult).
struct PoolStats {
  std::uint64_t hits = 0;    ///< acquisitions served from a free list
  std::uint64_t misses = 0;  ///< heap allocations (cold or oversize)
  std::uint64_t recycled_buffers = 0;  ///< returns parked for reuse
  std::uint64_t recycled_bytes = 0;    ///< capacity bytes of those returns
  /// High-water mark of simultaneously live payload bytes across the run
  /// (pooled and heap buffers alike) — the transport's memory footprint.
  std::uint64_t peak_payload_bytes = 0;

  std::uint64_t acquires() const { return hits + misses; }
};

class PayloadPool;

/// RAII handle to one message payload buffer. Move-only; empty (data() ==
/// nullptr) for zero-byte messages. Destruction returns the storage to the
/// owning pool's free list (or the heap when the buffer is oversize).
class PayloadBuffer {
 public:
  PayloadBuffer() = default;
  PayloadBuffer(PayloadBuffer&& other) noexcept { steal(other); }
  PayloadBuffer& operator=(PayloadBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  PayloadBuffer(const PayloadBuffer&) = delete;
  PayloadBuffer& operator=(const PayloadBuffer&) = delete;
  ~PayloadBuffer() { reset(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }

  /// Releases the storage back to the pool (or heap) and empties the
  /// handle.
  void reset();

 private:
  friend class PayloadPool;

  void steal(PayloadBuffer& other) {
    data_ = other.data_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    size_class_ = other.size_class_;
    pool_ = other.pool_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
    other.size_class_ = -1;
    other.pool_ = nullptr;
  }

  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  int size_class_ = -1;  // -1 → not poolable, free with delete[]
  PayloadPool* pool_ = nullptr;
};

class PayloadPool {
 public:
  static constexpr std::size_t kMinClassBytes = 64;
  static constexpr int kClassCount = 17;  // 64 B, 128 B, ..., 4 MiB
  /// Buffers parked per size class before returns fall through to free.
  static constexpr std::size_t kMaxCachedPerClass = 256;

  PayloadPool() = default;
  ~PayloadPool();
  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;

  /// Returns a buffer of logical size `bytes` (capacity is the size
  /// class). Contents are uninitialized. Thread-safe.
  PayloadBuffer acquire(std::size_t bytes);

  PoolStats stats() const;

  /// Size class index for a payload, or -1 when it exceeds the largest
  /// class (exposed for tests).
  static int class_of(std::size_t bytes);
  static std::size_t class_capacity(int size_class);

 private:
  friend class PayloadBuffer;

  void recycle(std::byte* data, std::size_t capacity, int size_class);
  void note_release(std::size_t payload_bytes);
  void note_live(std::size_t payload_bytes);

  struct SizeClass {
    std::mutex mutex;
    std::vector<std::byte*> free_list;
  };

  SizeClass classes_[kClassCount];
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> recycled_buffers_{0};
  std::atomic<std::uint64_t> recycled_bytes_{0};
  std::atomic<std::uint64_t> live_payload_bytes_{0};
  std::atomic<std::uint64_t> peak_payload_bytes_{0};
};

}  // namespace plin::xmpi
