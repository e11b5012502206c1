#include "xmpi/pool.hpp"

#include <utility>

namespace plin::xmpi {

void PayloadBuffer::reset() {
  if (data_ != nullptr) {
    if (pool_ != nullptr) pool_->note_release(size_);
    if (pool_ != nullptr && size_class_ >= 0) {
      pool_->recycle(data_, capacity_, size_class_);
    } else {
      delete[] data_;
    }
  }
  data_ = nullptr;
  size_ = 0;
  capacity_ = 0;
  size_class_ = -1;
  pool_ = nullptr;
}

PayloadPool::~PayloadPool() {
  for (SizeClass& size_class : classes_) {
    for (std::byte* buffer : size_class.free_list) delete[] buffer;
  }
}

int PayloadPool::class_of(std::size_t bytes) {
  std::size_t capacity = kMinClassBytes;
  for (int c = 0; c < kClassCount; ++c) {
    if (bytes <= capacity) return c;
    capacity <<= 1;
  }
  return -1;
}

std::size_t PayloadPool::class_capacity(int size_class) {
  return kMinClassBytes << size_class;
}

PayloadBuffer PayloadPool::acquire(std::size_t bytes) {
  PayloadBuffer buffer;
  if (bytes == 0) return buffer;
  buffer.pool_ = this;
  buffer.size_ = bytes;
  note_live(bytes);

  const int size_class = class_of(bytes);
  if (size_class >= 0) {
    buffer.size_class_ = size_class;
    buffer.capacity_ = class_capacity(size_class);
    SizeClass& entry = classes_[size_class];
    {
      std::lock_guard<std::mutex> lock(entry.mutex);
      if (!entry.free_list.empty()) {
        buffer.data_ = entry.free_list.back();
        entry.free_list.pop_back();
      }
    }
    if (buffer.data_ != nullptr) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return buffer;
    }
    buffer.data_ = new std::byte[buffer.capacity_];
  } else {
    // Oversize: plain heap buffer, still tracked for the peak footprint
    // counter.
    buffer.capacity_ = bytes;
    buffer.data_ = new std::byte[bytes];
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return buffer;
}

void PayloadPool::recycle(std::byte* data, std::size_t capacity,
                          int size_class) {
  SizeClass& entry = classes_[size_class];
  {
    std::lock_guard<std::mutex> lock(entry.mutex);
    if (entry.free_list.size() < kMaxCachedPerClass) {
      entry.free_list.push_back(data);
      recycled_buffers_.fetch_add(1, std::memory_order_relaxed);
      recycled_bytes_.fetch_add(capacity, std::memory_order_relaxed);
      return;
    }
  }
  delete[] data;
}

void PayloadPool::note_live(std::size_t payload_bytes) {
  const std::uint64_t live =
      live_payload_bytes_.fetch_add(payload_bytes, std::memory_order_relaxed) +
      payload_bytes;
  std::uint64_t peak = peak_payload_bytes_.load(std::memory_order_relaxed);
  while (live > peak && !peak_payload_bytes_.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void PayloadPool::note_release(std::size_t payload_bytes) {
  live_payload_bytes_.fetch_sub(payload_bytes, std::memory_order_relaxed);
}

PoolStats PayloadPool::stats() const {
  PoolStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.recycled_buffers = recycled_buffers_.load(std::memory_order_relaxed);
  stats.recycled_bytes = recycled_bytes_.load(std::memory_order_relaxed);
  stats.peak_payload_bytes =
      peak_payload_bytes_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace plin::xmpi
