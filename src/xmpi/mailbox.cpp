#include "xmpi/mailbox.hpp"

#include <cstring>
#include <utility>

namespace plin::xmpi {

bool Mailbox::satisfies(const Envelope& envelope, const PendingRecv& pending) {
  return envelope.context == pending.context && envelope.src == pending.src &&
         envelope.tag == pending.tag;
}

void Mailbox::post(Envelope&& envelope) {
  Parker* to_wake = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const ChannelKey key{envelope.context, envelope.src, envelope.tag};
    const bool wake = pending_.active && satisfies(envelope, pending_);
    channels_[key].push_back(std::move(envelope));
    if (wake) {
      // Deactivate so later posts stop re-waking until the receiver
      // re-registers; the receiver re-arms on every retry.
      pending_.active = false;
      if (parker_ != nullptr) {
        to_wake = parker_;
      } else {
        cv_.notify_one();  // the owner is the only possible waiter
      }
    }
  }
  // Parker::wake outside the mailbox lock: it takes scheduler locks and
  // may be called from a rank that the woken rank immediately posts back
  // to.
  if (to_wake != nullptr) to_wake->wake();
}

bool Mailbox::deliver(Envelope&& envelope, std::span<const std::byte> data,
                      PayloadPool& pool) {
  envelope.bytes = data.size();
  Parker* to_wake = nullptr;
  bool taken = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const ChannelKey key{envelope.context, envelope.src, envelope.tag};
    const bool wake = pending_.active && satisfies(envelope, pending_);
    // Rendezvous only when FIFO order proves the registered receive will
    // consume *this* message: sizes agree and its channel has no earlier
    // message queued ahead of us.
    if (wake && pending_.has_dest && pending_.dest.size() == data.size() &&
        channels_.find(key) == channels_.end()) {
      if (!data.empty()) {
        std::memcpy(pending_.dest.data(), data.data(), data.size());
      }
      envelope.inplace = true;
      taken = true;
    } else if (!data.empty()) {
      envelope.payload = pool.acquire(data.size());
      std::memcpy(envelope.payload.data(), data.data(), data.size());
    }
    channels_[key].push_back(std::move(envelope));
    if (wake) {
      pending_.active = false;
      if (parker_ != nullptr) {
        to_wake = parker_;
      } else {
        cv_.notify_one();
      }
    }
  }
  if (to_wake != nullptr) to_wake->wake();
  return taken;
}

std::optional<Envelope> Mailbox::try_match_locked(int src, int tag,
                                                  std::uint64_t context) {
  const auto it = channels_.find(ChannelKey{context, src, tag});
  if (it == channels_.end()) return std::nullopt;
  Envelope envelope = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) channels_.erase(it);
  return envelope;
}

Envelope Mailbox::match_impl(int src, int tag, std::uint64_t context,
                             bool has_dest, std::span<std::byte> dest,
                             const std::atomic<bool>& abort_flag) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (abort_flag.load(std::memory_order_acquire)) throw Aborted();
    if (auto envelope = try_match_locked(src, tag, context)) {
      return std::move(*envelope);
    }
    // Register what we are waiting for so post() can do a targeted wakeup
    // (and deliver() an in-place write), then block. Registration happens
    // under the lock, before blocking, so a post that lands in between
    // still sees the pending receive.
    pending_ = PendingRecv{src, tag, context, true, has_dest, dest};
    if (parker_ != nullptr) {
      Parker* parker = parker_;
      lock.unlock();  // never hold a mutex across a fiber switch
      try {
        parker->park();
      } catch (...) {
        // The receive is abandoned: drop the registration so no later
        // post targets it or writes into its destination buffer.
        lock.lock();
        pending_ = PendingRecv{};
        throw;
      }
      lock.lock();
    } else {
      cv_.wait(lock);
    }
    pending_.active = false;
    pending_.has_dest = false;
  }
}

Envelope Mailbox::match(int src, int tag, std::uint64_t context,
                        std::span<std::byte> dest,
                        const std::atomic<bool>& abort_flag) {
  return match_impl(src, tag, context, /*has_dest=*/true, dest, abort_flag);
}

Envelope Mailbox::match(int src, int tag, std::uint64_t context,
                        const std::atomic<bool>& abort_flag) {
  return match_impl(src, tag, context, /*has_dest=*/false, {}, abort_flag);
}

bool Mailbox::probe(int src, int tag, std::uint64_t context) {
  std::lock_guard<std::mutex> lock(mutex_);
  return channels_.find(ChannelKey{context, src, tag}) != channels_.end();
}

void Mailbox::interrupt() {
  Parker* to_wake = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Wake regardless of pending state: the owner must observe the abort
    // flag even if it blocked without a registration we can match.
    pending_.active = false;
    to_wake = parker_;
    cv_.notify_all();
  }
  if (to_wake != nullptr) to_wake->wake();
}

}  // namespace plin::xmpi
