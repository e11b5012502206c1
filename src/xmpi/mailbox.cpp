#include "xmpi/mailbox.hpp"

#include <cstring>
#include <limits>
#include <utility>

namespace plin::xmpi {

Mailbox::ChannelKey Mailbox::channel_floor(std::uint64_t context) {
  return {context, std::numeric_limits<int>::min(),
          std::numeric_limits<int>::min()};
}

bool Mailbox::satisfies(const Envelope& envelope, const PendingRecv& pending) {
  if (envelope.context != pending.context) return false;
  if (pending.src != kAnySource && envelope.src != pending.src) return false;
  if (pending.tag != kAnyTag && envelope.tag != pending.tag) return false;
  return true;
}

void Mailbox::post(Envelope&& envelope) {
  Parker* to_wake = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const ChannelKey key{envelope.context, envelope.src, envelope.tag};
    const bool wake = pending_.active && satisfies(envelope, pending_);
    channels_[key].push_back(Item{std::move(envelope), next_seq_++});
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
    // consume *this* message: the pending receive is exact (no wildcard
    // re-pick can intervene), sizes agree, and its channel has no earlier
    // message queued ahead of us.
    if (wake && pending_.has_dest &&
        pending_.src != kAnySource && pending_.tag != kAnyTag &&
        pending_.dest.size() == data.size() &&
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
    channels_[key].push_back(Item{std::move(envelope), next_seq_++});
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
  if (src != kAnySource && tag != kAnyTag) {
    // Exact receive — the hot path for all solver traffic: one map lookup,
    // pop the channel FIFO front.
    const auto it = channels_.find(ChannelKey{context, src, tag});
    if (it == channels_.end()) return std::nullopt;
    Envelope envelope = std::move(it->second.front().envelope);
    it->second.pop_front();
    if (it->second.empty()) channels_.erase(it);
    return envelope;
  }

  // Wildcard receive: scan every queued message in the matching channels
  // and take the one with the earliest virtual arrival, ties broken by
  // lowest source then earliest post. Scanning whole channels (not just
  // fronts) keeps the pick exact even when a sender's later message
  // carries an equal arrival stamp.
  auto best_channel = channels_.end();
  std::size_t best_index = 0;
  const Item* best = nullptr;
  const auto begin = channels_.lower_bound(channel_floor(context));
  for (auto it = begin; it != channels_.end() && it->first.context == context;
       ++it) {
    if (src != kAnySource && it->first.src != src) continue;
    if (tag != kAnyTag && it->first.tag != tag) continue;
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      const Item& item = it->second[i];
      const bool better =
          best == nullptr ||
          item.envelope.arrival_time < best->envelope.arrival_time ||
          (item.envelope.arrival_time == best->envelope.arrival_time &&
           (item.envelope.src < best->envelope.src ||
            (item.envelope.src == best->envelope.src &&
             item.seq < best->seq)));
      if (better) {
        best_channel = it;
        best_index = i;
        best = &item;
      }
    }
  }
  if (best == nullptr) return std::nullopt;
  Envelope envelope = std::move(best_channel->second[best_index].envelope);
  best_channel->second.erase_at(best_index);
  if (best_channel->second.empty()) channels_.erase(best_channel);
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
  if (src != kAnySource && tag != kAnyTag) {
    return channels_.find(ChannelKey{context, src, tag}) != channels_.end();
  }
  const auto begin = channels_.lower_bound(channel_floor(context));
  for (auto it = begin; it != channels_.end() && it->first.context == context;
       ++it) {
    if (src != kAnySource && it->first.src != src) continue;
    if (tag != kAnyTag && it->first.tag != tag) continue;
    return true;  // channels are non-empty by invariant
  }
  return false;
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
