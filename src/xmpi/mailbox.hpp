// Mailbox — per-rank message store with blocking matched receive.
//
// Matching is exact: a receive names one (context, source, tag) triple and
// takes the oldest message of that channel (MPI's non-overtaking FIFO
// order). There are no wildcard receives, so which message a receive
// consumes never depends on what happens to be queued on the host when it
// matches. Messages are indexed by channel — a sorted map from
// (context, src, tag) to a FIFO — so every match is a single map lookup.
//
// Blocking is pluggable. A receiver first registers its pending match
// under the mailbox lock, then either
//   - parks through the installed Mailbox::Parker — the runtime always
//     installs one: in the worker pool the rank's fiber yields its host
//     worker and is resumed by the scheduler when a matching message
//     arrives, and in a 1-rank world the parker raises the deadlock
//     error, because no other rank could ever send — or
//   - waits on the mailbox condition variable, for code that drives a
//     Mailbox directly from plain threads (the mailbox unit tests).
// Either way `post` performs a *targeted* single-waiter wakeup — it wakes
// the owner only when the new envelope actually satisfies the registered
// pending receive (a mailbox has exactly one legal waiter: its owner).
//
// The transport has two delivery paths (docs/xmpi.md):
//   - eager: the sender copies the payload into a buffer acquired from the
//     world's PayloadPool and enqueues the envelope;
//   - rendezvous (zero-copy): when the owner is already blocked in a
//     receive whose destination buffer is registered, the payload matches
//     the registered size, and the target channel is empty — i.e. FIFO
//     order proves this message is the one that receive will consume —
//     the sender writes straight into the receiver's destination span and
//     enqueues only the envelope metadata.
//
// Virtual timing is carried by the `arrival_time` stamp computed by the
// sender.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "support/error.hpp"
#include "xmpi/pool.hpp"
#include "xmpi/types.hpp"

namespace plin::xmpi {

/// Raised in every blocked rank when World::abort fires (a peer threw).
class Aborted : public Error {
 public:
  Aborted() : Error("xmpi run aborted by a peer rank") {}
};

struct Envelope {
  int src = 0;  // sender's rank within the message's communicator
  int tag = 0;
  std::uint64_t context = 0;  // communicator context id
  double arrival_time = 0.0;  // virtual time the payload is available
  /// Sender identity for the span tracer (src/prof): world rank plus the
  /// sender-local message sequence number, which names the matching send
  /// span in the critical-path dependency graph. send_seq is 0 when
  /// tracing is off.
  int src_world = 0;
  std::uint64_t send_seq = 0;
  /// Payload size in bytes — authoritative even when `payload` is empty
  /// because the bytes were rendezvous-delivered in place.
  std::size_t bytes = 0;
  /// True when the sender already wrote the payload into the matched
  /// receiver's destination buffer (zero-copy rendezvous path).
  bool inplace = false;
  PayloadBuffer payload;
};

class Mailbox {
 public:
  /// Scheduler hook: how the owning rank blocks and how senders resume
  /// it. wake() may race with a park() that is still switching out;
  /// implementations must tolerate that (two-phase parking) as well as
  /// spurious wake() calls on a non-parked rank. park() may throw to
  /// abandon the receive; the exception leaves match().
  class Parker {
   public:
    virtual ~Parker() = default;
    /// Blocks the calling rank. Called with no mailbox lock held.
    virtual void park() = 0;
    /// Makes the parked rank runnable again. Called by senders (with no
    /// mailbox lock held) and by interrupt().
    virtual void wake() = 0;
  };

  /// Installs (or clears, with nullptr) the parking strategy of the owning
  /// rank. Must not be called while a receive is in flight.
  void set_parker(Parker* parker) {
    std::lock_guard<std::mutex> lock(mutex_);
    parker_ = parker;
  }

  /// Enqueues a pre-built envelope (eager path; also the raw hook tests
  /// drive directly). The payload, if any, must already be attached.
  void post(Envelope&& envelope);

  /// Transport entry point for senders: attaches `data` to `envelope` and
  /// enqueues it. Takes the zero-copy rendezvous path when the registered
  /// pending receive provably matches this message (see the header
  /// comment); otherwise copies into a buffer from `pool`. Returns true
  /// when the rendezvous path was taken.
  bool deliver(Envelope&& envelope, std::span<const std::byte> data,
               PayloadPool& pool);

  /// Blocks until a message of channel (src, tag, context) is present and
  /// removes the oldest one. Throws Aborted if the abort flag fires.
  ///
  /// `dest` is the receive buffer registered for rendezvous delivery; when
  /// the returned envelope has `inplace` set the payload is already there.
  /// The dest-less overload never offers rendezvous.
  Envelope match(int src, int tag, std::uint64_t context,
                 std::span<std::byte> dest,
                 const std::atomic<bool>& abort_flag);
  Envelope match(int src, int tag, std::uint64_t context,
                 const std::atomic<bool>& abort_flag);

  /// Non-blocking probe: true if a message of channel (src, tag, context)
  /// is currently queued (MPI_Iprobe semantics).
  bool probe(int src, int tag, std::uint64_t context);

  /// Wakes the blocked matcher, if any (used by World::abort).
  void interrupt();

 private:
  struct ChannelKey {
    std::uint64_t context = 0;
    int src = 0;
    int tag = 0;

    bool operator<(const ChannelKey& other) const {
      if (context != other.context) return context < other.context;
      if (src != other.src) return src < other.src;
      return tag < other.tag;
    }
  };

  /// Vector-backed FIFO with a head cursor. A std::deque here cost ~0.5
  /// KiB of chunk map per channel even when holding a single item; with
  /// one channel per active peer/tag pair across 100k mailboxes that
  /// overhead dominated rank state. Channels rarely hold more than a
  /// couple of in-flight messages, so a vector plus lazy head compaction
  /// is both smaller and faster.
  class EnvelopeFifo {
   public:
    bool empty() const { return head_ == items_.size(); }
    Envelope& front() { return items_[head_]; }

    void push_back(Envelope&& envelope) {
      items_.push_back(std::move(envelope));
    }

    void pop_front() {
      ++head_;
      if (head_ == items_.size()) {
        items_.clear();
        head_ = 0;
      } else if (head_ >= 16 && head_ * 2 >= items_.size()) {
        items_.erase(items_.begin(),
                     items_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    }

   private:
    std::vector<Envelope> items_;
    std::size_t head_ = 0;
  };

  /// The receive the owner is currently blocked on (at most one). `dest`
  /// is registered only by the dest-aware match overload; senders may
  /// write through it solely under the mailbox lock while `active` (the
  /// owner is parked for the whole time, so the store is ordered before
  /// the owner's wakeup re-acquires the lock).
  struct PendingRecv {
    int src = 0;
    int tag = 0;
    std::uint64_t context = 0;
    bool active = false;
    bool has_dest = false;
    std::span<std::byte> dest{};
  };

  Envelope match_impl(int src, int tag, std::uint64_t context, bool has_dest,
                      std::span<std::byte> dest,
                      const std::atomic<bool>& abort_flag);
  std::optional<Envelope> try_match_locked(int src, int tag,
                                           std::uint64_t context);
  static bool satisfies(const Envelope& envelope, const PendingRecv& pending);

  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<ChannelKey, EnvelopeFifo> channels_;  // non-empty FIFOs only
  PendingRecv pending_;
  Parker* parker_ = nullptr;
};

}  // namespace plin::xmpi
