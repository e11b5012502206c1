// Comm — the communicator handle ranks program against. Mirrors the MPI
// surface the paper's framework uses: point-to-point send/recv, barrier,
// broadcast, reductions, gather, comm_split and comm_split_type(SHARED),
// plus the compute() hook that advances the rank's virtual clock and feeds
// the energy ledger.
//
// Collectives are implemented on top of point-to-point messages (binomial
// trees, dissemination barrier), so their virtual-time cost and message
// counts emerge from the same Hockney model as user traffic.
#pragma once

#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "xmpi/world.hpp"

namespace plin::xmpi {

namespace detail {

/// One reduction step with a fixed operand order: `lower` is the
/// contribution of the lower-ranked subtree. Every schedule (seed binomial
/// tree, reduce-scatter+allgather, recursive doubling) funnels its
/// combines through this helper with rank-ordered operands, which is what
/// keeps floating-point results bit-identical across schedules on
/// power-of-two communicators (docs/xmpi.md).
template <typename T>
inline T combine_one(ReduceOp op, const T& lower, const T& upper) {
  switch (op) {
    case ReduceOp::kSum: return lower + upper;
    case ReduceOp::kMax: return lower < upper ? upper : lower;
    case ReduceOp::kMin: return upper < lower ? upper : lower;
  }
  return lower;
}

/// Largest member count for which the scalable allgather uses the ring
/// schedule; above it the P-1 latency terms dominate and Bruck's
/// log-round schedule takes over (same per-rank volume).
inline constexpr int kRingAllgatherMaxRanks = 128;

/// Largest power of two <= size (size >= 1).
inline int floor_pof2(int size) {
  int pof2 = 1;
  while (pof2 * 2 <= size) pof2 *= 2;
  return pof2;
}

/// One block of the binary-blocks decomposition: comm ranks
/// [base, base + size) with `size` a power of two.
struct Block {
  int base = 0;
  int size = 0;
};

/// Decomposes P into blocks of strictly decreasing power-of-two sizes (the
/// binary digits of P), assigned in rank order. The seed binomial tree
/// clipped to P ranks combines exactly block-by-block: with B_b the full
/// binomial bracketing over block b's members and F_b = B_b op F_{b+1}
/// (block b always the lower operand), the tree's root value is F_0. The
/// scalable schedules reproduce that decomposition distributedly, which is
/// what makes them bit-identical to the tree at *every* P, not just powers
/// of two (docs/xmpi.md).
inline std::vector<Block> binary_blocks(int size) {
  std::vector<Block> blocks;
  int base = 0;
  int remaining = size;
  while (remaining > 0) {
    const int m = floor_pof2(remaining);
    blocks.push_back(Block{base, m});
    base += m;
    remaining -= m;
  }
  return blocks;
}

/// Element range [lo, hi) that block-local rank `c` owns after the full
/// vector-halving recursion over a block of `m` ranks: bit k of c picks the
/// upper/lower half of split k, with the odd element (if any) going to the
/// lower half — the same `mid = lo + (hi - lo + 1) / 2` rule the
/// reduce-scatter rounds apply. Because block sizes divide each other, a
/// finer block's range refines the coarser owner's range for the local
/// rank c mod m_coarse — the property the cross-block fold routes by.
inline void halving_range(int c, int m, std::size_t count, std::size_t& lo,
                          std::size_t& hi) {
  lo = 0;
  hi = count;
  for (int mask = 1; mask < m; mask <<= 1) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if ((c & mask) == 0) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
}

}  // namespace detail

class Comm {
 public:
  /// The world communicator for `world_rank`. Runtime::run constructs one
  /// per rank thread; user code obtains sub-communicators via split.
  Comm(World* world, int world_rank);

  int rank() const { return rank_; }
  int size() const {
    return group_.empty() ? world_->size() : static_cast<int>(group_.size());
  }
  World& world() const { return *world_; }

  int world_rank() const {
    return group_.empty() ? rank_ : group_[static_cast<std::size_t>(rank_)];
  }
  int world_rank_of(int comm_rank) const;
  hw::RankLocation my_location() const;
  int my_node() const { return my_location().node; }

  /// This rank's virtual clock value.
  double now() const;

  // -- local work -----------------------------------------------------------

  /// Advances virtual time by the cost of `cost` (max of flop time and
  /// memory time, honoring any active package power cap) and records the
  /// energy segment.
  void compute(const ComputeCost& cost);

  /// Pure memory phase (allocation, deallocation, touch): time = bytes over
  /// this rank's share of socket bandwidth.
  void memory_touch(double bytes);

  /// Advances this rank's virtual clock by `dt` seconds of idle waiting
  /// (kCommWait power) — the building block for polling/sampling loops.
  void idle_wait(double dt);

  // -- span tracing (src/prof) ------------------------------------------------

  /// Opens / closes a named phase bracket on this rank's span recorder.
  /// Brackets nest; solver and monitor code mark their algorithmic phases
  /// with these so the tracer can attribute time and energy
  /// (docs/tracing.md). No-ops when tracing is disabled; never advance
  /// virtual time or touch the energy ledger.
  void prof_phase_begin(std::string_view name);
  void prof_phase_end();

  /// Records a zero-length marker (PAPI read points and the like).
  void prof_instant(std::string_view name);

  // -- point-to-point ---------------------------------------------------------

  template <typename T>
  void send(std::span<const T> data, int dst, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_impl(std::as_bytes(data), dst, tag, /*control=*/false);
  }

  template <typename T>
  void send_value(const T& value, int dst, int tag) {
    send(std::span<const T>(&value, 1), dst, tag);
  }

  /// Receives the oldest message of channel (src, tag); its size must be
  /// exactly `data`'s.
  template <typename T>
  void recv(std::span<T> data, int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    recv_impl(std::as_writable_bytes(data), src, tag);
  }

  template <typename T>
  T recv_value(int src, int tag) {
    T value{};
    recv(std::span<T>(&value, 1), src, tag);
    return value;
  }

  /// MPI_Sendrecv: pairwise exchange with `peer` — the send is buffered,
  /// so symmetric calls cannot deadlock. Buffers must not alias.
  template <typename T>
  void sendrecv(std::span<const T> send_data, std::span<T> recv_data,
                int peer, int tag) {
    send(send_data, peer, tag);
    recv(recv_data, peer, tag);
  }

  /// MPI_Iprobe: true if a matching message is already queued. Does not
  /// advance virtual time (a real iprobe's cost is well under the model's
  /// resolution); combine with a clock-advancing activity in polling loops.
  bool iprobe(int src, int tag);

  // -- nonblocking point-to-point ---------------------------------------------

  /// Buffered nonblocking send: the payload is copied and on the wire when
  /// this returns, so the request is complete immediately (MPI_Ibsend
  /// semantics — our transport is buffered by construction).
  template <typename T>
  class Request isend(std::span<const T> data, int dst, int tag);

  /// isend(), but the message is also counted as halo-exchange traffic
  /// (TrafficCounters::halo_*) — the per-iteration ghost payloads the CG
  /// solver ships. Identical timing/energy accounting to isend().
  template <typename T>
  class Request isend_halo(std::span<const T> data, int dst, int tag);

  /// Nonblocking receive: registers the buffer; completion (and the
  /// virtual-time accounting of the receive) happens at test()/wait().
  /// The buffer and this Comm must outlive the request.
  template <typename T>
  class Request irecv(std::span<T> data, int src, int tag);

  // -- collectives -------------------------------------------------------------

  /// Dissemination barrier; aligns host threads and (approximately) virtual
  /// clocks of all members.
  void barrier();

  /// Binomial-tree broadcast. `stream` selects an independent FIFO channel
  /// (see internal_tag::kBcastStreamBase); broadcasts within one stream
  /// must be issued in the same order by every rank, but different streams
  /// are unordered relative to each other.
  template <typename T>
  void bcast(std::span<T> data, int root, int stream = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    bcast_impl(std::as_writable_bytes(data), root, stream);
  }

  template <typename T>
  void bcast_value(T& value, int root, int stream = 0) {
    bcast(std::span<T>(&value, 1), root, stream);
  }

  /// Element-wise tree reduction of `data` into `out` at `root` (out is
  /// ignored on other ranks; may alias data on the root).
  template <typename T>
  void reduce(std::span<const T> data, std::span<T> out, ReduceOp op,
              int root);

  /// Every rank ends with the element-wise reduction of all
  /// contributions. Two schedules (CollectiveMode, docs/xmpi.md):
  ///   - kTree (default): reduce to rank 0 + broadcast — the seed
  ///     schedule; canonical outputs depend on its virtual timing.
  ///   - kScalable: binary-blocks reduce-scatter + allgather (vector
  ///     halving) for vectors with at least one element per rank of the
  ///     largest block, binary-blocks recursive doubling for shorter
  ///     ones. No rank moves more than ~2x the vector, instead of the
  ///     root's 2·(P-1)·n funnel. Both schedules reproduce the seed
  ///     tree's rank-ordered combine bracketing block by block, so the
  ///     result is bit-identical to kTree at *every* communicator size,
  ///     power of two or not (docs/xmpi.md, xmpi_scale_test).
  template <typename T>
  void allreduce(std::span<const T> data, std::span<T> out, ReduceOp op) {
    static_assert(std::is_trivially_copyable_v<T>);
    PLIN_CHECK_MSG(out.size() == data.size(),
                   "allreduce output span has wrong size");
    if (world_->collective_mode() == CollectiveMode::kScalable) {
      allreduce_scalable(data, out, op);
      return;
    }
    reduce(data, out, op, 0);
    bcast(out, 0);
  }

  template <typename T>
  T allreduce_value(T value, ReduceOp op) {
    T out{};
    allreduce(std::span<const T>(&value, 1), std::span<T>(&out, 1), op);
    return out;
  }

  /// MPI_MAXLOC equivalent for distributed pivot search: returns the
  /// globally largest |value| with the owning index (ties: lowest index).
  /// Templated over the scalar so the fp32 pivot search of the mixed
  /// solver shares the strict-total-order and NaN contracts with fp64
  /// (xmpi_collectives_test pins both payload widths); MaxLoc keeps the
  /// historical double spelling.
  template <typename T>
  struct MaxLocT {
    T value = T(0);
    long long index = 0;
  };
  using MaxLoc = MaxLocT<double>;
  MaxLoc allreduce_maxloc(double value, long long index);
  MaxLocT<float> allreduce_maxloc(float value, long long index);

  /// Gathers `data` (same length on every rank) to `root`; `out` must hold
  /// size()*data.size() elements on the root.
  template <typename T>
  void gather(std::span<const T> data, std::span<T> out, int root);

  /// Concatenation of every rank's equal-length `data` on every rank.
  /// kTree: gather to rank 0 + broadcast (root moves ~(P + log P)·n);
  /// kScalable: ring (each rank forwards one block per step to its right
  /// neighbor, moving exactly 2·(P-1)·n/P through every rank) up to
  /// detail::kRingAllgatherMaxRanks members, then Bruck's algorithm
  /// (ceil(log2 P) rounds of doubling exchanges — the ring's P-1 latency
  /// terms would dominate at 100k ranks while per-rank volume stays the
  /// same ~2·(P-1)·n/P). Pure data movement, so all schedules are
  /// bit-identical at any size.
  template <typename T>
  void allgather(std::span<const T> data, std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (world_->collective_mode() == CollectiveMode::kScalable &&
        size() > 1) {
      if (size() > detail::kRingAllgatherMaxRanks) {
        allgather_bruck(data, out);
      } else {
        allgather_ring(data, out);
      }
      return;
    }
    gather(data, out, 0);
    bcast(out, 0);
  }

  // -- communicator management -------------------------------------------------

  /// MPI_Comm_split: members with the same color form a new communicator,
  /// ordered by (key, parent rank). Must be called by all members in the
  /// same order.
  Comm split(int color, int key);

  /// MPI_Comm_split_type(MPI_COMM_TYPE_SHARED): one communicator per node,
  /// keyed by parent rank — the grouping the paper's framework uses to
  /// elect monitoring ranks.
  Comm split_shared_node() { return split(my_node(), rank_); }

 private:
  friend class Request;

  Comm(World* world, std::vector<int> group, int rank, std::uint64_t context);

  RankState& me() const;
  void log_segment(hw::ActivityKind kind, double dt, double dram_bytes = 0.0);

  /// This rank's span recorder; nullptr when tracing is off (and constant
  /// nullptr when the prof subsystem is compiled out, which folds every
  /// hook away).
  prof::SpanRecorder* recorder() const;
  /// Collective bracket around one collective call (ring-buffered span).
  void prof_collective_begin(const char* name);
  void prof_collective_end();

  void send_impl(std::span<const std::byte> data, int dst, int tag,
                 bool control, bool halo = false);
  void recv_impl(std::span<std::byte> data, int src, int tag);
  void bcast_impl(std::span<std::byte> data, int root, int stream);

  template <typename T>
  MaxLocT<T> maxloc_impl(T value, long long index);
  template <typename T>
  void allreduce_scalable(std::span<const T> data, std::span<T> out,
                          ReduceOp op);
  template <typename T>
  void allgather_ring(std::span<const T> data, std::span<T> out);
  template <typename T>
  void allgather_bruck(std::span<const T> data, std::span<T> out);

  World* world_;
  /// comm rank -> world rank. Empty means the identity mapping (the world
  /// communicator): materializing an explicit P-entry table per rank would
  /// cost O(P^2) memory across the world, which is what capped the old
  /// implementation near 10k ranks. split() still builds explicit groups.
  std::vector<int> group_;
  int rank_;
  std::uint64_t context_;
  int split_seq_ = 0;
};

/// Handle for a nonblocking operation. Move-only; complete with test() or
/// wait() (or wait_all over a batch).
class Request {
 public:
  Request() = default;
  Request(Request&& other) noexcept { *this = std::move(other); }
  Request& operator=(Request&& other) noexcept {
    comm_ = other.comm_;
    buffer_ = other.buffer_;
    peer_ = other.peer_;
    tag_ = other.tag_;
    pending_recv_ = other.pending_recv_;
    other.pending_recv_ = false;
    other.comm_ = nullptr;
    return *this;
  }
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  bool valid() const { return comm_ != nullptr; }

  /// True once the operation is complete; for a pending receive, completes
  /// it if the matching message has arrived (MPI_Test).
  bool test();

  /// Blocks until complete (MPI_Wait).
  void wait();

 private:
  friend class Comm;
  Request(Comm* comm, std::span<std::byte> buffer, int peer, int tag,
          bool pending_recv)
      : comm_(comm), buffer_(buffer), peer_(peer), tag_(tag),
        pending_recv_(pending_recv) {}

  Comm* comm_ = nullptr;
  std::span<std::byte> buffer_{};
  int peer_ = 0;
  int tag_ = 0;
  bool pending_recv_ = false;
};

/// Completes every request in the batch (MPI_Waitall).
void wait_all(std::span<Request> requests);

template <typename T>
Request Comm::isend(std::span<const T> data, int dst, int tag) {
  static_assert(std::is_trivially_copyable_v<T>);
  send_impl(std::as_bytes(data), dst, tag, /*control=*/false);
  return Request(this, {}, dst, tag, /*pending_recv=*/false);
}

template <typename T>
Request Comm::isend_halo(std::span<const T> data, int dst, int tag) {
  static_assert(std::is_trivially_copyable_v<T>);
  send_impl(std::as_bytes(data), dst, tag, /*control=*/false, /*halo=*/true);
  return Request(this, {}, dst, tag, /*pending_recv=*/false);
}

template <typename T>
Request Comm::irecv(std::span<T> data, int src, int tag) {
  static_assert(std::is_trivially_copyable_v<T>);
  return Request(this, std::as_writable_bytes(data), src, tag,
                 /*pending_recv=*/true);
}

// -- template implementations ---------------------------------------------

template <typename T>
Comm::MaxLocT<T> Comm::maxloc_impl(T value, long long index) {
  struct Entry {
    T value;
    long long index;
  };
  Entry acc{value, index};
  // Strict total order, so the winner is the same under every combine
  // order (tree and scalable schedules agree bitwise). NaN contract,
  // documented like the PR-1 idamax contract: a NaN candidate never beats
  // a numeric one, and among NaNs the lowest index wins. Canonical runs
  // never feed NaN here (pdgesv pivots on |a_ij| of finite matrices).
  const auto better = [](const Entry& a, const Entry& b) {
    const bool a_nan = a.value != a.value;
    const bool b_nan = b.value != b.value;
    if (a_nan != b_nan) return b_nan;
    if (!a_nan && a.value != b.value) return a.value > b.value;
    return a.index < b.index;
  };

  if (world_->collective_mode() == CollectiveMode::kScalable && size() > 1) {
    // Recursive doubling with a non-power-of-two pre/post fold: every rank
    // holds the winner after log2 rounds — no root funnel, no broadcast.
    prof_collective_begin("maxloc:rd");
    const int pof2 = detail::floor_pof2(size());
    const int rem = size() - pof2;
    bool core = true;
    if (rank_ < 2 * rem) {
      if ((rank_ & 1) != 0) {
        send_value(acc, rank_ - 1, internal_tag::kFold);
        acc = recv_value<Entry>(rank_ - 1, internal_tag::kFold);
        core = false;
      } else {
        const Entry incoming =
            recv_value<Entry>(rank_ + 1, internal_tag::kFold);
        if (better(incoming, acc)) acc = incoming;
      }
    }
    if (core) {
      const int cr = rank_ < 2 * rem ? rank_ / 2 : rank_ - rem;
      for (int mask = 1; mask < pof2; mask <<= 1) {
        const int peer_cr = cr ^ mask;
        const int peer = peer_cr < rem ? 2 * peer_cr : peer_cr + rem;
        send_value(acc, peer, internal_tag::kAllreduce);
        const Entry incoming =
            recv_value<Entry>(peer, internal_tag::kAllreduce);
        if (better(incoming, acc)) acc = incoming;
      }
      if (rank_ < 2 * rem) {
        send_value(acc, rank_ + 1, internal_tag::kFold);
      }
    }
    prof_collective_end();
    return MaxLocT<T>{acc.value, acc.index};
  }

  prof_collective_begin("maxloc");
  int mask = 1;
  while (mask < size()) {
    if ((rank_ & mask) == 0) {
      const int peer = rank_ | mask;
      if (peer < size()) {
        const Entry incoming = recv_value<Entry>(peer, internal_tag::kReduce);
        if (better(incoming, acc)) acc = incoming;
      }
    } else {
      send_value(acc, rank_ & ~mask, internal_tag::kReduce);
      break;
    }
    mask <<= 1;
  }
  bcast_value(acc, 0);
  prof_collective_end();
  return MaxLocT<T>{acc.value, acc.index};
}

template <typename T>
void Comm::reduce(std::span<const T> data, std::span<T> out, ReduceOp op,
                  int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  PLIN_CHECK_MSG(rank() != root || out.size() == data.size(),
                 "reduce output span has wrong size on root");
  prof_collective_begin("reduce");
  std::vector<T> acc(data.begin(), data.end());
  std::vector<T> incoming;  // hoisted: one allocation across all rounds
  const int vrank = (rank_ - root + size()) % size();
  int mask = 1;
  while (mask < size()) {
    if ((vrank & mask) == 0) {
      const int peer_v = vrank | mask;
      if (peer_v < size()) {
        const int peer = (peer_v + root) % size();
        incoming.resize(acc.size());
        recv(std::span<T>(incoming), peer, internal_tag::kReduce);
        // The receiver always sits on the lower-ranked subtree, so the
        // accumulator is the `lower` operand (NaN note for kMax/kMin: the
        // comparison-based combine keeps the lower operand when either
        // side is NaN, so a NaN contribution survives only from the side
        // the bracketing puts first — xmpi_collectives_test pins this).
        for (std::size_t i = 0; i < acc.size(); ++i) {
          acc[i] = detail::combine_one(op, acc[i], incoming[i]);
        }
      }
    } else {
      const int peer = ((vrank & ~mask) + root) % size();
      send(std::span<const T>(acc), peer, internal_tag::kReduce);
      break;
    }
    mask <<= 1;
  }
  if (rank_ == root) {
    std::memcpy(out.data(), acc.data(), acc.size() * sizeof(T));
  }
  prof_collective_end();
}

template <typename T>
void Comm::gather(std::span<const T> data, std::span<T> out, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  prof_collective_begin("gather");
  if (rank_ != root) {
    send(data, root, internal_tag::kGather);
    prof_collective_end();
    return;
  }
  PLIN_CHECK_MSG(out.size() >= data.size() * static_cast<std::size_t>(size()),
                 "gather output span too small");
  for (int src = 0; src < size(); ++src) {
    std::span<T> slot = out.subspan(
        static_cast<std::size_t>(src) * data.size(), data.size());
    if (src == rank_) {
      if (!data.empty()) {
        std::memcpy(slot.data(), data.data(), slot.size_bytes());
      }
    } else {
      recv(slot, src, internal_tag::kGather);
    }
  }
  prof_collective_end();
}

template <typename T>
void Comm::allreduce_scalable(std::span<const T> data, std::span<T> out,
                              ReduceOp op) {
  const std::size_t count = data.size();
  if (count != 0) {
    std::memcpy(out.data(), data.data(), count * sizeof(T));
  }
  if (size() == 1 || count == 0) return;

  // Binary-blocks decomposition: the seed tree's value is
  // F_0 = B_0 op (B_1 op (... op B_{L-1})), where B_b is the full binomial
  // reduction over block b's members (detail::binary_blocks). Both
  // schedules compute each B_b with the standard power-of-two exchange
  // inside its block, then fold the blocks together right-to-left with
  // block b as the lower operand — reproducing the tree's bracketing
  // exactly, so the result is bit-identical to kTree at every P. On a
  // power-of-two communicator there is one block and the fold phases
  // vanish, leaving the classic schedules untouched.
  const std::vector<detail::Block> blocks = detail::binary_blocks(size());
  const int nblocks = static_cast<int>(blocks.size());
  int b = nblocks - 1;
  while (rank_ < blocks[static_cast<std::size_t>(b)].base) --b;
  const int base = blocks[static_cast<std::size_t>(b)].base;
  const int m = blocks[static_cast<std::size_t>(b)].size;
  const int c = rank_ - base;  // block-local rank
  const int m0 = blocks[0].size;

  // Vector halving needs at least one element per rank of the largest
  // block; shorter vectors (scalars, norms) use latency-optimal recursive
  // doubling.
  const bool rsag = m0 > 1 && count >= static_cast<std::size_t>(m0);
  prof_collective_begin(rsag ? "allreduce:rsag" : "allreduce:rd");
  std::vector<T> scratch;

  if (rsag) {
    // Phase 1 — intra-block reduce-scatter by distance doubling / vector
    // halving: after it, this rank holds B_b restricted to its owned range
    // halving_range(c, m, count). The halving recursion reproduces the
    // binomial tree's combine bracketing element by element (rank-ordered
    // operands at every level).
    struct Range {
      std::size_t lo = 0;
      std::size_t hi = 0;
    };
    std::vector<Range> rounds;
    std::size_t lo = 0;
    std::size_t hi = count;
    for (int mask = 1; mask < m; mask <<= 1) {
      const int peer = base + (c ^ mask);
      const std::size_t mid = lo + (hi - lo + 1) / 2;
      const bool lower = (c & mask) == 0;
      const std::size_t keep_lo = lower ? lo : mid;
      const std::size_t keep_hi = lower ? mid : hi;
      const std::size_t give_lo = lower ? mid : lo;
      send(std::span<const T>(out.data() + give_lo,
                              (lower ? hi : mid) - give_lo),
           peer, internal_tag::kAllreduce);
      scratch.resize(keep_hi - keep_lo);
      recv(std::span<T>(scratch.data(), keep_hi - keep_lo), peer,
           internal_tag::kAllreduce);
      for (std::size_t i = 0; i < keep_hi - keep_lo; ++i) {
        T& mine = out[keep_lo + i];
        mine = lower ? detail::combine_one(op, mine, scratch[i])
                     : detail::combine_one(op, scratch[i], mine);
      }
      rounds.push_back(Range{lo, hi});
      lo = keep_lo;
      hi = keep_hi;
    }

    // Phase 2 — cross-block fold, right to left. Block sizes divide each
    // other, so halving_range nests: this rank's range is contained in the
    // range that block b+1's local rank (c mod m_{b+1}) owns. That rank
    // holds F_{b+1} on its range once its own fold is done, and scatters
    // the pieces to the finer owners of block b. Combining with the
    // incoming F_{b+1} as the upper operand turns B_b into F_b on this
    // rank's range.
    if (b + 1 < nblocks) {
      const detail::Block& next = blocks[static_cast<std::size_t>(b + 1)];
      scratch.resize(hi - lo);
      recv(std::span<T>(scratch.data(), hi - lo),
           next.base + c % next.size, internal_tag::kFold);
      for (std::size_t i = 0; i < hi - lo; ++i) {
        out[lo + i] = detail::combine_one(op, out[lo + i], scratch[i]);
      }
    }
    if (b > 0) {
      const int mprev = blocks[static_cast<std::size_t>(b - 1)].size;
      for (int dst = c; dst < mprev; dst += m) {
        std::size_t dlo = 0;
        std::size_t dhi = 0;
        detail::halving_range(dst, mprev, count, dlo, dhi);
        send(std::span<const T>(out.data() + dlo, dhi - dlo),
             blocks[static_cast<std::size_t>(b - 1)].base + dst,
             internal_tag::kFold);
      }
      // Non-leading blocks are done reducing; they receive the finished
      // vector in phase 4.
      recv(std::span<T>(out.data(), count), rank_ - m0, internal_tag::kFold);
      prof_collective_end();
      return;
    }

    // Phase 3 — block-0 allgather mirror: replay the halving in reverse;
    // at reversed round r this rank has rebuilt its half of rounds[r] and
    // the same peer has the other half. Every block-0 rank ends with the
    // full F_0 vector.
    for (std::size_t r = rounds.size(); r-- > 0;) {
      const int mask = 1 << r;
      const int peer = base + (c ^ mask);
      const Range range = rounds[r];
      const std::size_t mid = range.lo + (range.hi - range.lo + 1) / 2;
      const bool lower = (c & mask) == 0;
      const std::size_t other_lo = lower ? mid : range.lo;
      const std::size_t other_hi = lower ? range.hi : mid;
      send(std::span<const T>(out.data() + lo, hi - lo), peer,
           internal_tag::kAllreduce);
      recv(std::span<T>(out.data() + other_lo, other_hi - other_lo), peer,
           internal_tag::kAllreduce);
      lo = range.lo;
      hi = range.hi;
    }

    // Phase 4 — distribution: block 0 spans at least half the
    // communicator, so one hop covers every remaining rank.
    if (rank_ + m0 < size()) {
      send(std::span<const T>(out.data(), count), rank_ + m0,
           internal_tag::kFold);
    }
  } else {
    // Phase 1 — intra-block recursive doubling: log2(m) full-vector
    // pairwise exchanges; every member of block b ends with B_b.
    scratch.resize(count);
    for (int mask = 1; mask < m; mask <<= 1) {
      const int peer = base + (c ^ mask);
      send(std::span<const T>(out.data(), count), peer,
           internal_tag::kAllreduce);
      recv(std::span<T>(scratch), peer, internal_tag::kAllreduce);
      const bool lower = (c & mask) == 0;
      for (std::size_t i = 0; i < count; ++i) {
        out[i] = lower ? detail::combine_one(op, out[i], scratch[i])
                       : detail::combine_one(op, scratch[i], out[i]);
      }
    }
    if (nblocks > 1) {
      // Phase 2 — leader chain: block leaders fold right to left
      // (F_b = B_b op F_{b+1}, own block lower), so rank 0 ends with F_0.
      // Chain messages travel high rank -> low rank while the phase-3
      // broadcast travels low -> high, so sharing kFold is unambiguous.
      if (c == 0) {
        if (b + 1 < nblocks) {
          recv(std::span<T>(scratch), blocks[static_cast<std::size_t>(b + 1)].base,
               internal_tag::kFold);
          for (std::size_t i = 0; i < count; ++i) {
            out[i] = detail::combine_one(op, out[i], scratch[i]);
          }
        }
        if (b > 0) {
          send(std::span<const T>(out.data(), count),
               blocks[static_cast<std::size_t>(b - 1)].base,
               internal_tag::kFold);
        }
      }
      // Phase 3 — binomial broadcast of F_0 from rank 0 over the whole
      // communicator (the same tree bcast_impl walks).
      for (int mask = detail::floor_pof2(size()); mask >= 1; mask >>= 1) {
        if ((rank_ & (mask - 1)) != 0) continue;
        if ((rank_ & mask) != 0) {
          recv(std::span<T>(out.data(), count), rank_ - mask,
               internal_tag::kFold);
        } else if (rank_ + mask < size()) {
          send(std::span<const T>(out.data(), count), rank_ + mask,
               internal_tag::kFold);
        }
      }
    }
  }
  prof_collective_end();
}

template <typename T>
void Comm::allgather_ring(std::span<const T> data, std::span<T> out) {
  PLIN_CHECK_MSG(out.size() >= data.size() * static_cast<std::size_t>(size()),
                 "allgather output span too small");
  const std::size_t chunk = data.size();
  if (chunk != 0) {
    std::memcpy(out.data() + static_cast<std::size_t>(rank_) * chunk,
                data.data(), chunk * sizeof(T));
  }
  if (size() == 1 || chunk == 0) return;
  prof_collective_begin("allgather:ring");
  const int right = (rank_ + 1) % size();
  const int left = (rank_ + size() - 1) % size();
  for (int step = 0; step < size() - 1; ++step) {
    // Forward the block received last step (initially our own) to the
    // right; receive the next-older block from the left.
    const int send_block = (rank_ - step + size()) % size();
    const int recv_block = (rank_ - step + size() - 1) % size();
    send(std::span<const T>(
             out.data() + static_cast<std::size_t>(send_block) * chunk,
             chunk),
         right, internal_tag::kAllgather);
    recv(std::span<T>(out.data() +
                          static_cast<std::size_t>(recv_block) * chunk,
                      chunk),
         left, internal_tag::kAllgather);
  }
  prof_collective_end();
}

template <typename T>
void Comm::allgather_bruck(std::span<const T> data, std::span<T> out) {
  PLIN_CHECK_MSG(out.size() >= data.size() * static_cast<std::size_t>(size()),
                 "allgather output span too small");
  const std::size_t chunk = data.size();
  const int p = size();
  if (chunk == 0) return;
  if (p == 1) {
    std::memcpy(out.data(), data.data(), chunk * sizeof(T));
    return;
  }
  prof_collective_begin("allgather:bruck");
  // tmp slot i holds the block of rank (rank_ + i) % p; starting from our
  // own block, each round ships the first `quota` known blocks `have`
  // ranks to the left and receives the next `quota` from the right,
  // doubling coverage until all p blocks are known, then a local rotation
  // puts them in rank order. ceil(log2 p) rounds at any p; total bytes
  // through a rank match the ring's ~2·(p-1)·chunk.
  std::vector<T> tmp(static_cast<std::size_t>(p) * chunk);
  std::memcpy(tmp.data(), data.data(), chunk * sizeof(T));
  int have = 1;
  while (have < p) {
    const int quota = have < p - have ? have : p - have;
    const int dst = (rank_ - have + p) % p;
    const int src = (rank_ + have) % p;
    send(std::span<const T>(tmp.data(),
                            static_cast<std::size_t>(quota) * chunk),
         dst, internal_tag::kAllgather);
    recv(std::span<T>(tmp.data() + static_cast<std::size_t>(have) * chunk,
                      static_cast<std::size_t>(quota) * chunk),
         src, internal_tag::kAllgather);
    have += quota;
  }
  for (int i = 0; i < p; ++i) {
    const int block = (rank_ + i) % p;
    std::memcpy(out.data() + static_cast<std::size_t>(block) * chunk,
                tmp.data() + static_cast<std::size_t>(i) * chunk,
                chunk * sizeof(T));
  }
  prof_collective_end();
}

}  // namespace plin::xmpi
