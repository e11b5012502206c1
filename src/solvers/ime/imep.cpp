#include "solvers/ime/imep.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "linalg/generate.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "solvers/efficiency.hpp"
#include "support/error.hpp"

namespace plin::solvers {
namespace {

constexpr int kTagRowGather = 10;

/// Most levels whose column updates a rank defers before it streams its
/// columns once for all of them (docs/kernels.md, "Deferred level
/// updates"). The block is clamped to the rank's column count, so the
/// ring of pending pivot columns is never larger than the local matrix.
constexpr std::size_t kMaxDeferredLevels = 8;

/// Rows per tile when a block of deferred levels is flushed: the pending
/// pivot columns' slice of a tile stays in cache while every local column
/// streams through it.
constexpr std::size_t kFlushRows = 256;

xmpi::ComputeCost ime_cost(double flops) {
  const double charged = flops * kImeFlopScale;
  return xmpi::ComputeCost{charged, charged * kImeUpdate.bytes_per_flop,
                           kImeUpdate.efficiency};
}

/// Per-rank chunk header inside a gathered blob.
struct ChunkHeader {
  std::uint64_t rank = 0;
  std::uint64_t count = 0;
};

/// Bytes a rank contributes to the row gather (header + its column values).
std::size_t chunk_bytes(std::size_t ncols) {
  return sizeof(ChunkHeader) + ncols * sizeof(double);
}

/// The last-row exchange: a binomial-tree gather of every rank's row-l
/// values toward the master. Batching into a tree keeps the master's
/// per-level cost at O(log N) messages instead of N-1, which is what lets
/// IMeP stay latency-competitive at high rank counts; total volume remains
/// the paper's ~n floats per level. The slave part of the tree is rotated
/// by `shift` every level so the heavy interior-forwarder role (the rank
/// that relays half the row) is amortized across slaves instead of pinning
/// the same ranks every level.
void gather_row_to_master(xmpi::Comm& comm,
                          const std::vector<std::size_t>& ncols_of,
                          std::size_t shift, std::vector<std::byte>& blob,
                          std::vector<std::byte>& incoming) {
  const int ranks = comm.size();
  const int rank = comm.rank();
  const int slaves = ranks - 1;
  // Tree positions: master stays at 0; slave s sits at position
  // 1 + (s - 1 - shift mod slaves).
  const auto rank_of_pos = [&](int pos) {
    if (pos == 0) return 0;
    return 1 + static_cast<int>((static_cast<std::size_t>(pos - 1) + shift) %
                                static_cast<std::size_t>(slaves));
  };
  const int my_pos =
      rank == 0 ? 0
                : 1 + static_cast<int>(
                          (static_cast<std::size_t>(rank - 1) +
                           static_cast<std::size_t>(slaves) - shift %
                               static_cast<std::size_t>(slaves)) %
                          static_cast<std::size_t>(slaves));
  const auto subtree_bytes = [&](int pos_root, int span) {
    std::size_t bytes = 0;
    for (int p = pos_root; p < std::min(pos_root + span, ranks); ++p) {
      bytes += chunk_bytes(ncols_of[static_cast<std::size_t>(rank_of_pos(p))]);
    }
    return bytes;
  };
  int mask = 1;
  while (mask < ranks) {
    if ((my_pos & mask) == 0) {
      const int peer_pos = my_pos | mask;
      if (peer_pos < ranks) {
        incoming.resize(subtree_bytes(peer_pos, mask));
        comm.recv(std::span<std::byte>(incoming), rank_of_pos(peer_pos),
                  kTagRowGather);
        blob.insert(blob.end(), incoming.begin(), incoming.end());
      }
    } else {
      comm.send(std::span<const std::byte>(blob),
                rank_of_pos(my_pos & ~mask), kTagRowGather);
      return;
    }
    mask <<= 1;
  }
}

}  // namespace

ImepResult solve_imep(xmpi::Comm& comm, const ImepOptions& options) {
  const std::size_t n = options.n;
  PLIN_CHECK_MSG(n > 0, "IMeP: system dimension must be positive");
  const int ranks = comm.size();
  const int rank = comm.rank();
  PLIN_CHECK_MSG(options.inject_faults.empty() || options.checksum_ft,
                 "IMeP: fault injection requires checksum_ft");

  const ImeColumnMap map(n, ranks, rank);
  const std::vector<std::size_t>& my_cols = map.my_columns();
  const std::size_t ncols = my_cols.size();

  std::vector<std::size_t> ncols_of(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    ncols_of[static_cast<std::size_t>(r)] =
        ImeColumnMap::count_below_for(n, ranks, r, n);
  }

  // ---- allocation + generation ("matrix allocation" phase) ---------------
  comm.prof_phase_begin("ime:setup");
  // Local row k holds the working values M(*, j_k) of equation j_k, where
  // M = A^T — the distributed equivalent of every rank loading its share of
  // the same input file. Storing each owned table column as a contiguous
  // row lets the deferred level updates stream it with unit stride through
  // the engine's daxpy_chain.
  linalg::Matrix local(std::max<std::size_t>(ncols, 1), n);
  for (std::size_t k = 0; k < ncols; ++k) {
    linalg::system_row(options.seed, n, my_cols[k], 0, local.row(k));
  }
  comm.memory_touch(static_cast<double>(local.size_bytes()));

  std::vector<double> h(n, 0.0);
  if (rank == 0) {
    h = linalg::generate_rhs(options.seed, n);
    comm.memory_touch(static_cast<double>(n * sizeof(double)));
  }
  // Initialization broadcast (the paper's 2(N-1)-message init/fini term).
  // Stream 1 is the auxiliary-vector channel (see Comm::bcast).
  if (ranks > 1) comm.bcast(std::span<double>(h), 0, /*stream=*/1);

  // Checksum column for algorithm-based fault tolerance:
  // s(r) = sum over this rank's columns of M(r, j). Columns are updated
  // with per-column factors g_j against the shared pivot column, so the
  // checksum follows with the factor sum.
  std::vector<double> checksum;
  if (options.checksum_ft) {
    checksum.assign(n, 0.0);
    for (std::size_t k = 0; k < ncols; ++k) {
      for (std::size_t i = 0; i < n; ++i) checksum[i] += local(k, i);
    }
    comm.compute(ime_cost(static_cast<double>(n) *
                          static_cast<double>(ncols > 0 ? ncols : 1)));
  }
  comm.prof_phase_end();

  ImepResult result;
  result.retired_diagonals.assign(n, 0.0);
  std::vector<double> next_c(n, 0.0);  // pivot column sent early (pipelining)
  std::vector<double> row_l(rank == 0 ? n : 0, 0.0);  // master: last row
  std::vector<std::byte> blob;
  std::vector<std::byte> incoming;
  bool next_pivot_sent = false;

  // Master-side column lists for decoding gathered blobs.
  std::vector<std::vector<std::size_t>> columns_of;
  if (rank == 0) {
    columns_of.resize(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
      columns_of[static_cast<std::size_t>(r)] =
          ImeColumnMap(n, ranks, r).my_columns();
    }
  }

  // ---- deferred level updates ----------------------------------------------
  // Level l subtracts g_j * c_l from rows 0..l of every other local column.
  // Row l is updated at once (the next gather reads it); rows 0..l-1 wait in
  // a ring of up to `block` pending levels: slot s holds the pivot column
  // (the level's broadcast lands there) and each column's factor -g_j of
  // the s-th pending level. Column k owes slots [first_slot[k], pending) to
  // its rows below the lowest pending level; every row at or above it is
  // already current. Applying a column's slots in order gives each element
  // the multiply-adds of the per-level sweep in the same order, so every
  // result is bit-identical.
  const std::size_t block =
      std::clamp<std::size_t>(ncols, 1, kMaxDeferredLevels);
  std::vector<double> ring(block * n, 0.0);
  std::vector<const double*> ring_cols(block);
  for (std::size_t s = 0; s < block; ++s) ring_cols[s] = ring.data() + s * n;
  std::vector<double> alphas(ncols * block, 0.0);  // column k at k * block
  std::vector<std::size_t> first_slot(ncols, 0);
  std::size_t pending = 0;
  // Applies column k's pending slots to its rows [begin, end).
  const auto apply_pending = [&](std::size_t k, std::size_t begin,
                                 std::size_t end) {
    const std::size_t first = first_slot[k];
    if (first == pending || begin == end) return;
    linalg::daxpy_chain(
        std::span<const double>(alphas.data() + k * block + first,
                                pending - first),
        std::span<const double* const>(ring_cols.data() + first,
                                       pending - first),
        local.row(k), begin, end);
  };
  // Brings every local column current below level `low` (the lowest
  // pending level), tile by tile, and empties the ring.
  const auto flush_all = [&](std::size_t low) {
    for (std::size_t r0 = 0; r0 < low; r0 += kFlushRows) {
      const std::size_t r1 = std::min(low, r0 + kFlushRows);
      for (std::size_t k = 0; k < ncols; ++k) apply_pending(k, r0, r1);
    }
    pending = 0;
    std::fill(first_slot.begin(), first_slot.end(), std::size_t{0});
  };

  for (std::size_t l = n; l-- > 0;) {
    const int owner = map.owner_of_level(l);

    // Row l of every local column is about to be gathered and scaled into
    // the factors g_j: apply the levels it still owes.
    for (std::size_t k = 0; k < ncols; ++k) apply_pending(k, l, l + 1);

    // ---- auxiliary vector broadcast (master's send side) -----------------
    // The master broadcasts h as updated through the previous level — its
    // level-l update below needs this level's gathered row. Posting the
    // sends before anything else keeps the h stream off the critical path;
    // slaves collect it after their bulk updates (stream 1 is an
    // independent FIFO channel, so the two broadcast sequences cannot
    // cross-match).
    if (rank == 0 && ranks > 1) {
      comm.prof_phase_begin("ime:aux_bcast");
      comm.bcast(std::span<double>(h), 0, /*stream=*/1);
      comm.prof_phase_end();
    }

    // ---- last-row exchange (t_{l,*} to the master) -----------------------
    // Sent before this level's updates: these are exactly the values the
    // fundamental formula is about to zero, and the master needs them for
    // the auxiliary update. Sending first keeps the master's pipeline fed.
    if (ranks > 1) {
      comm.prof_phase_begin("ime:gather_row");
      // One resize + direct stores (capacity persists across levels): the
      // per-element insert() paid a growth check per double on a path that
      // runs every level.
      const ChunkHeader header{static_cast<std::uint64_t>(rank),
                               static_cast<std::uint64_t>(ncols)};
      blob.resize(sizeof(header) + ncols * sizeof(double));
      std::memcpy(blob.data(), &header, sizeof(header));
      for (std::size_t k = 0; k < ncols; ++k) {
        const double v = local(k, l);
        std::memcpy(blob.data() + sizeof(header) + k * sizeof(double), &v,
                    sizeof(double));
      }
      gather_row_to_master(comm, ncols_of,
                           l % static_cast<std::size_t>(ranks - 1), blob,
                           incoming);
      comm.prof_phase_end();
    }

    // ---- pivot column broadcast t_{*,n+l} --------------------------------
    // Only rows 0..l are live (unknowns above l were already inhibited from
    // equation l, so the column is "certainly 0" below — the same structure
    // the paper exploits for the last-row exchange). It lands in this
    // level's ring slot.
    const std::size_t live = l + 1;
    const std::size_t slot = pending;
    double* const c = ring.data() + slot * n;
    comm.prof_phase_begin("ime:pivot_bcast");
    if (rank == owner) {
      if (next_pivot_sent) {
        // Already updated and broadcast during level l+1.
        std::copy(next_c.begin(), next_c.begin() + live, c);
      } else {
        const std::size_t k = map.local_index(l);
        const double* col = local.row(k).data();
        std::copy(col, col + live, c);
        if (ranks > 1) comm.bcast(std::span<double>(c, live), owner);
      }
    } else if (ranks > 1) {
      comm.bcast(std::span<double>(c, live), owner);
    }
    comm.prof_phase_end();
    next_pivot_sent = false;

    const double dl = c[l];
    PLIN_CHECK_MSG(std::isfinite(dl) && dl != 0.0,
                   "IMeP: zero running diagonal at level " + std::to_string(l));
    result.retired_diagonals[l] = dl;
    const double inv = 1.0 / dl;

    // ---- master: decode the gathered last row and update h ----------------
    if (rank == 0) {
      comm.prof_phase_begin("ime:master_update");
      if (ranks > 1) {
        std::size_t offset = 0;
        while (offset < blob.size()) {
          ChunkHeader header;
          std::memcpy(&header, blob.data() + offset, sizeof(header));
          offset += sizeof(header);
          const auto& cols = columns_of[header.rank];
          PLIN_CHECK(header.count == cols.size());
          for (std::size_t k = 0; k < cols.size(); ++k) {
            std::memcpy(&row_l[cols[k]], blob.data() + offset,
                        sizeof(double));
            offset += sizeof(double);
          }
        }
      } else {
        for (std::size_t k = 0; k < ncols; ++k) row_l[my_cols[k]] = local(k, l);
      }
      const double hl = h[l];
      for (std::size_t j = 0; j < n; ++j) {
        if (j == l) continue;
        h[j] -= (row_l[j] * inv) * hl;
      }
      comm.compute(ime_cost(3.0 * static_cast<double>(n - 1)));
      // Blob decode + the shared h write are memory traffic the master pays
      // every level (matched by the analytic replay's master term).
      comm.memory_touch(static_cast<double>(blob.size()) +
                        8.0 * static_cast<double>(n));
      comm.prof_phase_end();
    }

    // ---- column updates ----------------------------------------------------
    // Fundamental formula on my columns: g_j = t_{l,j}/d_l, then subtract
    // g_j * pivot column from rows 0..l (the column is zero below l). Row l
    // is updated here, through daxpy so that it rounds as the kernel library
    // does (this file builds without FP contraction); rows 0..l-1 are
    // deferred into this level's ring slot. The charges below are those of
    // the full per-level update.
    pending = slot + 1;
    const auto update_column = [&](std::size_t k) {
      std::span<double> col = local.row(k);
      const double g = col[l] * inv;
      linalg::daxpy(-g, std::span<const double>(c + l, 1),
                    col.subspan(l, 1));
      alphas[k * block + slot] = -g;
      return g;
    };
    const double per_column_flops = 1.0 + 2.0 * static_cast<double>(l + 1);

    // Pipelining: the owner of the *next* pivot column updates it first and
    // broadcasts it immediately, so the next level's critical input is on
    // the wire while everyone (including us) finishes this level's bulk.
    comm.prof_phase_begin("ime:update");
    double factor_sum = 0.0;
    std::size_t early_k = ncols;  // sentinel: none
    if (l > 0 && rank == map.owner_of(l - 1)) {
      early_k = map.local_index(l - 1);
      factor_sum += update_column(early_k);
      // The next pivot column leaves current: flush all it owes. With
      // nothing pending it skips its own level l-1 and rejoins after it.
      apply_pending(early_k, 0, l);
      first_slot[early_k] = pending;
      comm.compute(ime_cost(per_column_flops));
      const double* col = local.row(early_k).data();
      std::copy(col, col + l, next_c.begin());
      if (ranks > 1) {
        // Root-side sends only; the live prefix of level l-1 is l entries.
        comm.bcast(std::span<double>(next_c.data(), l), rank);
      }
      next_pivot_sent = true;
    }

    std::size_t updated = 0;
    for (std::size_t k = 0; k < ncols; ++k) {
      if (k == early_k) continue;
      if (my_cols[k] == l) {
        // The pivot column skips its own level; it owes nothing (flushed
        // for its early broadcast, or this is the first level).
        PLIN_CHECK(first_slot[k] == slot);
        first_slot[k] = pending;
        continue;
      }
      factor_sum += update_column(k);
      ++updated;
    }
    if (updated > 0) {
      comm.compute(
          ime_cost(per_column_flops * static_cast<double>(updated)));
    }
    comm.prof_phase_end();

    // ---- auxiliary vector broadcast (slaves' receive side) -----------------
    // Collected after the bulk updates: nothing here depends on it (it
    // backs the fault-tolerance story and is the paper's stated protocol),
    // so it must not stall the pipeline.
    if (rank != 0 && ranks > 1) {
      comm.prof_phase_begin("ime:aux_bcast");
      comm.bcast(std::span<double>(h), 0, /*stream=*/1);
      comm.prof_phase_end();
    }

    // Checksum maintenance mirrors the column updates with the factor sum
    // (the pivot column l itself is not updated, so remove its would-be
    // contribution explicitly: it stays in the checksum unchanged).
    if (options.checksum_ft) {
      comm.prof_phase_begin("ime:checksum");
      for (std::size_t r = 0; r <= l; ++r) {
        checksum[r] -= factor_sum * c[r];
      }
      comm.compute(ime_cost(2.0 * static_cast<double>(l + 1)));
      comm.prof_phase_end();
    }

    if (pending == block) flush_all(l);

    // ---- fault injection / checksum recovery (test hook) -------------------
    for (const ImeFault& fault : options.inject_faults) {
      if (fault.level != l || fault.rank != rank || ncols == 0) continue;
      // The recovery reads every row of the local matrix.
      flush_all(l);
      comm.prof_phase_begin("ime:recovery");
      // Corrupt the first local column...
      for (std::size_t i = 0; i < n; ++i) local(0, i) = 1e30;
      // ...and rebuild it from the checksum minus the other columns.
      std::vector<double> rebuilt(checksum);
      for (std::size_t k = 1; k < ncols; ++k) {
        for (std::size_t i = 0; i < n; ++i) rebuilt[i] -= local(k, i);
      }
      for (std::size_t i = 0; i < n; ++i) local(0, i) = rebuilt[i];
      comm.compute(ime_cost(static_cast<double>(n) *
                            static_cast<double>(ncols)));
      comm.prof_phase_end();
      ++result.ft_recoveries;
    }
  }

  // ---- solution ------------------------------------------------------------
  comm.prof_phase_begin("ime:solution");
  if (rank == 0) {
    result.x.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      result.x[i] = h[i] / result.retired_diagonals[i];
    }
    comm.compute(ime_cost(static_cast<double>(n)));
  }
  if (options.broadcast_solution && ranks > 1) {
    if (rank != 0) result.x.assign(n, 0.0);
    comm.bcast(std::span<double>(result.x), 0);
  }
  comm.prof_phase_end();
  return result;
}

}  // namespace plin::solvers
