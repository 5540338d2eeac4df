// collectives.hpp — collective operations over a Comm.
//
// Algorithms follow the classic implementations found in MPICH-era MPI
// libraries (the environment the paper ran on):
//   barrier      — dissemination (⌈log2 n⌉ rounds)
//   bcast        — binomial tree rooted at `root`
//   reduce       — binomial tree fold (mirror of bcast)
//   allreduce    — reduce to 0 + bcast
//   gather(v)    — linear to root
//   scatter      — linear from root
//   allgather(v) — ring (n-1 steps, each rank forwards its predecessor's
//                  latest block)
//   alltoall     — shifted pairwise exchange
//   scan         — linear chain (inclusive prefix)
//
// Every collective draws one fresh tag from the communicator's collective
// sequence, so consecutive collectives cannot cross-match even when ranks
// are skewed in time.  All functions must be called by every member of the
// communicator ("collective" in the MPI sense); violating that deadlocks —
// which the job's receive timeout converts into an error.
#pragma once

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "src/minimpi/comm.hpp"
#include "src/minimpi/reduce_ops.hpp"
#include "src/minimpi/types.hpp"

namespace minimpi {

namespace detail {
/// Rotate so `root` appears as virtual rank 0 (binomial-tree helper).
[[nodiscard]] inline int virtual_rank(int rank, int root, int size) noexcept {
  return (rank - root + size) % size;
}
[[nodiscard]] inline int actual_rank(int vrank, int root, int size) noexcept {
  return (vrank + root) % size;
}

/// mpicheck instrumentation of one leaf collective: report this member's
/// (op, root, count, element size) to the consistency checker *before* the
/// collective draws its tag, and label any blocked waits inside with the
/// collective's name.  Constructed at the top of every collective that
/// calls next_collective_tag() itself.
struct CollectiveScope {
  ScopedCheckOp op;
  TraceSpan span;
  CollectiveScope(const Comm& comm, const char* name, rank_t root,
                  std::uint64_t count, std::uint32_t elem_size)
      : op(name),
        span(comm.job().tracer(), comm.global_of(comm.rank()),
             TraceOp::collective, name) {
    if (MetricsRegistry* m = comm.job().metrics()) {
      m->on_collective(comm.global_of(comm.rank()));
    }
    comm.check_collective(name, root, count, elem_size);
  }
};

/// The ring both allgathers run: place this rank's `mine` in its block,
/// then n-1 steps in which each rank sends the block it got last to its
/// successor and receives its predecessor's.  `block(b)` is rank b's part
/// of the result.
template <Transferable T, class BlockOf>
void ring_allgather(const Comm& comm, tag_t tag, std::span<const T> mine,
                    BlockOf block) {
  const int n = comm.size();
  const int r = comm.rank();
  std::copy(mine.begin(), mine.end(), block(r).begin());
  const rank_t to = (r + 1) % n;
  const rank_t from = (r - 1 + n) % n;
  for (int step = 0; step < n - 1; ++step) {
    comm.sendrecv_raw(std::as_bytes(block((r - step + n) % n)), to, tag,
                      std::as_writable_bytes(block((r - step - 1 + n) % n)),
                      from, tag);
  }
}
}  // namespace detail

/// Synchronize all members (dissemination barrier).
inline void barrier(const Comm& comm) {
  const detail::CollectiveScope scope(comm, "barrier", -1, 0, 0);
  comm.fault_point(KillPoint::before_barrier);
  const tag_t tag = comm.next_collective_tag();
  const int n = comm.size();
  const int r = comm.rank();
  const std::byte token{0};
  for (int k = 1; k < n; k <<= 1) {
    const rank_t to = (r + k) % n;
    const rank_t from = (r - k % n + n) % n;
    std::byte in{};
    comm.sendrecv_raw(std::span<const std::byte>(&token, 1), to, tag,
                      std::span<std::byte>(&in, 1), from, tag);
  }
  comm.fault_point(KillPoint::after_barrier);
}

/// Broadcast `values` from `root` to all members (binomial tree).
template <Transferable T>
void bcast(const Comm& comm, std::span<T> values, rank_t root = 0) {
  const detail::CollectiveScope scope(comm, "bcast", root, values.size(),
                                      sizeof(T));
  const tag_t tag = comm.next_collective_tag();
  const int n = comm.size();
  const int vr = detail::virtual_rank(comm.rank(), root, n);
  // Classic binomial tree: receive once from the parent at the lowest set
  // bit of the virtual rank, then forward to children at decreasing bits.
  int mask = 1;
  while (mask < n) {
    if ((vr & mask) != 0) {
      const int parent = detail::actual_rank(vr - mask, root, n);
      comm.recv_raw(std::as_writable_bytes(values), parent, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < n) {
      const int child = detail::actual_rank(vr + mask, root, n);
      comm.send_raw(std::as_bytes(values), child, tag);
    }
    mask >>= 1;
  }
}

/// Broadcast a single value.
template <Transferable T>
void bcast_value(const Comm& comm, T& value, rank_t root = 0) {
  bcast(comm, std::span<T>(&value, 1), root);
}

/// Broadcast a variable-length byte buffer (size first, then payload).
inline void bcast_bytes(const Comm& comm, std::vector<std::byte>& bytes,
                        rank_t root = 0) {
  std::uint64_t size = bytes.size();
  bcast_value(comm, size, root);
  if (comm.rank() != root) bytes.resize(size);
  if (size > 0) bcast(comm, std::span<std::byte>(bytes), root);
}

/// Broadcast a string (used by MPH to distribute the registration file,
/// paper §6: "read by the root processor and broadcast to all processors").
inline void bcast_string(const Comm& comm, std::string& text, rank_t root = 0) {
  std::uint64_t size = text.size();
  bcast_value(comm, size, root);
  if (comm.rank() != root) text.resize(size);
  if (size > 0) {
    bcast(comm, std::span<char>(text.data(), text.size()), root);
  }
}

/// Elementwise reduction of `values` onto `root` (binomial tree).
/// Every member passes the same element count; `result` is resized on root
/// and left empty elsewhere.
template <Transferable T, class Op>
void reduce(const Comm& comm, std::span<const T> values, std::vector<T>& result,
            Op op, rank_t root = 0) {
  const detail::CollectiveScope scope(comm, "reduce", root, values.size(),
                                      sizeof(T));
  const tag_t tag = comm.next_collective_tag();
  const int n = comm.size();
  const int vr = detail::virtual_rank(comm.rank(), root, n);
  std::vector<T> acc(values.begin(), values.end());
  std::vector<T> incoming(values.size());
  // Fold children (mirror of the bcast tree: lowest bits first).
  for (int bit = 1; bit < n; bit <<= 1) {
    if ((vr & bit) != 0) {
      const int parent = detail::actual_rank(vr - bit, root, n);
      comm.send_raw(std::as_bytes(std::span<const T>(acc)), parent, tag);
      break;
    }
    if (vr + bit < n) {
      const int child = detail::actual_rank(vr + bit, root, n);
      comm.recv_raw(std::as_writable_bytes(std::span<T>(incoming)), child, tag);
      for (std::size_t i = 0; i < acc.size(); ++i) {
        acc[i] = op(acc[i], incoming[i]);
      }
    }
  }
  if (comm.rank() == root) {
    result = std::move(acc);
  } else {
    result.clear();
  }
}

/// Single-value reduce convenience.
template <Transferable T, class Op>
T reduce_value(const Comm& comm, const T& value, Op op, rank_t root = 0) {
  std::vector<T> result;
  reduce(comm, std::span<const T>(&value, 1), result, op, root);
  return comm.rank() == root ? result[0] : T{};
}

/// Elementwise reduction delivered to every member.
template <Transferable T, class Op>
std::vector<T> allreduce(const Comm& comm, std::span<const T> values, Op op) {
  std::vector<T> result;
  reduce(comm, values, result, op, 0);
  if (comm.rank() != 0) result.resize(values.size());
  bcast(comm, std::span<T>(result), 0);
  return result;
}

/// Single-value allreduce convenience.
template <Transferable T, class Op>
T allreduce_value(const Comm& comm, const T& value, Op op) {
  return allreduce(comm, std::span<const T>(&value, 1), op)[0];
}

/// Gather equal-size contributions onto root (linear).
template <Transferable T>
std::vector<T> gather(const Comm& comm, std::span<const T> values,
                      rank_t root = 0) {
  const detail::CollectiveScope scope(comm, "gather", root, values.size(),
                                      sizeof(T));
  const tag_t tag = comm.next_collective_tag();
  const int n = comm.size();
  if (comm.rank() != root) {
    comm.send_raw(std::as_bytes(values), root, tag);
    return {};
  }
  std::vector<T> result(values.size() * static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    std::span<T> slot(
        result.data() + static_cast<std::size_t>(r) * values.size(),
        values.size());
    if (r == root) {
      std::copy(values.begin(), values.end(), slot.begin());
    } else {
      comm.recv_raw(std::as_writable_bytes(slot), r, tag);
    }
  }
  return result;
}

/// Gather variable-size contributions onto root; `counts[r]` reports each
/// member's element count (root only).
template <Transferable T>
std::vector<T> gatherv(const Comm& comm, std::span<const T> values,
                       std::vector<std::size_t>* counts, rank_t root = 0) {
  const detail::CollectiveScope scope(comm, "gatherv", root,
                                      Checker::kUncheckedCount, sizeof(T));
  const tag_t tag = comm.next_collective_tag();
  const int n = comm.size();
  if (comm.rank() != root) {
    comm.send_raw(std::as_bytes(values), root, tag);
    if (counts != nullptr) counts->clear();
    return {};
  }
  std::vector<T> result;
  if (counts != nullptr) counts->assign(static_cast<std::size_t>(n), 0);
  for (int r = 0; r < n; ++r) {
    if (r == root) {
      result.insert(result.end(), values.begin(), values.end());
      if (counts != nullptr) {
        (*counts)[static_cast<std::size_t>(r)] = values.size();
      }
    } else {
      auto [status, bytes] = comm.recv_take_raw(r, tag);
      (void)status;
      const std::size_t count = bytes.size() / sizeof(T);
      std::vector<T> block(count);
      if (count > 0) std::memcpy(block.data(), bytes.data(), bytes.size());
      if (counts != nullptr) (*counts)[static_cast<std::size_t>(r)] = count;
      result.insert(result.end(), block.begin(), block.end());
    }
  }
  return result;
}

/// Scatter equal-size blocks from root (linear).
template <Transferable T>
std::vector<T> scatter(const Comm& comm, std::span<const T> values,
                       std::size_t block, rank_t root = 0) {
  const detail::CollectiveScope scope(comm, "scatter", root, block, sizeof(T));
  const tag_t tag = comm.next_collective_tag();
  const int n = comm.size();
  std::vector<T> mine(block);
  if (comm.rank() == root) {
    if (values.size() < block * static_cast<std::size_t>(n)) {
      throw Error(Errc::invalid_argument,
                  "scatter: send buffer smaller than block*size");
    }
    for (int r = 0; r < n; ++r) {
      std::span<const T> slot(
          values.data() + static_cast<std::size_t>(r) * block, block);
      if (r == root) {
        std::copy(slot.begin(), slot.end(), mine.begin());
      } else {
        comm.send_raw(std::as_bytes(slot), r, tag);
      }
    }
  } else {
    comm.recv_raw(std::as_writable_bytes(std::span<T>(mine)), root, tag);
  }
  return mine;
}

/// Allgather equal-size contributions (ring algorithm).
template <Transferable T>
std::vector<T> allgather(const Comm& comm, std::span<const T> values) {
  const detail::CollectiveScope scope(comm, "allgather", -1, values.size(),
                                      sizeof(T));
  const tag_t tag = comm.next_collective_tag();
  const std::size_t block = values.size();
  std::vector<T> result(block * static_cast<std::size_t>(comm.size()));
  detail::ring_allgather(comm, tag, values, [&](int b) {
    return std::span<T>(result.data() + static_cast<std::size_t>(b) * block,
                        block);
  });
  return result;
}

/// Allgather a single value per rank.
template <Transferable T>
std::vector<T> allgather_value(const Comm& comm, const T& value) {
  return allgather(comm, std::span<const T>(&value, 1));
}

/// Allgather variable-size contributions: first allgather the counts, then
/// exchange payloads along the ring.  `offsets[r]`/`counts[r]` describe
/// rank r's block in the result.
template <Transferable T>
std::vector<T> allgatherv(const Comm& comm, std::span<const T> values,
                          std::vector<std::size_t>* counts_out = nullptr) {
  const int n = comm.size();
  const std::uint64_t my_count = values.size();
  std::vector<std::uint64_t> counts = allgather_value(comm, my_count);

  const detail::CollectiveScope scope(comm, "allgatherv", -1,
                                      Checker::kUncheckedCount, sizeof(T));
  const tag_t tag = comm.next_collective_tag();
  std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (int i = 0; i < n; ++i) {
    offsets[static_cast<std::size_t>(i) + 1] =
        offsets[static_cast<std::size_t>(i)] +
        static_cast<std::size_t>(counts[static_cast<std::size_t>(i)]);
  }
  std::vector<T> result(offsets.back());
  detail::ring_allgather(comm, tag, values, [&](int b) {
    const auto i = static_cast<std::size_t>(b);
    return std::span<T>(result.data() + offsets[i],
                        static_cast<std::size_t>(counts[i]));
  });
  if (counts_out != nullptr) {
    counts_out->assign(counts.begin(), counts.end());
  }
  return result;
}

/// Allgather one string per rank (length exchange + byte ring).
inline std::vector<std::string> allgather_strings(const Comm& comm,
                                                  const std::string& mine) {
  std::vector<std::size_t> counts;
  std::vector<char> flat = allgatherv(
      comm, std::span<const char>(mine.data(), mine.size()), &counts);
  std::vector<std::string> result;
  result.reserve(counts.size());
  std::size_t offset = 0;
  for (std::size_t c : counts) {
    result.emplace_back(flat.data() + offset, c);
    offset += c;
  }
  return result;
}

/// All-to-all exchange of equal-size blocks (shifted pairwise).
template <Transferable T>
std::vector<T> alltoall(const Comm& comm, std::span<const T> values,
                        std::size_t block) {
  const detail::CollectiveScope scope(comm, "alltoall", -1, block, sizeof(T));
  const tag_t tag = comm.next_collective_tag();
  const int n = comm.size();
  const int r = comm.rank();
  if (values.size() < block * static_cast<std::size_t>(n)) {
    throw Error(Errc::invalid_argument,
                "alltoall: send buffer smaller than block*size");
  }
  std::vector<T> result(block * static_cast<std::size_t>(n));
  std::copy_n(values.begin() + static_cast<std::ptrdiff_t>(
                                   static_cast<std::size_t>(r) * block),
              block,
              result.begin() + static_cast<std::ptrdiff_t>(
                                   static_cast<std::size_t>(r) * block));
  for (int step = 1; step < n; ++step) {
    const rank_t to = (r + step) % n;
    const rank_t from = (r - step + n) % n;
    std::span<const T> out(
        values.data() + static_cast<std::size_t>(to) * block, block);
    std::span<T> in(result.data() + static_cast<std::size_t>(from) * block,
                    block);
    comm.sendrecv_raw(std::as_bytes(out), to, tag, std::as_writable_bytes(in),
                      from, tag);
  }
  return result;
}

/// Exclusive prefix reduction: rank r receives op-fold of ranks 0..r-1;
/// rank 0 receives `identity`.  Linear chain.
template <Transferable T, class Op>
T exscan(const Comm& comm, const T& value, Op op, T identity = T{}) {
  const detail::CollectiveScope scope(comm, "exscan", -1, 1, sizeof(T));
  const tag_t tag = comm.next_collective_tag();
  const int n = comm.size();
  const int r = comm.rank();
  T below = identity;
  if (r > 0) {
    comm.recv_raw(std::as_writable_bytes(std::span<T>(&below, 1)), r - 1, tag);
  }
  if (r + 1 < n) {
    const T inclusive = r == 0 ? value : op(below, value);
    comm.send_raw(std::as_bytes(std::span<const T>(&inclusive, 1)), r + 1,
                  tag);
  }
  return below;
}

/// Reduce-scatter with equal blocks: elementwise reduction of
/// `values` (block * size elements) followed by scattering block r to rank
/// r.  Implemented as reduce + scatter (the collectives MPH-era MPI
/// libraries composed it from).
template <Transferable T, class Op>
std::vector<T> reduce_scatter_block(const Comm& comm,
                                    std::span<const T> values,
                                    std::size_t block, Op op) {
  const int n = comm.size();
  if (values.size() < block * static_cast<std::size_t>(n)) {
    throw Error(Errc::invalid_argument,
                "reduce_scatter_block: send buffer smaller than block*size");
  }
  std::vector<T> reduced;
  reduce(comm, values, reduced, op, 0);
  if (comm.rank() != 0) {
    reduced.resize(values.size());  // scatter reads root's buffer only
  }
  return scatter(comm, std::span<const T>(reduced), block, 0);
}

/// Inclusive prefix reduction (linear chain).
template <Transferable T, class Op>
T scan(const Comm& comm, const T& value, Op op) {
  const detail::CollectiveScope scope(comm, "scan", -1, 1, sizeof(T));
  const tag_t tag = comm.next_collective_tag();
  const int n = comm.size();
  const int r = comm.rank();
  T acc = value;
  if (r > 0) {
    T partial{};
    comm.recv_raw(std::as_writable_bytes(std::span<T>(&partial, 1)), r - 1,
                  tag);
    acc = op(partial, acc);
  }
  if (r + 1 < n) {
    comm.send_raw(std::as_bytes(std::span<const T>(&acc, 1)), r + 1, tag);
  }
  return acc;
}

}  // namespace minimpi
