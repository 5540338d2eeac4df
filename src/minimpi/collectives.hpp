// collectives.hpp — collective operations over a Comm.
//
// Algorithms follow the classic implementations found in MPICH-era MPI
// libraries (the environment the paper ran on):
//   barrier      — dissemination (⌈log2 n⌉ rounds)
//   bcast        — binomial tree rooted at `root`
//   bcast_string/bytes — one binomial pass of one self-sized record
//   reduce       — binomial tree fold (mirror of bcast)
//   allreduce    — reduce to 0 + bcast
//   gather(v)    — linear to root
//   scatter      — linear from root
//   allgather(v) — Bruck (⌈log2 n⌉ rounds for any n, one message per
//                  rank per round); allgatherv's messages are runs of
//                  self-sized [u64 length][bytes] records, so no counts
//                  round
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
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
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

/// Self-sized blocks.  Allgatherv and bcast_string/bcast_bytes messages
/// are runs of records, each one block as a u64 byte length followed by
/// the bytes, so a receiver learns every size from the message itself and
/// no counts round runs first.
using RecordLength = std::uint64_t;

/// Append `bytes` to `wire` as one record.
inline void append_record(std::vector<std::byte>& wire,
                          std::span<const std::byte> bytes) {
  const RecordLength length = bytes.size();
  const std::size_t at = wire.size();
  wire.resize(at + sizeof length + bytes.size());
  std::memcpy(wire.data() + at, &length, sizeof length);
  if (!bytes.empty()) {
    std::memcpy(wire.data() + at + sizeof length, bytes.data(), bytes.size());
  }
}

/// Check that `message`, received by collective `op` from `source`, is
/// exactly `records` whole records, and append each record's end offset,
/// shifted by `base`, to `ends`.  Every length header is checked against
/// the bytes that arrived, so a short or overlong message throws a
/// truncation Error and nothing past the message is ever read.
inline void parse_records(std::span<const std::byte> message,
                          std::size_t records, const char* op,
                          rank_t source, std::size_t base,
                          std::vector<std::size_t>& ends) {
  const auto fail = [&](const std::string& why) {
    return Error(Errc::truncation, std::string(op) + ": message of " +
                                       std::to_string(message.size()) +
                                       " bytes from rank " +
                                       std::to_string(source) + " " + why);
  };
  std::size_t at = 0;
  for (std::size_t i = 0; i < records; ++i) {
    const std::size_t left = message.size() - at;
    const std::string record = "record " + std::to_string(i + 1) + " of " +
                               std::to_string(records);
    if (left < sizeof(RecordLength)) {
      throw fail("ends inside the length header of " + record);
    }
    RecordLength length = 0;
    std::memcpy(&length, message.data() + at, sizeof length);
    if (length > left - sizeof(RecordLength)) {
      throw fail("is too short for " + record + ", whose header says " +
                 std::to_string(length) + " bytes");
    }
    at += sizeof(RecordLength) + static_cast<std::size_t>(length);
    ends.push_back(base + at);
  }
  if (at != message.size()) {
    throw fail("carries " + std::to_string(message.size() - at) +
               " bytes past its last record");
  }
}

/// Every rank's block of an allgatherv, in rank order, viewing `wire`.
struct Gathered {
  std::vector<std::byte> wire;
  std::vector<std::span<const std::byte>> blocks;
};

/// `allgatherv` as a Bruck exchange of one self-sized record per rank:
/// ⌈log2 n⌉ rounds for any n.  Rank r holds records in the order r, r+1,
/// ... (mod n).  In the round at distance d it sends its first min(d, n-d)
/// records, a prefix of its wire buffer, to rank r-d as one message, and
/// appends the records rank r+d sends it.
inline Gathered allgather_records(const Comm& comm, std::uint32_t elem_size,
                                  std::span<const std::byte> mine) {
  const CollectiveScope scope(comm, "allgatherv", -1,
                              Checker::kUncheckedCount, elem_size);
  const tag_t tag = comm.next_collective_tag();
  const int n = comm.size();
  const int r = comm.rank();
  Gathered out;
  append_record(out.wire, mine);
  std::vector<std::size_t> ends{out.wire.size()};  // held record i ends
  ends.reserve(static_cast<std::size_t>(n));
  for (int d = 1; d < n; d <<= 1) {
    const auto records = static_cast<std::size_t>(std::min(d, n - d));
    const rank_t from = (r + d) % n;
    comm.send_raw(
        std::span<const std::byte>(out.wire).first(ends[records - 1]),
        (r - d + n) % n, tag);
    const std::vector<std::byte> message = comm.recv_take_raw(from, tag).second;
    parse_records(message, records, "allgatherv", from, out.wire.size(),
                  ends);
    out.wire.insert(out.wire.end(), message.begin(), message.end());
  }
  out.blocks.resize(static_cast<std::size_t>(n));
  std::size_t start = 0;
  for (std::size_t i = 0; i < ends.size(); ++i) {
    const std::size_t data = start + sizeof(RecordLength);
    out.blocks[(static_cast<std::size_t>(r) + i) % ends.size()] =
        std::span<const std::byte>(out.wire).subspan(data, ends[i] - data);
    start = ends[i];
  }
  return out;
}

/// Send `out` to `to` and receive exactly `in.size()` bytes from `from`
/// into `in`; a message of any other size is a truncation Error naming
/// collective `op` and `from`.
inline void exchange_exact(const Comm& comm, tag_t tag, const char* op,
                           std::span<const std::byte> out, rank_t to,
                           std::span<std::byte> in, rank_t from) {
  const auto fail = [&](const std::string& what) {
    return Error(Errc::truncation, std::string(op) + ": message from rank " +
                                       std::to_string(from) + " " + what +
                                       ", expected " +
                                       std::to_string(in.size()) + " bytes");
  };
  Status got;
  try {
    got = comm.sendrecv_raw(out, to, tag, in, from, tag);
  } catch (const Error& e) {
    if (e.code() != Errc::truncation) throw;
    throw fail("is too long");
  }
  if (got.bytes != in.size()) {
    throw fail("has " + std::to_string(got.bytes) + " bytes");
  }
}

/// Broadcast one self-sized record from `root` in a single binomial pass:
/// each non-root member takes the message from its parent, checks it and
/// forwards it unchanged.  Returns the record; its bytes follow the
/// length header.
inline std::vector<std::byte> bcast_record(const Comm& comm,
                                           std::span<const std::byte> bytes,
                                           rank_t root) {
  const CollectiveScope scope(comm, "bcast", root, Checker::kUncheckedCount,
                              1);
  const tag_t tag = comm.next_collective_tag();
  const int n = comm.size();
  const int vr = virtual_rank(comm.rank(), root, n);
  std::vector<std::byte> wire;
  int mask = 1;
  while (mask < n && (vr & mask) == 0) mask <<= 1;
  if (vr == 0) {
    append_record(wire, bytes);
  } else {
    const int parent = actual_rank(vr - mask, root, n);
    wire = comm.recv_take_raw(parent, tag).second;
    std::vector<std::size_t> ends;
    parse_records(wire, 1, "bcast", parent, 0, ends);
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (vr + mask < n) {
      comm.send_raw(wire, actual_rank(vr + mask, root, n), tag);
    }
  }
  return wire;
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

/// Broadcast a variable-length byte buffer (one self-sized pass).
inline void bcast_bytes(const Comm& comm, std::vector<std::byte>& bytes,
                        rank_t root = 0) {
  const std::vector<std::byte> wire = detail::bcast_record(comm, bytes, root);
  if (comm.rank() != root) {
    bytes.assign(wire.begin() + sizeof(detail::RecordLength), wire.end());
  }
}

/// Broadcast a string (used by MPH to distribute the registration file,
/// paper §6: "read by the root processor and broadcast to all processors").
inline void bcast_string(const Comm& comm, std::string& text, rank_t root = 0) {
  const std::vector<std::byte> wire =
      detail::bcast_record(comm, std::as_bytes(std::span(text)), root);
  if (comm.rank() != root) {
    text.assign(reinterpret_cast<const char*>(wire.data()) +
                    sizeof(detail::RecordLength),
                wire.size() - sizeof(detail::RecordLength));
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

/// Allgather equal-size contributions (Bruck).  Every block has the same
/// size, so each round's message size is known: the receive is posted
/// straight into the result and checked for exactly that size.
template <Transferable T>
std::vector<T> allgather(const Comm& comm, std::span<const T> values) {
  const detail::CollectiveScope scope(comm, "allgather", -1, values.size(),
                                      sizeof(T));
  const tag_t tag = comm.next_collective_tag();
  const int n = comm.size();
  const int r = comm.rank();
  const std::size_t block = values.size();
  std::vector<T> result(block * static_cast<std::size_t>(n));
  const auto blocks = [&](int first, int count) {
    return std::as_writable_bytes(std::span<T>(result).subspan(
        static_cast<std::size_t>(first) * block,
        static_cast<std::size_t>(count) * block));
  };
  // result[i] holds rank (r + i) % n's block until the final rotation.
  std::copy(values.begin(), values.end(), result.begin());
  for (int d = 1; d < n; d <<= 1) {
    const int count = std::min(d, n - d);
    detail::exchange_exact(comm, tag, "allgather", blocks(0, count),
                           (r - d + n) % n, blocks(d, count), (r + d) % n);
  }
  std::rotate(result.begin(),
              result.begin() + static_cast<std::ptrdiff_t>(
                                   static_cast<std::size_t>(n - r) * block),
              result.end());
  return result;
}

/// Allgather a single value per rank.
template <Transferable T>
std::vector<T> allgather_value(const Comm& comm, const T& value) {
  return allgather(comm, std::span<const T>(&value, 1));
}

/// Allgather variable-size contributions in one self-sized Bruck exchange
/// (no counts round).  `counts_out[r]` is rank r's element count; the
/// result holds the blocks in rank order.
template <Transferable T>
std::vector<T> allgatherv(const Comm& comm, std::span<const T> values,
                          std::vector<std::size_t>* counts_out = nullptr) {
  const detail::Gathered all =
      detail::allgather_records(comm, sizeof(T), std::as_bytes(values));
  std::vector<T> result;
  result.reserve(all.wire.size() / sizeof(T));  // blocks plus headers
  if (counts_out != nullptr) counts_out->clear();
  for (std::size_t b = 0; b < all.blocks.size(); ++b) {
    const std::span<const std::byte> block = all.blocks[b];
    if (block.size() % sizeof(T) != 0) {
      throw Error(Errc::truncation,
                  "allgatherv: rank " + std::to_string(b) + " sent " +
                      std::to_string(block.size()) +
                      " bytes, not a whole number of " +
                      std::to_string(sizeof(T)) + "-byte elements");
    }
    const std::size_t offset = result.size();
    result.resize(offset + block.size() / sizeof(T));
    if (!block.empty()) {
      std::memcpy(result.data() + offset, block.data(), block.size());
    }
    if (counts_out != nullptr) counts_out->push_back(block.size() / sizeof(T));
  }
  return result;
}

/// Allgather one string per rank: one allgatherv exchange of the bytes.
inline std::vector<std::string> allgather_strings(const Comm& comm,
                                                  const std::string& mine) {
  const detail::Gathered all =
      detail::allgather_records(comm, 1, std::as_bytes(std::span(mine)));
  std::vector<std::string> result;
  result.reserve(all.blocks.size());
  for (const std::span<const std::byte> block : all.blocks) {
    result.emplace_back(reinterpret_cast<const char*>(block.data()),
                        block.size());
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
