// Ring collectives for the in-process distributed-training substrate.
//
// A `Communicator(n)` is shared by `n` rank threads; every collective is
// called by all ranks (each passing its own rank id) and blocks until that
// rank's part completes. All-reduce is the bandwidth-optimal ring form:
// reduce-scatter (N−1 steps; each rank ends owning one fully reduced chunk)
// followed by allgather (N−1 steps; the reduced chunks circulate), moving
// 2(N−1)/N of the buffer per rank — `allreduce_bytes_per_rank` is that
// accounting, what the micro bench's GB/s figures are computed from.
//
// Determinism: each chunk's sum is parenthesized by the ring topology —
// contributions accumulate in ring order starting from a chunk-determined
// rank, and every reduction step consumes one specific tagged message — so
// the result is bit-identical run-to-run and independent of rank arrival
// order or thread scheduling (the fixed-order-reduction policy of
// docs/performance.md; stressed in test_parallel_determinism). All ranks
// finish with byte-identical buffers.
//
// Reuse: collectives are sequenced per rank by an op counter baked into the
// message tags, so one Communicator serves an arbitrary collective sequence
// (every rank must issue the same sequence; a divergence throws in the
// transport). Per rank, collectives must be issued from one thread at a
// time — the trainer's comm worker and main rank thread hand off, never
// overlap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dist/transport.hpp"

namespace is2::dist {

class Communicator {
 public:
  /// Rank-threaded group over the in-process transport. `recv_timeout_ms`
  /// bounds every receive (0 = wait forever): a dead or diverged peer
  /// aborts the collective on ALL ranks with CollectiveAbort instead of
  /// deadlocking the ring.
  explicit Communicator(int n_ranks, double recv_timeout_ms = 0.0);

  int size() const { return n_ranks_; }

  /// Poison the group: every rank blocked or subsequently entering a
  /// collective throws CollectiveAbort (delegates to the transport).
  void abort(const std::string& reason) { transport_.abort(reason); }
  bool aborted() const { return transport_.aborted(); }

  /// In-place ring all-reduce: every rank's buffer becomes the element-wise
  /// sum over ranks (byte-identical on all ranks).
  void allreduce_sum(int rank, float* data, std::size_t n);
  void allreduce_sum(int rank, std::vector<float>& buf) {
    allreduce_sum(rank, buf.data(), buf.size());
  }

  /// allreduce_sum scaled by 1/size() — the gradient-averaging form.
  void allreduce_mean(int rank, float* data, std::size_t n);
  void allreduce_mean(int rank, std::vector<float>& buf) {
    allreduce_mean(rank, buf.data(), buf.size());
  }

  /// Copy root's buffer into every rank's (root fan-out; fine at thread-rank
  /// group sizes, a ring pipeline when a wire transport makes fan-out pay).
  void broadcast(int rank, float* data, std::size_t n, int root);
  void broadcast(int rank, std::vector<float>& buf, int root) {
    broadcast(rank, buf.data(), buf.size(), root);
  }

  /// Bytes each rank moves through an N-rank ring all-reduce of `n_floats`:
  /// 2(N−1)/N · n · sizeof(float); 0 for a single rank.
  static std::size_t allreduce_bytes_per_rank(int ranks, std::size_t n_floats);

 private:
  /// Per-rank collective state; each slot is touched only by its own rank's
  /// issuing thread (alignment keeps the op counters off shared lines).
  struct alignas(64) RankState {
    std::uint64_t ops = 0;          ///< collectives issued (tag high bits)
    std::vector<float> scratch;     ///< reduce-scatter receive chunk
  };

  std::uint64_t next_op(int rank);
  void allreduce_sum_body(int rank, float* data, std::size_t n, std::uint64_t op);

  /// Wrap one rank's collective body: any failure (injected fault, IO
  /// error, tag divergence) aborts the transport group-wide, then
  /// resurfaces as CollectiveAbort so every rank fails the same way.
  template <typename Body>
  void guarded(const char* what, Body&& body) {
    try {
      body();
    } catch (const CollectiveAbort&) {
      throw;
    } catch (const std::exception& e) {
      transport_.abort(std::string(what) + ": " + e.what());
      throw CollectiveAbort(std::string("collective aborted: ") + what + ": " + e.what());
    }
  }

  int n_ranks_;
  InProcessTransport transport_;
  std::vector<RankState> state_;
};

}  // namespace is2::dist
