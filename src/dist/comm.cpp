#include "dist/comm.hpp"

#include <stdexcept>
#include <string>

namespace is2::dist {

namespace {

// Tag layout: | op (44 bits) | phase (4) | step (16) |. Phases: 0 =
// reduce-scatter, 1 = allgather, 2 = broadcast.
std::uint64_t make_tag(std::uint64_t op, unsigned phase, unsigned step) {
  return (op << 20) | (static_cast<std::uint64_t>(phase) << 16) | step;
}

}  // namespace

// transport_ is declared before state_, and its constructor rejects
// n_ranks < 1 before it sizes anything, so no member is sized for a bad
// count.
Communicator::Communicator(int n_ranks, double recv_timeout_ms)
    : n_ranks_(n_ranks),
      transport_(n_ranks, recv_timeout_ms),
      state_(static_cast<std::size_t>(n_ranks)) {}

std::uint64_t Communicator::next_op(int rank) {
  if (rank < 0 || rank >= n_ranks_)
    throw std::invalid_argument("Communicator: rank " + std::to_string(rank) +
                                " outside group of " + std::to_string(n_ranks_));
  return state_[static_cast<std::size_t>(rank)].ops++;
}

std::size_t Communicator::allreduce_bytes_per_rank(int ranks, std::size_t n_floats) {
  if (ranks <= 1) return 0;
  const auto n = static_cast<std::size_t>(ranks);
  return 2 * (n - 1) * n_floats * sizeof(float) / n;
}

void Communicator::allreduce_sum(int rank, float* data, std::size_t n) {
  const std::uint64_t op = next_op(rank);
  const int N = n_ranks_;
  if (N == 1 || n == 0) return;
  guarded("allreduce_sum", [&] { allreduce_sum_body(rank, data, n, op); });
}

void Communicator::allreduce_sum_body(int rank, float* data, std::size_t n, std::uint64_t op) {
  const int N = n_ranks_;
  auto& st = state_[static_cast<std::size_t>(rank)];
  const int next = (rank + 1) % N;
  const int prev = (rank + N - 1) % N;
  // Balanced chunking: chunk c covers [off(c), off(c+1)).
  auto off = [&](int c) { return static_cast<std::size_t>(c) * n / static_cast<std::size_t>(N); };
  auto chunk_len = [&](int c) { return off(c + 1) - off(c); };
  auto ring_chunk = [&](int c) { return ((c % N) + N) % N; };

  // Reduce-scatter: after step s, this rank holds the running partial sum of
  // chunk (rank − s − 1); after N−1 steps it owns the fully reduced chunk
  // (rank + 1). Each addition is local += upstream-partial, so chunk c's sum
  // is parenthesized in ring order regardless of scheduling.
  for (int s = 0; s < N - 1; ++s) {
    const int send_c = ring_chunk(rank - s);
    const int recv_c = ring_chunk(rank - s - 1);
    transport_.send(rank, next, make_tag(op, 0, static_cast<unsigned>(s)), data + off(send_c),
                    chunk_len(send_c));
    const std::size_t len = chunk_len(recv_c);
    st.scratch.resize(len);
    transport_.recv(prev, rank, make_tag(op, 0, static_cast<unsigned>(s)), st.scratch.data(),
                    len);
    float* d = data + off(recv_c);
    for (std::size_t i = 0; i < len; ++i) d[i] += st.scratch[i];
  }

  // Allgather: circulate the reduced chunks; receives overwrite in place.
  for (int s = 0; s < N - 1; ++s) {
    const int send_c = ring_chunk(rank + 1 - s);
    const int recv_c = ring_chunk(rank - s);
    transport_.send(rank, next, make_tag(op, 1, static_cast<unsigned>(s)), data + off(send_c),
                    chunk_len(send_c));
    transport_.recv(prev, rank, make_tag(op, 1, static_cast<unsigned>(s)), data + off(recv_c),
                    chunk_len(recv_c));
  }
}

void Communicator::allreduce_mean(int rank, float* data, std::size_t n) {
  allreduce_sum(rank, data, n);
  if (n_ranks_ == 1) return;
  const float scale = 1.0f / static_cast<float>(n_ranks_);
  for (std::size_t i = 0; i < n; ++i) data[i] *= scale;
}

void Communicator::broadcast(int rank, float* data, std::size_t n, int root) {
  if (root < 0 || root >= n_ranks_)
    throw std::invalid_argument("Communicator::broadcast: bad root " + std::to_string(root));
  const std::uint64_t op = next_op(rank);
  if (n_ranks_ == 1 || n == 0) return;
  guarded("broadcast", [&] {
    if (rank == root) {
      for (int r = 0; r < n_ranks_; ++r)
        if (r != root) transport_.send(root, r, make_tag(op, 2, 0), data, n);
    } else {
      transport_.recv(root, rank, make_tag(op, 2, 0), data, n);
    }
  });
}

}  // namespace is2::dist
