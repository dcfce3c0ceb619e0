#include "dist/transport.hpp"

#include <chrono>
#include <cstring>

#include "util/fault.hpp"

namespace is2::dist {

namespace {

/// One channel per (src, dst) pair. Checks the count before anything is
/// sized: a negative one would wrap to an enormous allocation.
std::size_t channel_count(int n_ranks) {
  if (n_ranks < 1) throw std::invalid_argument("InProcessTransport: need at least one rank");
  return static_cast<std::size_t>(n_ranks) * static_cast<std::size_t>(n_ranks);
}

}  // namespace

InProcessTransport::InProcessTransport(int n_ranks, double recv_timeout_ms)
    : n_ranks_(n_ranks), recv_timeout_ms_(recv_timeout_ms), channels_(channel_count(n_ranks)) {}

InProcessTransport::Channel& InProcessTransport::channel(int src, int dst) {
  return channels_[static_cast<std::size_t>(src) * static_cast<std::size_t>(n_ranks_) +
                   static_cast<std::size_t>(dst)];
}

void InProcessTransport::check_rank(int rank) const {
  if (rank < 0 || rank >= n_ranks_)
    throw std::invalid_argument("InProcessTransport: rank " + std::to_string(rank) +
                                " outside group of " + std::to_string(n_ranks_));
}

void InProcessTransport::throw_aborted() const {
  std::string reason;
  {
    util::MutexLock lock(abort_mutex_);
    reason = abort_reason_;
  }
  throw CollectiveAbort("collective aborted: " + (reason.empty() ? "unknown" : reason));
}

void InProcessTransport::abort(const std::string& reason) {
  {
    util::MutexLock lock(abort_mutex_);
    if (aborted_.load(std::memory_order_acquire)) return;  // first reason wins
    abort_reason_ = reason;
    aborted_.store(true, std::memory_order_release);
  }
  // Wake every blocked recv on every channel; each one observes aborted_
  // under its own channel lock and throws.
  for (Channel& ch : channels_) {
    util::MutexLock lock(ch.mutex);
    ch.cv.notify_all();
  }
}

std::size_t InProcessTransport::pending(int src, int dst) {
  check_rank(src);
  check_rank(dst);
  Channel& ch = channel(src, dst);
  util::MutexLock lock(ch.mutex);
  return ch.queue.size();
}

void InProcessTransport::send(int src, int dst, std::uint64_t tag, const float* data,
                              std::size_t n) {
  check_rank(src);
  check_rank(dst);
  if (aborted()) throw_aborted();
  util::fault::inject("dist.send", src);
  Channel& ch = channel(src, dst);
  Message msg;
  msg.tag = tag;
  {
    // Grab a recycled buffer if one is available; copy outside the lock.
    util::MutexLock lock(ch.mutex);
    if (!ch.free_list.empty()) {
      msg.payload = std::move(ch.free_list.back());
      ch.free_list.pop_back();
    }
  }
  msg.payload.resize(n);
  if (n > 0) std::memcpy(msg.payload.data(), data, n * sizeof(float));
  {
    util::MutexLock lock(ch.mutex);
    ch.queue.push_back(std::move(msg));
  }
  ch.cv.notify_one();
}

void InProcessTransport::recv(int src, int dst, std::uint64_t tag, float* data, std::size_t n) {
  check_rank(src);
  check_rank(dst);
  util::fault::inject("dist.recv", dst);
  Channel& ch = channel(src, dst);
  Message msg;
  {
    util::MutexLock lock(ch.mutex);
    // Explicit wait loops (not predicate lambdas): the thread-safety
    // analysis only accepts guarded reads it can see under the held lock.
    if (recv_timeout_ms_ > 0.0) {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(recv_timeout_ms_));
      while (ch.queue.empty() && !aborted()) {
        if (ch.cv.wait_until(lock, deadline) == std::cv_status::timeout &&
            ch.queue.empty() && !aborted()) {
          // The peer went silent: poison the group before throwing so the
          // other ranks wake instead of deadlocking on their own recvs.
          lock.unlock();
          abort("rank " + std::to_string(dst) + " recv from rank " + std::to_string(src) +
                " timed out after " + std::to_string(recv_timeout_ms_) + " ms");
          throw_aborted();
        }
      }
    } else {
      while (ch.queue.empty() && !aborted()) ch.cv.wait(lock);
    }
    if (aborted()) throw_aborted();
    // Validate the head BEFORE dequeuing: on a tag/length mismatch the
    // message stays at the channel head and the channel state is
    // untouched, so the divergence is diagnosable rather than cascading.
    const Message& head = ch.queue.front();
    if (head.tag != tag || head.payload.size() != n)
      throw std::runtime_error(
          "InProcessTransport: collective sequence diverged on channel " + std::to_string(src) +
          "->" + std::to_string(dst) + " (tag " + std::to_string(head.tag) + " != " +
          std::to_string(tag) + " or length " + std::to_string(head.payload.size()) + " != " +
          std::to_string(n) + ")");
    msg = std::move(ch.queue.front());
    ch.queue.pop_front();
  }
  if (n > 0) std::memcpy(data, msg.payload.data(), n * sizeof(float));
  {
    util::MutexLock lock(ch.mutex);
    ch.free_list.push_back(std::move(msg.payload));
  }
}

}  // namespace is2::dist
