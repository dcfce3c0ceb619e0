// Point-to-point transport behind the dist collectives.
//
// `InProcessTransport` carries the ring all-reduce: a fixed group of
// `size()` rank threads in one process exchanging tagged float messages
// over directed (src, dst) channels. Ranks are threads of one process
// (docs/distributed.md), so it is the only transport, and `Communicator`
// owns one directly.
//
// Semantics the collectives rely on:
//  * send() is buffered: it enqueues and returns without waiting for the
//    receiver. Ring steps have every rank send before it receives — a
//    rendezvous send would deadlock the whole ring.
//  * Each (src, dst) channel is FIFO: messages arrive in send order. Tags
//    (collective op sequence + phase + step) are verified on receipt, so a
//    protocol mismatch — ranks running different collective sequences —
//    throws instead of silently mis-summing. The mismatched message stays
//    at the channel head (validated before dequeue), so the diverged state
//    is inspectable rather than consumed.
//  * recv() blocks until the matching message arrives. Arrival timing can
//    therefore never reorder arithmetic: each reduction step consumes
//    exactly the message it names, however the rank threads are scheduled.
//
// Liveness: a recv timeout (per-transport, 0 = wait forever) bounds how
// long a rank waits on a dead or diverged peer, and abort() poisons the
// whole transport — every blocked and future send/recv throws
// CollectiveAbort — so one rank detecting failure wakes the entire ring
// instead of leaving the survivors deadlocked mid-collective.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace is2::dist {

/// A collective died group-wide: a rank timed out, hit an injected fault,
/// or observed a peer's abort. Distinct from the tag-mismatch
/// std::runtime_error (a protocol bug) — this is the liveness error the
/// trainer surfaces when a rank stops participating.
class CollectiveAbort : public std::runtime_error {
 public:
  explicit CollectiveAbort(const std::string& what) : std::runtime_error(what) {}
};

/// Thread-mailbox transport: one mutex+cv FIFO per directed rank pair.
/// Payloads are copied on send (the buffered-send contract above) and copied
/// out on receive; message buffers are recycled through a per-channel free
/// list so steady-state collectives allocate nothing.
class InProcessTransport {
 public:
  /// `recv_timeout_ms` bounds every recv wait (0 = wait forever). On
  /// timeout the transport self-aborts — the timing-out rank poisons the
  /// group before throwing, so no surviving rank stays blocked.
  explicit InProcessTransport(int n_ranks, double recv_timeout_ms = 0.0);

  /// Number of ranks in the group.
  int size() const { return n_ranks_; }

  /// Buffered send of `n` floats from `src` toward `dst`; returns
  /// immediately (never blocks on the receiver).
  void send(int src, int dst, std::uint64_t tag, const float* data, std::size_t n);

  /// Blocking receive of the next message on the (src, dst) channel into
  /// `data`. Throws std::runtime_error when the head message's tag or
  /// length does not match — the collective sequence diverged across ranks
  /// (the message is left at the channel head). Throws CollectiveAbort on
  /// recv timeout or when the transport has been abort()ed.
  void recv(int src, int dst, std::uint64_t tag, float* data, std::size_t n);

  /// Poison the transport group-wide: every rank blocked in recv() wakes
  /// and throws CollectiveAbort carrying `reason`; subsequent sends and
  /// recvs throw immediately. Idempotent (the first reason wins).
  void abort(const std::string& reason);

  /// True once abort() has been called.
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  double recv_timeout_ms() const { return recv_timeout_ms_; }

  /// Number of messages queued on the (src, dst) channel (test hook: the
  /// tag-mismatch path must leave the mismatched message at the head).
  std::size_t pending(int src, int dst);

 private:
  struct Message {
    std::uint64_t tag = 0;
    std::vector<float> payload;
  };

  struct Channel {
    util::Mutex mutex;
    util::CondVar cv;
    std::deque<Message> queue GUARDED_BY(mutex);
    /// Recycled payload buffers.
    std::vector<std::vector<float>> free_list GUARDED_BY(mutex);
  };

  Channel& channel(int src, int dst);
  void check_rank(int rank) const;
  [[noreturn]] void throw_aborted() const;

  int n_ranks_;
  double recv_timeout_ms_;
  std::vector<Channel> channels_;  ///< indexed src * n_ranks + dst
  std::atomic<bool> aborted_{false};
  mutable util::Mutex abort_mutex_;
  std::string abort_reason_ GUARDED_BY(abort_mutex_);
};

}  // namespace is2::dist
