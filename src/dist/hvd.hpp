// Horovod-style data-parallel primitives over the ring Communicator — the
// paper's four integration steps mapped onto this library:
//
//   1. hvd.init()                     -> dist::init(ranks)
//   2. pin one GPU per process        -> one rank thread per replica
//   3. hvd.DistributedOptimizer(opt)  -> dist::DistributedOptimizer
//   4. hvd.BroadcastGlobalVariables(0)-> dist::broadcast_parameters(root 0)
//
// `DistributedOptimizer` wraps an `nn::Adam`: before the wrapped step it
// replaces every parameter's gradient with the cross-rank weighted sum
// (weight 1/N by default — the gradient average). Gradients are packed into
// fixed-boundary buckets and reduced on a per-rank comm worker thread, so
// when driven through `Sequential::backward`'s gradient-ready hook the
// all-reduce of layers near the loss overlaps the backpropagation still
// descending toward the front end. Bucket boundaries are a pure function of
// the (identical) parameter shapes and `bucket_floats`, and each bucket's
// ring reduction is fixed-order, so N-rank training stays bit-reproducible
// run-to-run (docs/distributed.md).
//
// Observability: a Context registers the `is2_dist_*` series (all-reduce /
// step / sample counters, bucket all-reduce latency histogram) on the obs
// registry, labeled by group size, so fleet dashboards see training traffic
// next to serve traffic.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "dist/comm.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "obs/registry.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace is2::dist {

/// Shared process-group state: the Communicator all replicas reduce over
/// plus the obs instruments. Create via dist::init(ranks) and hand the same
/// shared_ptr to every rank.
struct Context {
  /// `recv_timeout_ms` bounds every collective receive (0 = wait forever):
  /// a dead rank aborts the group with CollectiveAbort instead of
  /// deadlocking the ring (see dist/transport.hpp).
  explicit Context(int ranks, obs::Registry* registry = &obs::Registry::global(),
                   double recv_timeout_ms = 0.0);

  int size() const { return comm.size(); }

  Communicator comm;

  // is2_dist_* instruments (labeled {ranks=<N>}; pointers stable for the
  // registry's lifetime — see obs/registry.hpp).
  obs::Counter* allreduces = nullptr;        ///< is2_dist_allreduce_total
  obs::Counter* allreduce_floats = nullptr;  ///< is2_dist_allreduce_floats_total
  obs::Counter* broadcasts = nullptr;        ///< is2_dist_broadcast_total
  obs::Counter* steps = nullptr;             ///< is2_dist_steps_total
  obs::Counter* samples = nullptr;           ///< is2_dist_samples_total
  obs::Counter* epochs = nullptr;            ///< is2_dist_epochs_total
  obs::Gauge* ranks_gauge = nullptr;         ///< is2_dist_ranks
  obs::HistogramMetric* allreduce_ms = nullptr;  ///< is2_dist_allreduce_ms
};

/// Step 1: create the process group (thread ranks, in-process transport).
/// A nonzero `recv_timeout_ms` arms the liveness guard: any rank waiting
/// longer than that on a peer aborts the collective on all ranks.
std::shared_ptr<Context> init(int ranks, double recv_timeout_ms = 0.0);

/// Step 4: overwrite every rank's parameter values with root's, one
/// collective per parameter in list order. Run before the first optimizer
/// step so replicas whose factories diverged still start bit-identical.
void broadcast_parameters(const std::vector<nn::Param>& params, Context& ctx, int rank,
                          int root = 0);

/// Step 3: gradient-averaging wrapper around an nn::Adam.
///
/// Two driving modes, identical arithmetic:
///  * Plain: call step(params) as on nn::Adam — gradients are bucketed
///    in parameter-list order, reduced synchronously with weight 1/N, then
///    the wrapped optimizer steps.
///  * Overlapped (the trainer): begin_step(weight) before backward, feed
///    grads_ready(...) from Sequential::backward's gradient-ready hook —
///    full buckets reduce on the comm worker while backward continues —
///    then step(params) flushes the tail bucket, waits for the drain and
///    runs the wrapped step. `weight` scales this rank's contribution
///    (local_batch/global_batch handles uneven shard tails; the weighted
///    sum over ranks is then exactly the global-batch mean gradient).
///
/// Every rank in the group must drive its optimizer the same way — bucket
/// boundaries and reduction order form the collective sequence.
class DistributedOptimizer {
 public:
  /// Default bucket size: ~4 buckets across the paper's LSTM model — small
  /// enough that the head's gradients reduce while BPTT is still running,
  /// large enough that per-bucket ring latency amortizes.
  static constexpr std::size_t kDefaultBucketFloats = 12 * 1024;

  DistributedOptimizer(std::unique_ptr<nn::Adam> inner, std::shared_ptr<Context> ctx, int rank,
                       std::size_t bucket_floats = kDefaultBucketFloats);
  ~DistributedOptimizer();

  DistributedOptimizer(const DistributedOptimizer&) = delete;
  DistributedOptimizer& operator=(const DistributedOptimizer&) = delete;

  /// Arm the overlapped path for one training step. No-op for a group of 1.
  void begin_step(double weight);
  /// Stage a layer's now-final gradients (from the backward hook). Buckets
  /// that fill are handed to the comm worker immediately.
  void grads_ready(const std::vector<nn::Param>& layer_params);
  /// Reduce whatever is still unstaged/unflushed, wait for the comm worker
  /// to drain, then apply the wrapped optimizer.
  void step(const std::vector<nn::Param>& params);
  void zero_grad(const std::vector<nn::Param>& params);

  /// Total floats this rank has all-reduced (gradient traffic accounting).
  std::size_t floats_reduced() const;
  /// CPU seconds the comm worker spent packing/reducing/unpacking — added
  /// to the rank's busy time for critical-path epoch accounting.
  double comm_busy_s() const;

 private:
  struct Span {
    float* data = nullptr;
    std::size_t n = 0;
  };
  struct Bucket {
    std::vector<Span> spans;
    std::size_t floats = 0;
    double weight = 1.0;
  };

  void stage(const nn::Param& p);
  void flush_open_bucket();
  void wait_drain();
  void reduce_bucket(const Bucket& bucket);
  void worker_loop();

  std::unique_ptr<nn::Adam> inner_;
  std::shared_ptr<Context> ctx_;
  int rank_;
  std::size_t bucket_floats_;

  // Issuing-thread state (rank main thread only — never touched by the
  // comm worker, so unguarded by construction).
  bool step_active_ = false;
  double weight_ = 1.0;
  Bucket open_;

  // State shared with the comm worker.
  mutable util::Mutex mutex_;
  util::CondVar cv_;
  std::deque<Bucket> queue_ GUARDED_BY(mutex_);
  /// First failure the comm worker hit (CollectiveAbort, injected fault).
  /// Once set, later buckets are discarded-but-counted so wait_drain()
  /// still unblocks; step() rethrows it on the rank thread.
  std::exception_ptr worker_error_ GUARDED_BY(mutex_);
  std::size_t enqueued_ GUARDED_BY(mutex_) = 0;
  std::size_t processed_ GUARDED_BY(mutex_) = 0;
  std::size_t floats_reduced_ GUARDED_BY(mutex_) = 0;
  double comm_busy_s_ GUARDED_BY(mutex_) = 0.0;
  bool stop_ GUARDED_BY(mutex_) = false;
  std::vector<float> pack_;  ///< worker-only scratch
  std::thread worker_;       ///< started only when the group has peers
};

}  // namespace is2::dist
