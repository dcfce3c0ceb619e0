#include "dist/hvd.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/mutex.hpp"
#include "util/timer.hpp"

namespace is2::dist {

Context::Context(int ranks, obs::Registry* registry, double recv_timeout_ms)
    : comm(ranks, recv_timeout_ms) {
  const obs::Labels labels{{"ranks", std::to_string(ranks)}};
  allreduces = &registry->counter("is2_dist_allreduce_total", labels,
                                  "Gradient bucket all-reduces issued (per rank)");
  allreduce_floats = &registry->counter("is2_dist_allreduce_floats_total", labels,
                                        "Floats pushed through all-reduce (per rank)");
  broadcasts = &registry->counter("is2_dist_broadcast_total", labels,
                                  "Parameter broadcast collectives issued (per rank)");
  steps = &registry->counter("is2_dist_steps_total", labels, "Distributed optimizer steps");
  samples = &registry->counter("is2_dist_samples_total", labels, "Training samples consumed");
  epochs = &registry->counter("is2_dist_epochs_total", labels, "Training epochs completed");
  ranks_gauge = &registry->gauge("is2_dist_ranks", {}, "Size of the most recent process group");
  allreduce_ms = &registry->histogram("is2_dist_allreduce_ms", labels,
                                      "Per-bucket all-reduce latency (ms)");
  ranks_gauge->set(static_cast<double>(ranks));
}

std::shared_ptr<Context> init(int ranks, double recv_timeout_ms) {
  return std::make_shared<Context>(ranks, &obs::Registry::global(), recv_timeout_ms);
}

void broadcast_parameters(const std::vector<nn::Param>& params, Context& ctx, int rank,
                          int root) {
  for (const auto& p : params) {
    ctx.comm.broadcast(rank, p.value->data(), p.value->size(), root);
    ctx.broadcasts->inc();
  }
}

DistributedOptimizer::DistributedOptimizer(std::unique_ptr<nn::Adam> inner,
                                           std::shared_ptr<Context> ctx, int rank,
                                           std::size_t bucket_floats)
    : inner_(std::move(inner)),
      ctx_(std::move(ctx)),
      rank_(rank),
      bucket_floats_(bucket_floats) {
  if (!inner_) throw std::invalid_argument("DistributedOptimizer: null inner optimizer");
  if (!ctx_) throw std::invalid_argument("DistributedOptimizer: null context");
  if (bucket_floats_ == 0) throw std::invalid_argument("DistributedOptimizer: zero bucket size");
  if (rank_ < 0 || rank_ >= ctx_->size())
    throw std::invalid_argument("DistributedOptimizer: rank outside group");
  if (ctx_->size() > 1) worker_ = std::thread([this] { worker_loop(); });
}

DistributedOptimizer::~DistributedOptimizer() {
  if (worker_.joinable()) {
    {
      util::MutexLock lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }
}

void DistributedOptimizer::begin_step(double weight) {
  if (ctx_->size() <= 1) return;
  step_active_ = true;
  weight_ = weight;
}

void DistributedOptimizer::grads_ready(const std::vector<nn::Param>& layer_params) {
  if (!step_active_) return;
  for (const auto& p : layer_params) stage(p);
}

void DistributedOptimizer::stage(const nn::Param& p) {
  open_.spans.push_back({p.grad->data(), p.grad->size()});
  open_.floats += p.grad->size();
  if (open_.floats >= bucket_floats_) flush_open_bucket();
}

void DistributedOptimizer::flush_open_bucket() {
  if (open_.spans.empty()) return;
  open_.weight = weight_;
  {
    util::MutexLock lock(mutex_);
    queue_.push_back(std::move(open_));
    ++enqueued_;
  }
  cv_.notify_all();
  open_ = Bucket{};
}

void DistributedOptimizer::wait_drain() {
  util::MutexLock lock(mutex_);
  while (processed_ != enqueued_) cv_.wait(lock);
}

void DistributedOptimizer::reduce_bucket(const Bucket& bucket) {
  // Pack spans × weight, ring-reduce the weighted sums, unpack. The weighted
  // sum over ranks of (bsz_r / global_batch) · grad_r is exactly the
  // global-batch mean gradient, uneven shard tails included.
  pack_.resize(bucket.floats);
  const float w = static_cast<float>(bucket.weight);
  std::size_t at = 0;
  for (const auto& s : bucket.spans) {
    for (std::size_t i = 0; i < s.n; ++i) pack_[at + i] = s.data[i] * w;
    at += s.n;
  }
  util::Timer wall;
  ctx_->comm.allreduce_sum(rank_, pack_.data(), pack_.size());
  ctx_->allreduce_ms->observe(wall.seconds() * 1e3);
  ctx_->allreduces->inc();
  ctx_->allreduce_floats->inc(bucket.floats);
  at = 0;
  for (const auto& s : bucket.spans) {
    std::memcpy(s.data, pack_.data() + at, s.n * sizeof(float));
    at += s.n;
  }
}

void DistributedOptimizer::worker_loop() {
  util::ThreadCpuTimer cpu;
  for (;;) {
    Bucket bucket;
    {
      util::MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_.wait(lock);
      if (queue_.empty()) return;  // stop_ set and nothing left to reduce
      bucket = std::move(queue_.front());
      queue_.pop_front();
    }
    cpu.reset();
    // A failed collective (CollectiveAbort, injected fault) must not kill
    // the worker thread: record the first error, then drain-and-discard
    // subsequent buckets so wait_drain() always unblocks and the rank
    // thread sees the failure from step() instead of std::terminate.
    bool skip;
    {
      util::MutexLock lock(mutex_);
      skip = worker_error_ != nullptr;
    }
    std::exception_ptr err;
    if (!skip) {
      try {
        reduce_bucket(bucket);
      } catch (...) {
        err = std::current_exception();
      }
    }
    {
      util::MutexLock lock(mutex_);
      comm_busy_s_ += cpu.seconds();
      if (!skip && !err) floats_reduced_ += bucket.floats;
      if (err && !worker_error_) worker_error_ = err;
      ++processed_;
    }
    cv_.notify_all();
  }
}

void DistributedOptimizer::step(const std::vector<nn::Param>& params) {
  if (ctx_->size() > 1) {
    if (!step_active_) {
      // Plain mode: bucket the whole parameter list synchronously with the
      // uniform 1/N weight — a drop-in gradient-averaging optimizer.
      begin_step(1.0 / static_cast<double>(ctx_->size()));
      for (const auto& p : params) stage(p);
    }
    flush_open_bucket();
    wait_drain();
    step_active_ = false;
    std::exception_ptr err;
    {
      util::MutexLock lock(mutex_);
      err = worker_error_;
    }
    // Surface the comm worker's failure on the rank thread: the wrapped
    // optimizer never steps on a partially reduced gradient.
    if (err) std::rethrow_exception(err);
  }
  inner_->step(params);
  ctx_->steps->inc();
}

void DistributedOptimizer::zero_grad(const std::vector<nn::Param>& params) {
  inner_->zero_grad(params);
}

std::size_t DistributedOptimizer::floats_reduced() const {
  util::MutexLock lock(mutex_);
  return floats_reduced_;
}

double DistributedOptimizer::comm_busy_s() const {
  util::MutexLock lock(mutex_);
  return comm_busy_s_;
}

}  // namespace is2::dist
