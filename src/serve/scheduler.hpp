// Request admission and dispatch for the serving subsystem.
//
// Ownership / threading contract: every type here is thread-safe; the
// scheduler owns its worker threads and joins them in shutdown()/dtor.
//
//  * `Priority` — the three admission classes. Lower enum value = more
//    important. `interactive` is user-facing traffic, `batch` is planned
//    reprocessing, `background` is opportunistic work (prefetch, backfill)
//    that is always the first to be shed.
//  * `PriorityQueue<T>` — the bounded MPMC queue the scheduler dispatches
//    from: one deque per `Priority` sharing a total capacity. push() blocks
//    while the queue is full (backpressure toward the client); pop() blocks
//    while empty and drains remaining items after close() so shutdown never
//    drops accepted work. Dequeue is weighted round-robin (so a flood of
//    interactive work cannot starve background forever, and vice versa),
//    and try_push displaces instead of blocking: when full, the newest
//    queued item of the lowest class strictly below the incoming one is
//    shed to make room (background first). promote() moves a queued item
//    to a higher class when an important requester coalesces onto a job
//    queued by a less important one.
//  * `BatchScheduler` — coalesces concurrent requests for the same
//    (granule, beam, config) into a single build job (single-flight), queues
//    cold jobs through the priority queue, and executes them on a
//    `util::ThreadPool` of worker threads. The builder callback runs the
//    heavy granule pipeline (and performs its own cache insert/recheck), so
//    a key is never built twice concurrently and every attached requester
//    shares one `ProductResponse`. Which methods block: submit() (while the
//    queue is full); try_submit() never blocks — it sheds instead and
//    reports the shed class. Displaced jobs fail their shared future with
//    `ShedError`.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/product_cache.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace is2::serve {

/// Admission class of a request. Order matters: smaller value = higher
/// priority, and shedding walks from the back of this enum forward.
enum class Priority : std::uint8_t { interactive = 0, batch = 1, background = 2 };

inline constexpr std::size_t kPriorityClasses = 3;

/// Per-class counts/weights, indexed by static_cast<std::size_t>(Priority).
using ClassWeights = std::array<std::size_t, kPriorityClasses>;

const char* priority_name(Priority p);

/// Raised through the shared future of a queued job that was displaced by a
/// higher-priority admission (distinct from the shutdown runtime_error so
/// clients can retry shed work but not shutdown work).
class ShedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Raised through the shared future of a job whose request carried a
/// `deadline_ms` that expired while the job sat in the queue. Distinct from
/// ShedError: the scheduler chose to shed nothing — the client's latency
/// budget ran out, so building would only waste a worker on an answer
/// nobody is waiting for. Checked at dequeue (deadline-aware shedding).
class DeadlineError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One client request: which product to materialize — how deep
/// (`ProductKind`), with which classifier backend, with which sea surface
/// estimator — and at which admission priority. Kind, backend and method all
/// participate in the cache key, so each combination is its own entry; a
/// deeper kind additionally *resumes* from a cached shallower one instead of
/// rebuilding (see GranuleService::build).
struct ProductRequest {
  std::string granule_id;
  atl03::BeamId beam = atl03::BeamId::Gt1r;
  seasurface::Method method = seasurface::Method::NasaEquation;
  Priority priority = Priority::batch;
  pipeline::ProductKind kind = pipeline::ProductKind::freeboard;
  pipeline::Backend backend = pipeline::Backend::nn;
  /// Client latency budget in ms (0 = none). A job still queued when its
  /// budget expires is dropped at dequeue with `DeadlineError` instead of
  /// occupying a worker. Not part of the cache key; coalesced waiters share
  /// the budget of the job that got queued first.
  double deadline_ms = 0.0;
};

/// Where a response came from. `ram` and `disk` are the two cache tiers;
/// `build` means the full pipeline ran.
enum class ServedFrom : std::uint8_t { build = 0, ram = 1, disk = 2 };

/// Outcome shared by every request coalesced onto one build.
struct ProductResponse {
  std::shared_ptr<const GranuleProduct> product;
  bool from_cache = false;  ///< no pipeline ran to answer this response
  double service_ms = 0.0;  ///< queue wait + build wall time (0 on fast path)
  ServedFrom source = ServedFrom::build;
  /// obs trace id of the job that produced this response (coalesced waiters
  /// share the one id); 0 when tracing is off.
  std::uint64_t trace_id = 0;
  double queue_wait_ms = 0.0;  ///< make_job -> worker pop (0 on fast path)
};

using ProductFuture = std::shared_future<ProductResponse>;

/// Bounded MPMC queue with one FIFO lane per `Priority`, a shared total
/// capacity, weighted-round-robin dequeue and class-aware displacement.
/// Thread-safe; push() blocks, everything else does not.
template <typename T>
class PriorityQueue {
 public:
  using Weights = ClassWeights;

  /// `weights` are dequeues granted per class per round-robin cycle
  /// (work-conserving: an empty class forfeits its turns, and a zero weight
  /// only defers a non-empty class until every other class is empty or out
  /// of credit).
  explicit PriorityQueue(std::size_t capacity, Weights weights = {8, 3, 1})
      : capacity_(capacity ? capacity : 1), weights_(weights), credits_(weights) {}

  /// Blocking push; waits for total space. Returns false iff closed.
  bool push(T item, Priority cls) {
    util::MutexLock lock(mutex_);
    while (!closed_ && total_locked() >= capacity_) space_cv_.wait(lock);
    if (closed_) return false;
    lane(cls).push_back(std::move(item));
    lock.unlock();
    item_cv_.notify_one();
    return true;
  }

  /// Non-blocking push with displacement. When the queue is full, the newest
  /// queued item of the lowest non-empty class *strictly below* `cls` is
  /// removed into *victim to make room (shed background first). Returns
  /// false — the push itself is shed — when closed, or when full with
  /// nothing lower-class queued.
  bool try_push(T item, Priority cls,
                std::optional<std::pair<T, Priority>>* victim = nullptr) {
    util::MutexLock lock(mutex_);
    if (victim) victim->reset();
    if (closed_) return false;
    if (total_locked() >= capacity_) {
      const auto incoming = static_cast<std::size_t>(cls);
      std::size_t shed = kPriorityClasses;
      for (std::size_t c = kPriorityClasses; c-- > incoming + 1;) {
        if (!items_[c].empty()) {
          shed = c;
          break;
        }
      }
      if (shed == kPriorityClasses) return false;
      if (victim) victim->emplace(std::move(items_[shed].back()), static_cast<Priority>(shed));
      items_[shed].pop_back();
    }
    lane(cls).push_back(std::move(item));
    lock.unlock();
    item_cv_.notify_one();
    return true;
  }

  /// Move a queued item to a higher class; no-op (false) when the item is
  /// not queued below `to` (e.g. already being built).
  bool promote(const T& item, Priority to) {
    util::MutexLock lock(mutex_);
    for (std::size_t c = static_cast<std::size_t>(to) + 1; c < kPriorityClasses; ++c) {
      auto& dq = items_[c];
      const auto it = std::find(dq.begin(), dq.end(), item);
      if (it == dq.end()) continue;
      dq.erase(it);
      lane(to).push_back(item);
      return true;
    }
    return false;
  }

  /// Blocking weighted pop; empty optional once closed and drained. Classes
  /// are scanned highest-priority-first, each consuming up to its weight in
  /// credits before yielding the cycle; credits refill when no eligible
  /// class has any left.
  std::optional<std::pair<T, Priority>> pop() {
    util::MutexLock lock(mutex_);
    while (!closed_ && total_locked() == 0) item_cv_.wait(lock);
    if (total_locked() == 0) return std::nullopt;
    std::size_t pick = kPriorityClasses;
    for (int round = 0; round < 2 && pick == kPriorityClasses; ++round) {
      for (std::size_t c = 0; c < kPriorityClasses; ++c) {
        if (!items_[c].empty() && credits_[c] > 0) {
          pick = c;
          break;
        }
      }
      if (pick == kPriorityClasses) credits_ = weights_;  // cycle exhausted
    }
    if (pick == kPriorityClasses) {  // only zero-weight classes are non-empty
      for (std::size_t c = 0; c < kPriorityClasses; ++c)
        if (!items_[c].empty()) {
          pick = c;
          break;
        }
    }
    if (credits_[pick] > 0) --credits_[pick];
    std::pair<T, Priority> out{std::move(items_[pick].front()), static_cast<Priority>(pick)};
    items_[pick].pop_front();
    lock.unlock();
    space_cv_.notify_one();
    return out;
  }

  void close() {
    {
      util::MutexLock lock(mutex_);
      closed_ = true;
    }
    item_cv_.notify_all();
    space_cv_.notify_all();
  }

  std::size_t size() const {
    util::MutexLock lock(mutex_);
    return total_locked();
  }

  std::size_t size(Priority cls) const {
    util::MutexLock lock(mutex_);
    return items_[static_cast<std::size_t>(cls)].size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  std::deque<T>& lane(Priority cls) REQUIRES(mutex_) {
    return items_[static_cast<std::size_t>(cls)];
  }
  std::size_t total_locked() const REQUIRES(mutex_) {
    std::size_t n = 0;
    for (const auto& dq : items_) n += dq.size();
    return n;
  }

  const std::size_t capacity_;
  const Weights weights_;
  mutable util::Mutex mutex_;
  util::CondVar item_cv_;   ///< signaled on push/close
  util::CondVar space_cv_;  ///< signaled on pop/close
  std::array<std::deque<T>, kPriorityClasses> items_ GUARDED_BY(mutex_);
  Weights credits_ GUARDED_BY(mutex_);  ///< remaining dequeues this cycle
  bool closed_ GUARDED_BY(mutex_) = false;
};

/// Scheduler counters, as a value snapshot: stats() reads them from the
/// registry's `is2_sched_*` instruments (per-class labels), so the same
/// numbers flow through `obs::to_prometheus`.
struct SchedulerStats {
  std::uint64_t dispatched = 0;  ///< build jobs accepted into the queue
  std::uint64_t coalesced = 0;   ///< requests attached to an in-flight build
  std::uint64_t rejected = 0;    ///< try_submit requests shed on arrival
  std::uint64_t displaced = 0;   ///< queued jobs shed to admit a higher class
  std::uint64_t deadline_expired = 0;  ///< jobs dropped at dequeue, budget spent
  std::uint64_t completed = 0;   ///< build jobs finished (ok, error or deadline)
  std::size_t queue_depth = 0;   ///< jobs waiting for a worker right now
  std::size_t in_flight = 0;     ///< keys queued or building right now
  /// Shed totals by the class of what was lost: a rejected arrival counts
  /// under its own class, a displaced queued job under the class it held.
  std::array<std::uint64_t, kPriorityClasses> shed_by_class{};
  std::array<std::uint64_t, kPriorityClasses> dispatched_by_class{};
  std::array<std::uint64_t, kPriorityClasses> deadline_expired_by_class{};
  std::array<std::size_t, kPriorityClasses> queue_depth_by_class{};
};

class BatchScheduler {
 public:
  /// Runs the heavy pipeline for one key. Called on a worker thread; must
  /// be thread-safe across distinct keys.
  using Builder = std::function<ProductResponse(const ProductRequest&, const ProductKey&)>;

  struct Config {
    std::size_t workers = 4;
    std::size_t queue_capacity = 64;
    /// Weighted-round-robin dequeue shares per class (interactive, batch,
    /// background) per cycle.
    ClassWeights class_weights = {8, 3, 1};
    /// Called once per successfully served job (not per coalesced waiter)
    /// with the submitting request's class, the job's service time (queue
    /// wait + execution — the quantity the weighted dequeue and
    /// displacement actually shape) and the queue-wait share of it. Runs
    /// on a worker thread.
    std::function<void(Priority, double service_ms, double queue_wait_ms)> on_served;
    /// Registry the scheduler registers its `is2_sched_*` instruments in;
    /// nullptr = the scheduler owns a private registry (stats() works the
    /// same either way).
    obs::Registry* registry = nullptr;
    /// Tracer that mints one TraceContext per dispatched job and receives
    /// coalesce/displacement instant events; nullptr = tracing off.
    obs::Tracer* tracer = nullptr;
  };

  BatchScheduler(const Config& config, Builder builder);
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Submit with backpressure: blocks while the queue is full. Requests for
  /// a key already queued or building attach to that job without blocking
  /// (and promote it to their class when that class is higher).
  ProductFuture submit(const ProductRequest& request, const ProductKey& key);

  /// Load-shedding submit: never blocks. When the queue is full, a queued
  /// job of a class strictly below the request's is displaced to admit it
  /// (the victim's waiters see ShedError); when nothing lower is queued the
  /// request itself is shed and std::nullopt is returned. `shed_class`, when
  /// non-null, reports which class paid: the victim's on displacement, the
  /// request's own on rejection, unset otherwise. Still attaches to
  /// in-flight jobs for free. After shutdown() both submit flavors return a
  /// broken future, so "retry later" (nullopt) is never confused with
  /// "service is down".
  std::optional<ProductFuture> try_submit(const ProductRequest& request, const ProductKey& key,
                                          std::optional<Priority>* shed_class = nullptr);

  SchedulerStats stats() const;

  /// Stop accepting work, finish everything already accepted, join workers.
  void shutdown();

 private:
  struct Job {
    ProductRequest request;
    ProductKey key;
    Priority cls = Priority::batch;  ///< current queue class, guarded by mutex_
    std::promise<ProductResponse> promise;
    ProductFuture future;
    util::Timer enqueued;  ///< measures queue wait + build = service time
    /// Minted with the job; owned by the submitter until the push lands,
    /// then by the worker that pops it. Coalescers / displacers must not
    /// touch a foreign context — they record ring instants by trace id.
    obs::TraceContext trace;
  };
  using JobPtr = std::shared_ptr<Job>;

  JobPtr make_job(const ProductRequest& request, const ProductKey& key) const;
  void drain_loop();
  obs::Labels class_labels(Priority cls) const;

  Config config_;
  Builder builder_;
  PriorityQueue<JobPtr> queue_;

  /// Also guards Job::cls of every in-flight job (a cross-object contract
  /// GUARDED_BY cannot spell on Job itself — see the Job::cls comment).
  mutable util::Mutex mutex_;
  std::unordered_map<ProductKey, JobPtr, ProductKeyHash> inflight_ GUARDED_BY(mutex_);
  bool shut_down_ GUARDED_BY(mutex_) = false;

  /// Counters live in the registry (monotonic, lock-free increments; read
  /// back by stats() and exported by obs::to_prometheus). Owned registry
  /// only when Config::registry was null.
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  std::array<obs::Counter*, kPriorityClasses> dispatched_total_{};
  std::array<obs::Counter*, kPriorityClasses> coalesced_total_{};
  std::array<obs::Counter*, kPriorityClasses> rejected_total_{};
  std::array<obs::Counter*, kPriorityClasses> displaced_total_{};
  std::array<obs::Counter*, kPriorityClasses> deadline_expired_total_{};
  obs::Counter* completed_total_ = nullptr;
  std::array<obs::Gauge*, kPriorityClasses> queue_depth_gauge_{};
  obs::Gauge* in_flight_gauge_ = nullptr;

  util::ThreadPool pool_;
  std::vector<std::future<void>> drains_;
};

}  // namespace is2::serve
