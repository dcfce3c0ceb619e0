// serve::Cluster — an in-process fleet of serving nodes behind a
// consistent-hash router. The scale-out layer of `src/serve/`: N
// `GranuleService` nodes (each with its own RAM tier, scheduler and obs
// registry), one shared `DiskCache` directory as the fleet-wide cold tier,
// and a router that turns a `ProductRequest` into "which node serves this
// key".
//
// Routing. The request's *shallow* (classification-kind) `ProductKey`
// hashes onto a `HashRing` (virtual nodes; see hash_ring.hpp). Because
// product fingerprints are stage-prefix-scoped, every stage depth and
// sea-surface method of one (granule, beam, backend) co-locates — a warmed
// classification prefix sits exactly where a deeper freeboard request
// routes, keeping the cross-tier resume path alive fleet-wide. Cold keys
// go to the ring owner, so each key's working set concentrates on one
// node's RAM tier. Keys whose observed
// popularity crosses `hot_key_threshold` (the Zipf head) are instead
// round-robined across the key's replica set (`replication_factor` distinct
// ring successors) so one scorching granule spreads over several nodes.
//
// Peer fetch. Before dispatching to the target node, the router peeks the
// target's RAM tier; on a miss it probes the rest of the key's replica set
// (`peek_ram`, cheapest possible call) and, on a hit, copies the resident
// product into the target (`promote_ram`) — the request then fast-hits
// instead of paying shard IO + inference. Counters
// (`is2_cluster_peer_probe_total` / `is2_cluster_peer_fetch_total`) assert
// the skip in tests; responses stay bit-identical because the product
// object itself moves.
//
// Miss path order at the target node is therefore: RAM -> peer RAM ->
// shared disk -> shallower-kind resume -> full rebuild.
//
// Node kill. `kill_node(i)` removes the node from the ring (re-routing only
// its key ranges — consistent hashing's minimal-churn property), then
// drains it. Re-routed keys land on their new owner and usually recover
// from the shared disk tier without shard IO.
//
// Observability. The cluster owns a registry for router metrics and the
// shared disk tier; `obs_snapshot()` merges it with every node's snapshot,
// tagging node-local points with a `node="node<i>"` label (bounded
// cardinality: one value per node; see docs/observability.md) and
// re-sorting by (name, labels) so `obs::to_prometheus` groups families
// correctly.
//
// Threading: submit/try_submit/warm/metrics/obs_snapshot are thread-safe;
// the router mutex covers only ring/popularity bookkeeping, never a build.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/registry.hpp"
#include "serve/hash_ring.hpp"
#include "serve/service.hpp"
#include "util/backoff.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace is2::serve {

struct ClusterConfig {
  std::size_t nodes = 3;
  std::size_t vnodes = 128;  ///< ring points per node (balance knob)
  /// Replica-set size for hot keys and peer-fetch probing. 1 disables both
  /// (owner-only routing, no peers to probe).
  std::size_t replication_factor = 2;
  /// Requests for one key before it counts as hot and spreads over its
  /// replica set. The popularity ledger is approximate: bounded to
  /// `popularity_capacity` keys and reset when full (a slow decay).
  std::uint64_t hot_key_threshold = 16;
  std::size_t popularity_capacity = 1u << 16;
  /// Self-healing: a "node failure" is a thrown submit or probe against a
  /// live node (injected fault, dying service). This many *consecutive*
  /// failures quarantine the node — out of the ring but not drained, RAM
  /// intact, revivable. 0 disables the automatic ledger (explicit
  /// quarantine_node still works).
  std::uint64_t quarantine_after = 3;
  /// Hot ledger keys re-replicated off a freshly quarantined node onto
  /// their new owners — bounds the healing work done per transition.
  std::size_t rereplicate_limit = 64;
  /// Peer-fetch resilience: retries per peer after a thrown probe, and the
  /// (seeded) backoff between them. The whole probe phase also respects the
  /// request's remaining deadline budget.
  std::size_t peer_retries = 1;
  util::BackoffConfig peer_backoff{0.2, 5.0};
  /// Per-node service knobs. disk_cache_dir / disk_cache_bytes / shared_disk
  /// are overridden by the cluster (nodes must not each open the shared
  /// directory); everything else applies to every node identically —
  /// identical config + model is what makes keys and products portable
  /// across the fleet.
  ServiceConfig node;
  /// Fleet-wide cold tier directory; empty = RAM tiers only.
  std::string shared_disk_dir;
  std::size_t shared_disk_bytes = 1ull << 30;
};

struct ClusterMetrics {
  std::vector<ServiceMetrics> nodes;  ///< per node, dead nodes included
  std::vector<bool> live;
  std::vector<bool> quarantined;      ///< in the fleet but out of the ring
  std::vector<std::uint64_t> routed;  ///< requests routed per node
  std::uint64_t requests = 0;
  std::uint64_t peer_probes = 0;    ///< peek_ram calls against peers
  std::uint64_t peer_fetches = 0;   ///< probes that hit and promoted
  std::uint64_t replica_routes = 0; ///< hot-key requests sent off-owner
  std::uint64_t hot_keys = 0;       ///< keys promoted past the threshold
  std::uint64_t node_failures = 0;  ///< thrown submits/probes recorded
  std::uint64_t quarantines = 0;    ///< live -> quarantined transitions
  std::uint64_t revives = 0;        ///< quarantined -> live transitions
  std::uint64_t rereplicated_keys = 0;  ///< hot keys healed off quarantined nodes
  DiskCacheStats shared_disk;       ///< zeroed when no shared tier
  /// Max/mean routed-requests ratio over live nodes (1.0 = perfectly even);
  /// 0 when nothing was routed.
  double imbalance() const;
};

class Cluster {
 public:
  /// Same construction surface as one GranuleService; the shard index,
  /// model factory and scaler are fanned out to every node so the fleet is
  /// homogeneous. Node count and routing knobs come from `ClusterConfig`.
  Cluster(const ClusterConfig& config, const core::PipelineConfig& pipeline,
          const geo::GeoCorrections& corrections, const ShardIndex& index,
          GranuleService::ModelFactory model_factory, resample::FeatureScaler scaler,
          GranuleService::TreeFactory tree_factory = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Route and serve (blocking backpressure on the target node's queue).
  ProductFuture submit(const ProductRequest& request);

  /// Route and serve without blocking; sheds exactly like the node-level
  /// call (std::nullopt / ShedError on displaced waiters).
  std::optional<ProductFuture> try_submit(const ProductRequest& request,
                                          std::optional<Priority>* shed_class = nullptr);

  /// Prefetch lever: rewrites every request to the *shallow* kind
  /// (classification — the expensive prefix: shard IO + inference), groups
  /// by owning node and fans each group out on the engine. Interactive
  /// traffic later deepens the cached prefix on demand through the
  /// cross-tier resume path, so warming never pays for seasurface/freeboard
  /// stages nobody may ask for. Returns products actually built.
  std::size_t warm(const std::vector<ProductRequest>& requests, mapred::Engine& engine);

  /// Cache key a request resolves to (identical on every node).
  ProductKey key_for(const ProductRequest& request) const;
  /// Ring owner / replica set of a key (exposed for tests and ops).
  std::uint32_t owner_of(const ProductKey& key) const;
  std::vector<std::uint32_t> replica_set_of(const ProductKey& key) const;

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t live_count() const;
  bool is_live(std::size_t i) const;
  /// Direct node access (tests, metrics drill-down). Valid for the cluster
  /// lifetime, even after kill_node.
  GranuleService& node(std::size_t i) { return *nodes_.at(i); }

  /// Take a node out of the fleet: remove it from the ring (its key ranges
  /// re-route with minimal churn), then drain it. Idempotent and terminal —
  /// a killed node cannot be revived. In-flight requests already routed
  /// there during the call may see broken futures — the same contract as a
  /// real node crash, minus the UB.
  void kill_node(std::size_t i);

  /// Take a flapping node out of the ring WITHOUT draining it: its RAM tier
  /// stays intact and revive_node() brings it back. Hot ledger keys are
  /// re-replicated onto their new owners (bounded by rereplicate_limit) so
  /// the fleet keeps fast-hitting what the node held. Idempotent; no-op on
  /// a node that is already out (quarantined or killed).
  void quarantine_node(std::size_t i);

  /// Rejoin a quarantined node. HashRing add/remove are exact inverses, so
  /// the restored ring — and thus routing — is bit-identical to the
  /// pre-quarantine ring. No-op unless the node is currently quarantined.
  void revive_node(std::size_t i);

  bool is_quarantined(std::size_t i) const;

  /// Active failure detection: probe every live node's RAM tier (through
  /// the `peer.peek` fault site, so chaos plans can fail it); a thrown
  /// probe feeds the consecutive-failure ledger and can quarantine the
  /// node. Dead and quarantined nodes are never probed. Returns the number
  /// of healthy probes this sweep.
  std::size_t probe_health();

  ClusterMetrics metrics() const;

  /// Router + shared-disk instruments only (`is2_cluster_*`); node
  /// instruments live in each node's registry.
  const obs::Registry& registry() const { return registry_; }

  /// Fleet-wide exposition: cluster registry points plus every node's
  /// snapshot labeled `node="node<i>"`, re-sorted by (name, labels).
  obs::RegistrySnapshot obs_snapshot() const;

  /// Shared cold tier (nullptr when shared_disk_dir is empty).
  const DiskCache* shared_disk() const { return disk_.get(); }

  /// Drain pending disk write-backs on every live node (tests / restarts).
  void wait_disk_writebacks();

  /// Drain every live node, idempotent.
  void shutdown();

 private:
  struct Route {
    ProductKey key;           ///< exact key (cache lookups, popularity)
    std::uint64_t hash = 0;   ///< shallow-key ring hash (placement)
    std::size_t target = 0;
  };
  /// Pick the target node for a request (ring owner, or replica-set
  /// round-robin once hot) and update popularity/routing counters.
  Route route(const ProductRequest& request);
  /// On a target RAM miss, probe the key's other live replicas and promote
  /// a hit into the target. Best effort; returns whether a peer hit. A
  /// thrown probe (`peer.peek` fault) is retried `peer_retries` times with
  /// backoff, all bounded by `budget_ms` (0 = unlimited) — the request's
  /// remaining deadline.
  bool peer_fetch(const ProductKey& key, std::uint64_t hash, std::size_t target,
                  double budget_ms);
  /// Failover order for a routed request: target first, then the rest of
  /// its live replica set (at least one fallback even at replication 1).
  std::vector<std::size_t> candidates_for(const Route& r) const;
  /// Consecutive-failure ledger. note_failure may quarantine (never under
  /// the router lock); note_success resets the node's streak.
  void note_failure(std::size_t i);
  void note_success(std::size_t i);
  void sync_gauges_locked() REQUIRES(mutex_);
  /// Throws when the fleet is down.
  std::size_t first_live_locked() const REQUIRES(mutex_);
  static std::uint64_t ring_hash(const ProductKey& key);
  /// Ring position of a key: the hash of its classification-kind sibling,
  /// so all depths/methods of one granule co-locate. Takes mutex_ (via
  /// key_for) — never call while holding it.
  std::uint64_t routing_hash(const ProductKey& key) const EXCLUDES(mutex_);

  ClusterConfig config_;

  /// Router/shared-tier observability — declared before the disk tier and
  /// nodes that register into / outlive-depend on it.
  obs::Registry registry_;
  std::vector<obs::Counter*> routed_total_;  ///< per node, node label
  obs::Counter* peer_probe_total_ = nullptr;
  obs::Counter* peer_fetch_total_ = nullptr;
  obs::Counter* replica_route_total_ = nullptr;
  obs::Counter* hot_key_total_ = nullptr;
  obs::Counter* node_failure_total_ = nullptr;
  obs::Counter* quarantine_total_ = nullptr;
  obs::Counter* revive_total_ = nullptr;
  obs::Counter* rereplicated_total_ = nullptr;
  obs::Gauge* live_nodes_gauge_ = nullptr;
  obs::Gauge* quarantined_gauge_ = nullptr;

  std::unique_ptr<DiskCache> disk_;  ///< shared cold tier; outlives nodes_
  std::vector<std::unique_ptr<GranuleService>> nodes_;

  mutable util::Mutex mutex_;  ///< ring + popularity + live set + ledger
  HashRing ring_ GUARDED_BY(mutex_);
  std::vector<bool> live_ GUARDED_BY(mutex_);
  /// Disjoint from killed_; both imply !live_.
  std::vector<bool> quarantined_ GUARDED_BY(mutex_);
  std::vector<bool> killed_ GUARDED_BY(mutex_);  ///< drained, terminal
  std::vector<std::uint64_t> consecutive_failures_ GUARDED_BY(mutex_);
  std::unordered_map<ProductKey, std::uint64_t, ProductKeyHash> popularity_
      GUARDED_BY(mutex_);
  /// Round-robin cursor over replica sets.
  std::uint64_t hot_rr_ GUARDED_BY(mutex_) = 0;
  bool shut_down_ GUARDED_BY(mutex_) = false;
};

}  // namespace is2::serve
