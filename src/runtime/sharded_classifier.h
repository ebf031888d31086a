// Batched, sharded classification runtime — the software analogue of
// the paper's Section IV-A multi-pipeline packing, hardened for live
// updates and shard failures.
//
// The ruleset is partitioned into S contiguous priority bands; band s
// becomes an independent shard engine (any spec the factory accepts, so
// a shard is "one pipeline" of whichever architecture you pick). Like
// the paper's packed pipelines, parallel lanes take DIFFERENT packets:
// a batch is split into up to L contiguous packet slices, slices 1..L-1
// go to long-lived run-to-completion workers fed over bounded SPSC
// rings (runtime/shard_workers.h) and the dispatching caller walks
// slice 0 itself. Every lane walks the healthy bands in priority order
// over its own slice, classifying only the packets no earlier band has
// matched (best-only) or every packet (multi-match): the first band to
// match wins, and the multi-match vector is the union of the band
// vectors rebased to global rule indices. Bands exist for per-band
// width caps and fault domains, not for parallelism. Lane count derives
// from one core budget (core_budget/reserved_cores below); a budget of
// one core runs the whole walk inline with no hand-off at all.
//
// Concurrency contract (lock-free reads, RCU writes): classify() and
// classify_batch() may be called from any number of threads at any
// time, including while updates are in flight — they pin an immutable
// shard-set snapshot through util::RcuCell and never block, never lock,
// and never observe a half-applied update. Updates from any thread are
// funneled through an internal UpdateQueue whose single applier thread
// clones the affected shard engine, patches the clone off the lookup
// path, and publishes a new snapshot; pending ops are coalesced into
// one snapshot swap. An op's completion future resolves once its
// snapshot is published (every later lookup sees it). This replaces the
// old "updates must be externally serialized against lookups" caveat —
// the same guarantee StrideBV's on-the-fly hardware update path gives a
// single pipeline, extended to the multi-pipeline pack.
//
// Failure containment: a shard whose engine throws or returns a
// corrupted result (best index out of range — what a flaky stage
// memory would produce; see engines::FaultInjectorEngine for the test
// rig) is contained, not propagated. After `quarantine_after`
// consecutive faults the shard is quarantined: lookups keep being
// served from the healthy shards with StatsSnapshot::degraded set (its
// priority band temporarily yields no matches). If rebuild is enabled,
// the update plane rebuilds the shard from its shadow ruleset with
// exponential backoff and reinstates it under fresh health.
//
// Erasing the last rule of a band collapses the band (the shard is
// removed and the bases merge) instead of failing; inserting into a
// fully drained classifier re-seeds a shard.
//
// Flow cache: with flow_cache_capacity > 0 an exact-match 5-tuple
// cache (flow::FlowCache) fronts the shard fan-out — packets whose
// packed header hits the cache are answered without touching any
// shard, and only the misses are compacted into a sub-batch for the
// pipeline. The cache epoch is bumped on every snapshot publication
// (update swap or shard reinstatement), so by the time an update's
// completion future resolves no pre-update decision can still be
// served; see flow/flow_cache.h for the exact coherence argument.
#pragma once

#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engines/common/engine.h"
#include "engines/common/scratch.h"
#include "flow/flow_cache.h"
#include "runtime/shard_workers.h"
#include "runtime/stats.h"
#include "runtime/update_queue.h"
#include "util/rcu.h"

namespace rfipc::runtime {

/// What to do about a shard that keeps faulting.
struct FailurePolicy {
  /// Consecutive faults before a shard is quarantined (min 1). A fault
  /// is one failed band call, and every lane makes its own call per
  /// band, so one bad batch split over L lanes can count up to L.
  std::size_t quarantine_after = 4;
  /// Rebuild quarantined shards in the background and reinstate them.
  bool rebuild = true;
  /// Exponential backoff between rebuild attempts.
  std::uint32_t backoff_initial_ms = 10;
  double backoff_factor = 2.0;
  std::uint32_t backoff_max_ms = 1000;
  /// Factory spec used for the rebuilt engine; empty = engine_spec.
  /// Point this at a healthy spec to model swapping out bad hardware.
  std::string rebuild_spec;
};

struct ShardedConfig {
  /// Number of shards (pipelines). Clamped to the rule count so no
  /// shard starts empty.
  std::size_t shards = 4;
  /// Large-N band-width cap: when > 0 the shard count is raised to
  /// ceil(rules / max_band_rules) so no priority band ever seeds wider
  /// than this — which bounds each shard engine's per-stage state (a
  /// StrideBV band stays at most max_band_rules bits per stage no
  /// matter how large the total ruleset grows). Applies to the initial
  /// partition; live inserts may grow a band past the cap until it is
  /// re-seeded. 0 = uncapped (the shard count alone decides widths).
  std::size_t max_band_rules = 0;
  /// Factory spec every shard engine is built from.
  std::string engine_spec = "stridebv:4";
  /// Total cores this process may spend; 0 = util::allowed_cpu_count().
  /// Lanes (the dispatching caller included) are min(shards,
  /// core_budget - reserved_cores), clamped to at least one so a
  /// starved budget degrades to an inline walk instead of
  /// oversubscribing; lanes - 1 run-to-completion workers are started.
  std::size_t core_budget = 0;
  /// Cores already spoken for by co-resident threads (epoll reactor,
  /// update waiter, capture threads, ...). rfipcd passes
  /// server::kServiceThreads here.
  std::size_t reserved_cores = 0;
  /// Dispatcher/worker hand-off wait policy: kBlock parks idle threads
  /// (default, right when cores are shared); kBusyPoll spins (opt-in
  /// for latency benches that own their cores).
  ShardWorkerPool::WaitPolicy wait_policy = ShardWorkerPool::WaitPolicy::kBlock;
  /// Pin shard worker w to the w-th CPU the process may run on (best
  /// effort; silently unpinned where refused).
  bool pin_workers = false;
  /// Shard failure containment knobs.
  FailurePolicy failure;
  /// How long the synchronous insert_rule/erase_rule wrappers wait for
  /// publication; 0 = indefinitely. On timeout they return false even
  /// though the op stays queued and may still apply later — callers
  /// needing exact completion should use submit_* futures directly.
  std::uint32_t update_timeout_ms = 0;
  /// Exact-match flow-cache slots fronting the shard fan-out (rounded
  /// up to a power of two); 0 disables the cache.
  std::size_t flow_cache_capacity = 0;
  /// Durability hook (write-ahead persistence). Called on the applier
  /// thread with the ops a batch actually applied, AFTER the new
  /// snapshot is published (flow cache already invalidated) but BEFORE
  /// the batch's completion futures resolve — so when the hook
  /// journals + fsyncs, a resolved future (and therefore a wire OK)
  /// implies the op is both published and durable. Exceptions are
  /// contained: the snapshot cannot be unpublished, so a throwing hook
  /// is logged and the futures still resolve (the service degrades to
  /// memory-only durability rather than wedging the update plane).
  std::function<void(std::span<const UpdateOp>)> durability_hook;
};

class ShardedClassifier final : public engines::ClassifierEngine {
 public:
  ShardedClassifier(ruleset::RuleSet rules, ShardedConfig config = {});
  ~ShardedClassifier() override;

  std::string name() const override;
  std::size_t rule_count() const override;
  bool supports_multi_match() const override;
  /// Always true: the update plane falls back to a factory rebuild of
  /// the owning shard when its engine cannot patch incrementally.
  bool supports_update() const override { return true; }

  /// A batch of one through classify_batch (multi-match filled).
  engines::MatchResult classify(const net::HeaderBits& header) const override;
  void classify_batch(std::span<const net::HeaderBits> headers,
                      std::span<engines::MatchResult> results,
                      const engines::BatchOptions& opts) const override;
  using engines::ClassifierEngine::classify_batch;

  /// Synchronous update wrappers: route through the update plane and
  /// wait (up to update_timeout_ms) for the publishing snapshot swap.
  /// Safe to call concurrently with lookups and with each other.
  bool insert_rule(std::size_t index, const ruleset::Rule& rule) override;
  bool erase_rule(std::size_t index) override;

  /// Asynchronous updates: the future resolves to the op's validation
  /// result once the snapshot containing it is published. `token` is
  /// the optional idempotency token handed to the durability hook.
  std::future<bool> submit_insert(std::size_t index, ruleset::Rule rule,
                                  std::uint64_t token = 0);
  std::future<bool> submit_erase(std::size_t index, std::uint64_t token = 0);
  /// Blocks until every previously submitted update has been applied.
  void flush_updates();

  std::size_t shard_count() const;
  /// Rules currently owned by shard s.
  std::size_t shard_size(std::size_t s) const;
  /// Pins shard s's engine; safe to hold across concurrent updates.
  std::shared_ptr<const engines::ClassifierEngine> shard_engine(std::size_t s) const;
  /// Borrowed view of shard s's engine. Only valid while no update can
  /// retire the shard — use shard_engine() when updates may be live.
  const engines::ClassifierEngine& shard(std::size_t s) const;

  /// The exact-match front end, or nullptr when disabled.
  const flow::FlowCache* flow_cache() const { return cache_.get(); }

  /// Sum of the live shard engines' footprints.
  std::uint64_t memory_bytes() const override;

  const RuntimeStats& stats() const { return stats_; }
  /// Counters plus the per-shard health/quarantine digest and the
  /// degraded flag from the current snapshot.
  StatsSnapshot stats_snapshot() const;
  void reset_stats() const { stats_.reset(); }

 private:
  /// Mutable per-shard health record, shared by reference between
  /// consecutive snapshots of the same shard incarnation. A reinstated
  /// shard gets a FRESH record: readers still holding the pre-rebuild
  /// snapshot keep seeing the old record's quarantined flag, so they
  /// can never run the stale engine.
  struct ShardHealth {
    std::atomic<std::uint32_t> consecutive_faults{0};
    std::atomic<std::uint64_t> faults_total{0};
    std::atomic<std::uint64_t> degraded_packets{0};
    std::atomic<std::uint32_t> reinstated{0};
    std::atomic<bool> quarantined{false};
  };

  struct Shard {
    std::shared_ptr<const engines::ClassifierEngine> engine;
    std::shared_ptr<ShardHealth> health;
    std::size_t id = 0;  // stable across band shifts; indexes latency stats
  };

  /// The immutable RCU snapshot: engines + priority-band bases.
  /// bases.size() == shards.size() + 1, bases[0] == 0, and shard s owns
  /// global priorities [bases[s], bases[s+1]).
  struct ShardSet {
    std::vector<Shard> shards;
    std::vector<std::size_t> bases{0};
  };

  /// Writer-plane scratch state while applying one coalesced batch.
  struct Working {
    std::vector<Shard> shards;
    std::vector<std::size_t> bases;
    std::vector<engines::EnginePtr> patched;        // pending replacement engines
    std::vector<unsigned char> needs_rebuild;       // factory rebuild fallback
    bool dirty = false;
  };

  /// One lane's reusable buffers for walking its packet slice. Aligned
  /// to a cache line: a lane rewrites its vectors' sizes on every band,
  /// and neighbouring lanes run on other cores.
  struct alignas(64) LaneScratch {
    /// Slice offsets no band has matched yet (best-only) or every
    /// slice offset (multi-match).
    std::vector<std::size_t> pending;
    /// The pending packets' headers, gathered once the list shrinks.
    std::vector<net::HeaderBits> headers;
    /// The current band's results for the pending packets.
    std::vector<engines::MatchResult> band;
  };

  /// Per-batch state, pooled via borrow_scratch() so the fan-out
  /// allocates nothing in steady state (buffers keep their capacity
  /// across batches; see DESIGN.md "Execution model").
  struct FanScratch {
    /// Healthy non-empty bands, ascending (= priority order).
    std::vector<std::size_t> eligible;
    /// One entry per lane, indexed by lane.
    std::vector<LaneScratch> lanes;
    /// Flow-cache miss sub-batch results.
    std::vector<engines::MatchResult> miss;
    /// Flow-cache miss compaction (headers + caller indices).
    engines::ScratchArena arena;
  };

  /// What a lane needs to walk its slice of one batch: plain data,
  /// stack-owned by the dispatcher for the batch's duration (the
  /// dispatcher's RCU pin keeps `snap` alive).
  struct FanContext {
    const ShardedClassifier* self = nullptr;
    const ShardSet* snap = nullptr;
    std::span<const net::HeaderBits> headers;
    std::span<engines::MatchResult> results;
    engines::BatchOptions opts;
    FanScratch* scratch = nullptr;
    std::size_t lanes = 1;
  };

  static std::size_t owning_shard(const std::vector<std::size_t>& bases, std::size_t g);

  // Reader plane.
  /// Splits `headers` into packet slices, one per lane, and walks them
  /// against `snap` — slices 1..L-1 on the shard workers, slice 0 on
  /// the calling thread. No batch stats.
  void fan_out(const ShardSet& snap, std::span<const net::HeaderBits> headers,
               std::span<engines::MatchResult> results,
               const engines::BatchOptions& opts, FanScratch& scratch) const;
  /// Walks the eligible bands in priority order over lane `lane`'s slice.
  void walk_lane(const FanContext& ctx, std::size_t lane) const;
  /// One band call with fault containment: false (fault recorded) when
  /// the engine threw or returned a corrupted result.
  bool run_band(const Shard& shard, std::span<const net::HeaderBits> headers,
                std::span<engines::MatchResult> out,
                const engines::BatchOptions& opts) const;
  std::unique_ptr<FanScratch> borrow_scratch() const;
  void return_scratch(std::unique_ptr<FanScratch> scratch) const;
  bool validate_results(std::span<const engines::MatchResult> results,
                        std::size_t shard_rules) const;
  void record_shard_fault(const Shard& shard, std::uint64_t packets) const;

  // Writer plane (UpdateQueue applier thread only).
  void apply_batch(std::vector<UpdateQueue::Pending>& batch);
  bool apply_one(Working& w, const UpdateOp& op);
  void patch_engine(Working& w, std::size_t s,
                    const std::function<bool(engines::ClassifierEngine&)>& patch);
  void schedule_rebuild(std::size_t id, std::uint32_t attempt) const;
  void rebuild_shard(std::size_t id, std::uint32_t attempt);

  bool wait_update(std::future<bool> f) const;

  ShardedConfig config_;
  mutable RuntimeStats stats_;
  /// Long-lived run-to-completion workers fed over SPSC rings; holds
  /// `lanes - 1` threads (the dispatching caller is lane 0), so it is
  /// empty when the core budget only affords an inline walk.
  mutable ShardWorkerPool workers_;
  /// Free list of pooled dispatcher scratch; one entry is borrowed per
  /// in-flight classify_batch and returned with capacity intact.
  mutable std::mutex scratch_mu_;
  mutable std::vector<std::unique_ptr<FanScratch>> scratch_pool_;
  /// Exact-match front end; null when flow_cache_capacity == 0.
  std::unique_ptr<flow::FlowCache> cache_;
  util::RcuCell<ShardSet> snapshot_;
  /// Shadow rulesets, one per shard, kept in step with the published
  /// snapshot. Writer-plane only; the source of truth for factory
  /// rebuilds (clone-less engines, quarantine reinstatement).
  std::vector<ruleset::RuleSet> shadow_;
  std::size_t next_id_ = 0;
  /// Last member: its applier thread touches everything above, so it
  /// must start last and stop first.
  std::unique_ptr<UpdateQueue> queue_;
};

}  // namespace rfipc::runtime
