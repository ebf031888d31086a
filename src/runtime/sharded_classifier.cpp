#include "runtime/sharded_classifier.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "engines/common/factory.h"
#include "engines/common/scratch.h"
#include "util/affinity.h"

namespace rfipc::runtime {
namespace {

using engines::MatchResult;

std::size_t clamped_shards(std::size_t requested, std::size_t rules) {
  if (requested == 0) requested = 1;
  return requested < rules ? requested : rules;
}

/// The one shard-count rule every construction site agrees on: the
/// configured count, raised until no band seeds wider than
/// max_band_rules, clamped so no shard starts empty.
std::size_t effective_shards(const ShardedConfig& cfg, std::size_t rules) {
  std::size_t requested = cfg.shards;
  if (cfg.max_band_rules > 0 && rules > 0) {
    const std::size_t needed = (rules + cfg.max_band_rules - 1) / cfg.max_band_rules;
    if (needed > requested) requested = needed;
  }
  return clamped_shards(requested, rules);
}

/// One core budget → one worker crew: `lanes` ways of packet
/// parallelism with the dispatching caller as lane 0, so the crew holds
/// lanes - 1 threads. lanes = min(shards, core_budget - reserved_cores),
/// never below one, so a 1-core box walks every batch inline.
ShardWorkerPool::Options worker_options(const ShardedConfig& cfg,
                                        std::size_t shards) {
  ShardWorkerPool::Options opts;
  opts.workers = util::parallel_lanes(shards, cfg.core_budget, cfg.reserved_cores) - 1;
  opts.wait = cfg.wait_policy;
  opts.pin = cfg.pin_workers;
  return opts;
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - since)
                                        .count());
}

}  // namespace

ShardedClassifier::ShardedClassifier(ruleset::RuleSet rules, ShardedConfig config)
    : config_(std::move(config)),
      stats_(effective_shards(config_, rules.size())),
      workers_(worker_options(config_, effective_shards(config_, rules.size()))) {
  if (rules.empty()) throw std::invalid_argument("ShardedClassifier: empty ruleset");
  if (config_.failure.quarantine_after == 0) config_.failure.quarantine_after = 1;
  if (config_.flow_cache_capacity > 0) {
    cache_ = std::make_unique<flow::FlowCache>(config_.flow_cache_capacity);
  }

  const std::size_t shards = effective_shards(config_, rules.size());
  const std::size_t base = rules.size() / shards;
  const std::size_t extra = rules.size() % shards;
  auto set = std::make_shared<ShardSet>();
  std::size_t next = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t len = base + (s < extra ? 1 : 0);
    ruleset::RuleSet band;
    for (std::size_t i = 0; i < len; ++i) band.add(rules[next + i]);
    next += len;
    set->bases.push_back(next);
    Shard shard;
    shard.engine = engines::make_engine(config_.engine_spec, band);
    shard.health = std::make_shared<ShardHealth>();
    shard.id = next_id_++;
    set->shards.push_back(std::move(shard));
    shadow_.push_back(std::move(band));
  }
  snapshot_.exchange(std::move(set));
  queue_ = std::make_unique<UpdateQueue>(
      [this](std::vector<UpdateQueue::Pending>& batch) { apply_batch(batch); });
}

ShardedClassifier::~ShardedClassifier() {
  queue_.reset();  // stop the applier thread before the snapshot dies
}

std::string ShardedClassifier::name() const {
  return "Sharded[" + std::to_string(shard_count()) + "x " + config_.engine_spec + "]";
}

std::size_t ShardedClassifier::rule_count() const {
  return snapshot_.read()->bases.back();
}

bool ShardedClassifier::supports_multi_match() const {
  auto snap = snapshot_.read();
  for (const auto& s : snap->shards) {
    if (!s.engine->supports_multi_match()) return false;
  }
  return true;
}

std::size_t ShardedClassifier::shard_count() const {
  return snapshot_.read()->shards.size();
}

std::size_t ShardedClassifier::shard_size(std::size_t s) const {
  auto snap = snapshot_.read();
  return snap->bases[s + 1] - snap->bases[s];
}

std::shared_ptr<const engines::ClassifierEngine> ShardedClassifier::shard_engine(
    std::size_t s) const {
  return snapshot_.read()->shards[s].engine;
}

const engines::ClassifierEngine& ShardedClassifier::shard(std::size_t s) const {
  return *snapshot_.read()->shards[s].engine;
}

bool ShardedClassifier::validate_results(std::span<const MatchResult> results,
                                         std::size_t shard_rules) const {
  for (const auto& r : results) {
    if (r.best != MatchResult::kNoMatch && r.best >= shard_rules) return false;
    if (!r.multi.empty() && r.multi.size() != shard_rules) return false;
  }
  return true;
}

void ShardedClassifier::record_shard_fault(const Shard& shard,
                                           std::uint64_t packets) const {
  stats_.record_fault();
  shard.health->faults_total.fetch_add(1, std::memory_order_relaxed);
  shard.health->degraded_packets.fetch_add(packets, std::memory_order_relaxed);
  const std::uint32_t consecutive =
      shard.health->consecutive_faults.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (consecutive >= config_.failure.quarantine_after &&
      !shard.health->quarantined.exchange(true, std::memory_order_acq_rel)) {
    stats_.record_quarantine();
    if (config_.failure.rebuild) schedule_rebuild(shard.id, 0);
  }
}

MatchResult ShardedClassifier::classify(const net::HeaderBits& header) const {
  // A batch of one: the same cache probe, band walk and fault
  // containment as classify_batch, with the multi-match vector filled.
  MatchResult out;
  classify_batch({&header, 1}, {&out, 1}, engines::BatchOptions{.want_multi = true});
  return out;
}

bool ShardedClassifier::run_band(const Shard& shard,
                                 std::span<const net::HeaderBits> headers,
                                 std::span<MatchResult> out,
                                 const engines::BatchOptions& opts) const {
  const auto start = std::chrono::steady_clock::now();
  bool good = true;
  try {
    shard.engine->classify_batch(headers, out, opts);
  } catch (...) {
    good = false;
  }
  if (good) good = validate_results(out, shard.engine->rule_count());
  if (!good) {
    record_shard_fault(shard, headers.size());
    return false;
  }
  shard.health->consecutive_faults.store(0, std::memory_order_relaxed);
  stats_.record_shard_batch(shard.id, elapsed_ns(start));
  return true;
}

void ShardedClassifier::walk_lane(const FanContext& ctx, std::size_t lane) const {
  const ShardSet& snap = *ctx.snap;
  const std::size_t n = ctx.headers.size();
  const std::size_t lo = n * lane / ctx.lanes;
  const std::size_t len = n * (lane + 1) / ctx.lanes - lo;
  const std::span<const net::HeaderBits> headers = ctx.headers.subspan(lo, len);
  const std::span<MatchResult> results = ctx.results.subspan(lo, len);
  const std::vector<std::size_t>& eligible = ctx.scratch->eligible;
  const bool want_multi = ctx.opts.want_multi;

  // One band owning the whole priority space needs no rebase and no
  // fold: classify straight into the caller's results.
  if (snap.shards.size() == 1 && eligible.size() == 1) {
    if (!run_band(snap.shards[0], headers, results, ctx.opts)) {
      for (auto& r : results) r.reset_for(snap.bases.back(), want_multi);
    }
    return;
  }

  for (auto& r : results) r.reset_for(snap.bases.back(), want_multi);
  LaneScratch& ls = ctx.scratch->lanes[lane];
  ls.pending.resize(len);
  std::iota(ls.pending.begin(), ls.pending.end(), std::size_t{0});
  // Bands ascend, and band s owns strictly higher priorities than band
  // s+1, so the first band to match a packet holds its winner. A
  // best-only walk drops matched packets from the pending list and
  // stops once it is empty: the top bands answer most traffic and the
  // long tail of bands is never touched.
  for (const std::size_t s : eligible) {
    const std::size_t pending = ls.pending.size();
    if (pending == 0) break;
    std::span<const net::HeaderBits> in = headers;
    if (pending < len) {
      ls.headers.clear();
      for (const std::size_t p : ls.pending) ls.headers.push_back(headers[p]);
      in = ls.headers;
    }
    if (ls.band.size() < pending) ls.band.resize(pending);
    const std::span<MatchResult> out(ls.band.data(), pending);
    if (!run_band(snap.shards[s], in, out, ctx.opts)) continue;  // matched nothing

    const std::size_t base = snap.bases[s];
    std::size_t kept = 0;
    for (std::size_t j = 0; j < pending; ++j) {
      const MatchResult& r = out[j];
      MatchResult& dst = results[ls.pending[j]];
      if (r.has_match() && !dst.has_match()) dst.best = base + r.best;
      if (want_multi) {
        for (std::size_t b = r.multi.first_set(); b != util::BitVector::npos;
             b = r.multi.next_set(b + 1)) {
          dst.multi.set(base + b);
        }
      }
      if (want_multi || !r.has_match()) ls.pending[kept++] = ls.pending[j];
    }
    ls.pending.resize(kept);
  }
}

void ShardedClassifier::fan_out(const ShardSet& snap,
                                std::span<const net::HeaderBits> headers,
                                std::span<MatchResult> results,
                                const engines::BatchOptions& opts,
                                FanScratch& scratch) const {
  // Only bands that can actually contribute take part: empty bands
  // have nothing to match and quarantined shards are out of service.
  std::vector<std::size_t>& eligible = scratch.eligible;
  eligible.clear();
  for (std::size_t s = 0; s < snap.shards.size(); ++s) {
    const Shard& shard = snap.shards[s];
    if (snap.bases[s + 1] == snap.bases[s]) continue;  // empty band
    if (shard.health->quarantined.load(std::memory_order_acquire)) {
      shard.health->degraded_packets.fetch_add(headers.size(),
                                               std::memory_order_relaxed);
      continue;
    }
    eligible.push_back(s);
  }

  // Lane 0 is the dispatching caller itself: it hands lanes 1..L-1
  // their slices first, walks its own inline, then waits —
  // run-to-completion, no per-task futures, no hand-off at all when
  // only one lane exists. The caller's RCU pin (held across this call)
  // keeps `snap` and the shard engines alive for the workers.
  FanContext ctx;
  ctx.self = this;
  ctx.snap = &snap;
  ctx.headers = headers;
  ctx.results = results;
  ctx.opts = opts;
  ctx.scratch = &scratch;
  ctx.lanes = std::min(workers_.worker_count() + 1, headers.size());
  if (scratch.lanes.size() < ctx.lanes) scratch.lanes.resize(ctx.lanes);
  ShardWorkerPool::Completion done;
  for (std::size_t lane = 1; lane < ctx.lanes; ++lane) {
    workers_.dispatch(
        lane - 1,
        [](void* c, std::size_t l) {
          const auto* fan = static_cast<const FanContext*>(c);
          fan->self->walk_lane(*fan, l);
        },
        &ctx, lane, done);
  }
  walk_lane(ctx, 0);
  workers_.wait(done);
}

void ShardedClassifier::classify_batch(std::span<const net::HeaderBits> headers,
                                       std::span<MatchResult> results,
                                       const engines::BatchOptions& opts) const {
  if (headers.size() != results.size()) {
    throw std::invalid_argument("classify_batch: span size mismatch");
  }
  if (headers.empty()) return;

  // All per-batch state (eligible set, per-lane buffers, miss
  // compaction) lives in one pooled scratch: zero allocation per batch
  // in steady state, re-entrant because each in-flight call borrows
  // its own entry.
  std::unique_ptr<FanScratch> scratch = borrow_scratch();

  if (cache_ == nullptr) {
    auto snap = snapshot_.read();
    fan_out(*snap, headers, results, opts, *scratch);
  } else {
    // Flow-cache front end: answer hits in place, compact the misses
    // into a contiguous sub-batch, and fan only that out to the shards.
    const std::uint64_t epoch = cache_->epoch();
    engines::ScratchArena& arena = scratch->arena;
    // A hit cached by a best-only caller has no multi vector; a
    // multi-wanting caller misses on it (and refreshes it).
    cache_->lookup_batch(headers, results, opts.want_multi && supports_multi_match(),
                         arena.indices);
    arena.headers.clear();
    for (const std::size_t i : arena.indices) arena.headers.push_back(headers[i]);
    if (!arena.headers.empty()) {
      auto snap = snapshot_.read();
      std::vector<MatchResult>& miss = scratch->miss;
      if (miss.size() < arena.headers.size()) miss.resize(arena.headers.size());
      const std::span<MatchResult> mspan(miss.data(), arena.headers.size());
      fan_out(*snap, arena.headers, mspan, opts, *scratch);
      for (std::size_t j = 0; j < mspan.size(); ++j) {
        cache_->insert(arena.headers[j], epoch, mspan[j]);
        results[arena.indices[j]] = std::move(mspan[j]);
      }
    }
  }
  return_scratch(std::move(scratch));

  std::uint64_t matched = 0;
  for (const MatchResult& r : results) matched += r.has_match();
  stats_.record_batch(headers.size(), matched);
}

std::unique_ptr<ShardedClassifier::FanScratch> ShardedClassifier::borrow_scratch()
    const {
  {
    std::lock_guard<std::mutex> lock(scratch_mu_);
    if (!scratch_pool_.empty()) {
      std::unique_ptr<FanScratch> s = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
      return s;
    }
  }
  return std::make_unique<FanScratch>();
}

void ShardedClassifier::return_scratch(std::unique_ptr<FanScratch> scratch) const {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  scratch_pool_.push_back(std::move(scratch));
}

std::size_t ShardedClassifier::owning_shard(const std::vector<std::size_t>& bases,
                                            std::size_t g) {
  std::size_t s = bases.size() - 2;  // last shard
  while (s > 0 && g < bases[s]) --s;
  return s;
}

bool ShardedClassifier::insert_rule(std::size_t index, const ruleset::Rule& rule) {
  return wait_update(submit_insert(index, rule));
}

bool ShardedClassifier::erase_rule(std::size_t index) {
  return wait_update(submit_erase(index));
}

std::future<bool> ShardedClassifier::submit_insert(std::size_t index,
                                                   ruleset::Rule rule,
                                                   std::uint64_t token) {
  return queue_->submit(UpdateOp::insert(index, std::move(rule), token));
}

std::future<bool> ShardedClassifier::submit_erase(std::size_t index,
                                                  std::uint64_t token) {
  return queue_->submit(UpdateOp::erase(index, token));
}

void ShardedClassifier::flush_updates() { queue_->flush(); }

bool ShardedClassifier::wait_update(std::future<bool> f) const {
  if (config_.update_timeout_ms == 0) return f.get();
  // One absolute deadline, computed up front: however often the wait
  // wakes spuriously (or the implementation re-arms internally), the
  // effective timeout can never stretch past update_timeout_ms.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.update_timeout_ms);
  if (f.wait_until(deadline) != std::future_status::ready) {
    return false;  // still queued; may apply later
  }
  return f.get();
}

void ShardedClassifier::patch_engine(
    Working& w, std::size_t s,
    const std::function<bool(engines::ClassifierEngine&)>& patch) {
  if (w.needs_rebuild[s]) return;  // full rebuild already pending
  if (w.shards[s].health->quarantined.load(std::memory_order_acquire)) {
    // The engine is out of service; only the shadow ruleset advances.
    // The scheduled rebuild task reinstates from the shadow.
    return;
  }
  if (w.patched[s] == nullptr) {
    w.patched[s] = w.shards[s].engine->clone();
    if (w.patched[s] == nullptr) {
      w.needs_rebuild[s] = 1;  // engine cannot be copied: factory rebuild
      return;
    }
  }
  if (!patch(*w.patched[s])) {
    // The clone rejected the incremental patch; discard it and rebuild
    // from the shadow ruleset, which already carries every op.
    w.patched[s].reset();
    w.needs_rebuild[s] = 1;
  }
}

bool ShardedClassifier::apply_one(Working& w, const UpdateOp& op) {
  const std::size_t total = w.bases.back();
  if (op.kind == UpdateOp::Kind::kInsert) {
    if (op.index > total) return false;
    if (w.shards.empty()) {
      // Fully drained classifier: re-seed a fresh shard.
      ruleset::RuleSet band;
      band.add(op.rule);
      shadow_.push_back(std::move(band));
      Shard shard;
      shard.health = std::make_shared<ShardHealth>();
      shard.id = next_id_++;
      w.shards.push_back(std::move(shard));
      w.patched.emplace_back(nullptr);
      w.needs_rebuild.push_back(1);
      w.bases = {0, 1};
      w.dirty = true;
      return true;
    }
    const std::size_t s =
        op.index == total ? w.shards.size() - 1 : owning_shard(w.bases, op.index);
    const std::size_t local = op.index - w.bases[s];
    shadow_[s].insert(local, op.rule);
    patch_engine(w, s, [&](engines::ClassifierEngine& e) {
      return e.insert_rule(local, op.rule);
    });
    for (std::size_t t = s + 1; t < w.bases.size(); ++t) ++w.bases[t];
    w.dirty = true;
    return true;
  }

  if (op.index >= total) return false;
  const std::size_t s = owning_shard(w.bases, op.index);
  const std::size_t local = op.index - w.bases[s];
  shadow_[s].erase(local);
  if (w.bases[s + 1] - w.bases[s] == 1) {
    // Band emptied: collapse it — drop the shard and merge the bases.
    shadow_.erase(shadow_.begin() + static_cast<std::ptrdiff_t>(s));
    w.shards.erase(w.shards.begin() + static_cast<std::ptrdiff_t>(s));
    w.patched.erase(w.patched.begin() + static_cast<std::ptrdiff_t>(s));
    w.needs_rebuild.erase(w.needs_rebuild.begin() + static_cast<std::ptrdiff_t>(s));
    w.bases.erase(w.bases.begin() + static_cast<std::ptrdiff_t>(s) + 1);
    for (std::size_t t = s + 1; t < w.bases.size(); ++t) --w.bases[t];
    w.dirty = true;
    return true;
  }
  patch_engine(w, s,
               [&](engines::ClassifierEngine& e) { return e.erase_rule(local); });
  for (std::size_t t = s + 1; t < w.bases.size(); ++t) --w.bases[t];
  w.dirty = true;
  return true;
}

void ShardedClassifier::apply_batch(std::vector<UpdateQueue::Pending>& batch) {
  auto cur = snapshot_.current();
  Working w;
  w.shards = cur->shards;
  w.bases = cur->bases;
  w.patched.resize(w.shards.size());
  w.needs_rebuild.assign(w.shards.size(), 0);

  std::vector<bool> applied(batch.size(), false);
  std::uint64_t ops_applied = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    applied[i] = apply_one(w, batch[i].op);
    if (applied[i]) ++ops_applied;
  }

  if (w.dirty) {
    for (std::size_t s = 0; s < w.shards.size(); ++s) {
      if (w.needs_rebuild[s] && w.patched[s] == nullptr) {
        w.patched[s] = engines::make_engine(config_.engine_spec, shadow_[s]);
      }
    }
    auto next = std::make_shared<ShardSet>();
    next->shards = std::move(w.shards);
    next->bases = std::move(w.bases);
    for (std::size_t s = 0; s < next->shards.size(); ++s) {
      if (w.patched[s] != nullptr) next->shards[s].engine = std::move(w.patched[s]);
    }
    stats_.record_swap(ops_applied);
    snapshot_.exchange(std::move(next));
    // Bump the cache epoch AFTER the swap and BEFORE resolving the
    // completion promises: a reader that still captures the old epoch
    // can only pin the retired snapshot concurrently with this update,
    // and its insert will be rejected (or its entry born stale).
    if (cache_ != nullptr) cache_->invalidate();
  }

  // Write-ahead durability: journal the applied ops while their
  // completion futures are still unresolved, so "future resolved" (and
  // the wire OK it produces) implies both published AND durable. The
  // snapshot cannot be unpublished, so a failing hook must not wedge
  // the update plane — log and resolve anyway.
  if (config_.durability_hook && ops_applied > 0) {
    std::vector<UpdateOp> durable;
    durable.reserve(ops_applied);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (applied[i]) durable.push_back(batch[i].op);
    }
    try {
      config_.durability_hook(durable);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rfipc: durability hook failed: %s\n", e.what());
    } catch (...) {
      std::fprintf(stderr, "rfipc: durability hook failed\n");
    }
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (applied[i]) stats_.record_update();
    batch[i].done.set_value(applied[i]);
  }
}

void ShardedClassifier::schedule_rebuild(std::size_t id, std::uint32_t attempt) const {
  const FailurePolicy& pol = config_.failure;
  double delay_ms = static_cast<double>(pol.backoff_initial_ms) *
                    std::pow(pol.backoff_factor, static_cast<double>(attempt));
  const double max_ms = static_cast<double>(pol.backoff_max_ms);
  if (!(delay_ms <= max_ms)) delay_ms = max_ms;  // also catches NaN/inf
  const auto when = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(static_cast<std::int64_t>(delay_ms));
  // The const_cast confines itself to the writer plane: classify() is
  // const but must be able to kick off recovery maintenance.
  auto* self = const_cast<ShardedClassifier*>(this);
  queue_->schedule(when, [self, id, attempt] { self->rebuild_shard(id, attempt); });
}

void ShardedClassifier::rebuild_shard(std::size_t id, std::uint32_t attempt) {
  auto cur = snapshot_.current();
  std::size_t s = cur->shards.size();
  for (std::size_t i = 0; i < cur->shards.size(); ++i) {
    if (cur->shards[i].id == id) {
      s = i;
      break;
    }
  }
  // The shard may have been collapsed away, or already reinstated.
  if (s == cur->shards.size()) return;
  const auto& old = cur->shards[s];
  if (!old.health->quarantined.load(std::memory_order_acquire)) return;

  const std::string& spec = config_.failure.rebuild_spec.empty()
                                ? config_.engine_spec
                                : config_.failure.rebuild_spec;
  engines::EnginePtr fresh;
  try {
    fresh = engines::make_engine(spec, shadow_[s]);
  } catch (...) {
    schedule_rebuild(id, attempt + 1);
    return;
  }

  auto next = std::make_shared<ShardSet>(*cur);
  auto health = std::make_shared<ShardHealth>();
  health->faults_total.store(old.health->faults_total.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
  health->degraded_packets.store(
      old.health->degraded_packets.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  health->reinstated.store(
      old.health->reinstated.load(std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  next->shards[s].engine = std::move(fresh);
  next->shards[s].health = std::move(health);
  stats_.record_reinstate();
  snapshot_.exchange(std::move(next));
  // The reinstated shard's band starts answering again: cached
  // decisions computed while it was quarantined are now wrong.
  if (cache_ != nullptr) cache_->invalidate();
}

std::uint64_t ShardedClassifier::memory_bytes() const {
  auto snap = snapshot_.read();
  std::uint64_t bytes = 0;
  for (const Shard& s : snap->shards) bytes += s.engine->memory_bytes();
  return bytes;
}

StatsSnapshot ShardedClassifier::stats_snapshot() const {
  StatsSnapshot out = stats_.snapshot();
  if (cache_ != nullptr) {
    const flow::FlowCache::Stats cs = cache_->stats();
    out.cache_hits = cs.hits;
    out.cache_misses = cs.misses;
    out.cache_evictions = cs.evictions;
    out.cache_invalidations = cs.invalidations;
  }
  auto snap = snapshot_.read();
  out.health.reserve(snap->shards.size());
  for (std::size_t s = 0; s < snap->shards.size(); ++s) {
    const Shard& shard = snap->shards[s];
    ShardHealthDigest d;
    d.id = shard.id;
    d.rules = snap->bases[s + 1] - snap->bases[s];
    d.faults = shard.health->faults_total.load(std::memory_order_relaxed);
    d.degraded_packets = shard.health->degraded_packets.load(std::memory_order_relaxed);
    d.reinstated = shard.health->reinstated.load(std::memory_order_relaxed);
    d.quarantined = shard.health->quarantined.load(std::memory_order_acquire);
    out.degraded = out.degraded || d.quarantined;
    out.health.push_back(d);
    out.memory_bytes += shard.engine->memory_bytes();
  }
  for (const ShardWorkerPool::WorkerCounters& c : workers_.counters()) {
    WorkerDigest w;
    w.tasks = c.tasks;
    w.ring_stalls = c.ring_stalls;
    w.parks = c.parks;
    w.ring_depth = c.ring_depth;
    out.workers.push_back(w);
  }
  return out;
}

}  // namespace rfipc::runtime
