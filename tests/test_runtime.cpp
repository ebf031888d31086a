// The batch/sharded classification runtime.
//
// ShardedClassifier must be observationally identical to one engine
// over the whole ruleset (bands are contiguous priority slices, so the
// merged result is exact, not approximate), classify_batch must equal
// per-packet classify for EVERY factory spec, and the stats layer must
// count what actually happened.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "engines/common/factory.h"
#include "engines/common/linear_engine.h"
#include "runtime/sharded_classifier.h"
#include "ruleset/generator.h"
#include "ruleset/trace.h"
#include "util/affinity.h"

namespace rfipc::runtime {
namespace {

using engines::MatchResult;

std::vector<net::HeaderBits> packed_trace(const ruleset::RuleSet& rules,
                                          std::size_t size, std::uint64_t seed) {
  ruleset::TraceConfig cfg;
  cfg.size = size;
  cfg.seed = seed;
  std::vector<net::HeaderBits> out;
  out.reserve(size);
  for (const auto& t : ruleset::generate_trace(rules, cfg)) out.emplace_back(t);
  return out;
}

TEST(ShardedClassifier, AgreesWithGoldenAcrossShardCounts) {
  for (const std::size_t n_rules : {5u, 64u, 257u}) {
    const auto rules = ruleset::generate_firewall(n_rules, 11);
    const engines::LinearSearchEngine golden(rules);
    const auto headers = packed_trace(rules, 300, 21);
    for (const std::size_t shards : {1u, 2u, 4u, 9u}) {
      ShardedConfig cfg;
      cfg.shards = shards;
      cfg.engine_spec = "stridebv:4";
      const ShardedClassifier sc(rules, cfg);
      EXPECT_EQ(sc.rule_count(), rules.size());
      std::vector<MatchResult> got(headers.size());
      sc.classify_batch(headers, got);
      for (std::size_t i = 0; i < headers.size(); ++i) {
        const auto want = golden.classify(headers[i]);
        ASSERT_EQ(got[i].best, want.best) << shards << " shards, packet " << i;
        ASSERT_EQ(got[i].multi, want.multi) << shards << " shards, packet " << i;
      }
    }
  }
}

TEST(ShardedClassifier, SinglePacketPathMatchesBatchPath) {
  const auto rules = ruleset::generate_firewall(96, 5);
  ShardedConfig cfg;
  cfg.shards = 4;
  const ShardedClassifier sc(rules, cfg);
  const auto headers = packed_trace(rules, 100, 6);
  std::vector<MatchResult> batch(headers.size());
  sc.classify_batch(headers, batch);
  for (std::size_t i = 0; i < headers.size(); ++i) {
    const auto one = sc.classify(headers[i]);
    EXPECT_EQ(one.best, batch[i].best);
    EXPECT_EQ(one.multi, batch[i].multi);
  }
}

TEST(ShardedClassifier, WorksWithEveryEngineSpec) {
  const auto rules = ruleset::generate_firewall(48, 7);
  const engines::LinearSearchEngine golden(rules);
  const auto headers = packed_trace(rules, 120, 8);
  for (const auto& spec : engines::known_engine_specs()) {
    ShardedConfig cfg;
    cfg.shards = 3;
    cfg.engine_spec = spec;
    const ShardedClassifier sc(rules, cfg);
    std::vector<MatchResult> got(headers.size());
    sc.classify_batch(headers, got);
    for (std::size_t i = 0; i < headers.size(); ++i) {
      ASSERT_EQ(got[i].best, golden.classify(headers[i]).best) << spec;
    }
  }
}

TEST(ShardedClassifier, ShardCountClampedToRules) {
  const auto rules = ruleset::generate_firewall(3, 2);
  ShardedConfig cfg;
  cfg.shards = 16;
  const ShardedClassifier sc(rules, cfg);
  EXPECT_EQ(sc.shard_count(), 3u);
  EXPECT_EQ(sc.name(), "Sharded[3x stridebv:4]");
  for (std::size_t s = 0; s < sc.shard_count(); ++s) EXPECT_EQ(sc.shard_size(s), 1u);
}

TEST(ShardedClassifier, UpdatesRouteToOwningShardAndStayCorrect) {
  auto mirror = ruleset::generate_firewall(64, 13);
  ShardedConfig cfg;
  cfg.shards = 4;
  ShardedClassifier sc(mirror, cfg);

  ruleset::GeneratorConfig ncfg;
  ncfg.size = 12;
  ncfg.seed = 31;
  ncfg.default_rule = false;
  const auto fresh = ruleset::generate(ncfg);
  // Insertions across every band, including both edges (the last point
  // is an append at rule_count()).
  const std::size_t points[] = {0, 15, 16, 33, 63, 69};
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(sc.insert_rule(points[i], fresh[i]));
    mirror.insert(points[i], fresh[i]);
  }
  ASSERT_TRUE(sc.erase_rule(40));
  mirror.erase(40);
  ASSERT_TRUE(sc.erase_rule(0));
  mirror.erase(0);
  EXPECT_EQ(sc.rule_count(), mirror.size());
  EXPECT_EQ(sc.stats_snapshot().updates, 8u);

  const engines::LinearSearchEngine golden(mirror);
  const auto headers = packed_trace(mirror, 250, 14);
  std::vector<MatchResult> got(headers.size());
  sc.classify_batch(headers, got);
  for (std::size_t i = 0; i < headers.size(); ++i) {
    const auto want = golden.classify(headers[i]);
    ASSERT_EQ(got[i].best, want.best) << i;
    ASSERT_EQ(got[i].multi, want.multi) << i;
  }
}

// Regression: erase_rule used to refuse to empty a shard. It must now
// collapse the emptied band instead, stay correct across the shrink,
// keep draining down to zero rules, and re-seed on the next insert.
TEST(ShardedClassifier, ErasingLastRuleOfBandCollapsesIt) {
  auto mirror = ruleset::generate_firewall(4, 3);
  ShardedConfig cfg;
  cfg.shards = 4;
  ShardedClassifier sc(mirror, cfg);
  ASSERT_EQ(sc.shard_count(), 4u);

  ASSERT_TRUE(sc.erase_rule(2));  // band of one rule -> collapses
  mirror.erase(2);
  EXPECT_EQ(sc.shard_count(), 3u);
  EXPECT_EQ(sc.rule_count(), mirror.size());

  const engines::LinearSearchEngine golden(mirror);
  const auto headers = packed_trace(mirror, 80, 9);
  for (const auto& h : headers) {
    ASSERT_EQ(sc.classify(h).best, golden.classify(h).best);
  }

  // Drain to empty: the classifier keeps serving (with no matches).
  while (sc.rule_count() > 0) ASSERT_TRUE(sc.erase_rule(0));
  EXPECT_EQ(sc.shard_count(), 0u);
  EXPECT_FALSE(sc.classify(headers[0]).has_match());
  EXPECT_FALSE(sc.erase_rule(0));  // nothing left to erase

  // Inserting into a drained classifier re-seeds a shard.
  ASSERT_TRUE(sc.insert_rule(0, ruleset::Rule::any()));
  EXPECT_EQ(sc.shard_count(), 1u);
  EXPECT_EQ(sc.rule_count(), 1u);
  EXPECT_EQ(sc.classify(headers[0]).best, 0u);
}

TEST(ShardedClassifier, StatsCountPacketsBatchesAndMatches) {
  const auto rules = ruleset::generate_firewall(32, 17);  // has default rule
  ShardedConfig cfg;
  cfg.shards = 2;
  const ShardedClassifier sc(rules, cfg);
  const auto headers = packed_trace(rules, 64, 18);
  std::vector<MatchResult> out(headers.size());
  sc.classify_batch(headers, out);
  sc.classify_batch(headers, out);
  auto snap = sc.stats_snapshot();
  EXPECT_EQ(snap.packets, 128u);
  EXPECT_EQ(snap.batches, 2u);
  EXPECT_EQ(snap.matches, 128u);  // default rule catches everything
  ASSERT_EQ(snap.shards.size(), 2u);
  // One latency sample per band per lane: a multi-match walk calls
  // every band on every lane's slice.
  const std::size_t lanes = snap.workers.size() + 1;
  for (const auto& sh : snap.shards) {
    EXPECT_EQ(sh.batches, 2u * lanes);
    EXPECT_LE(sh.p50_ns, sh.p99_ns);
    EXPECT_GT(sh.p99_ns, 0u);
  }
  EXPECT_FALSE(snap.to_string().empty());
  sc.reset_stats();
  EXPECT_EQ(sc.stats_snapshot().packets, 0u);
}

// Regression for the scaling inversion: shards > cores must degrade to
// an inline walk (or few lanes), never oversubscribe, and stay exactly
// correct in every lane configuration.
TEST(ShardedClassifier, ShardsExceedingCoreBudgetStayCorrect) {
  const auto rules = ruleset::generate_firewall(128, 29);
  const engines::LinearSearchEngine golden(rules);
  const auto headers = packed_trace(rules, 200, 30);
  // The default budget (the affinity mask), a 1-core box (fully
  // inline), a 2-core box (dispatcher + 1 worker), and budgets below
  // and above the shard count.
  for (const std::size_t budget : {0u, 1u, 2u, 3u, 16u}) {
    ShardedConfig cfg;
    cfg.shards = 9;  // more shards than any small box has cores
    cfg.core_budget = budget;
    const ShardedClassifier sc(rules, cfg);
    std::vector<MatchResult> got(headers.size());
    sc.classify_batch(headers, got);
    sc.classify_batch(headers, got);  // pooled-scratch reuse round
    for (std::size_t i = 0; i < headers.size(); ++i) {
      ASSERT_EQ(got[i].best, golden.classify(headers[i]).best)
          << "budget=" << budget << " packet " << i;
    }
  }
}

// Packet-sliced lanes against the golden scan: batches smaller than the
// lane count, batches that do not divide by it, best-only and
// multi-match. The ruleset is its first half repeated, so every packet
// that matches an upper band also matches a lower one and only the
// first band to match may win.
TEST(ShardedClassifier, PacketSlicedLanesMatchGolden) {
  const auto half = ruleset::generate_firewall(96, 37);
  ruleset::RuleSet rules = half;
  for (std::size_t i = 0; i < half.size(); ++i) rules.add(half[i]);
  const engines::LinearSearchEngine golden(rules);
  const auto headers = packed_trace(rules, 512, 38);
  ShardedConfig cfg;
  cfg.shards = 4;
  cfg.core_budget = 4;
  const ShardedClassifier sc(rules, cfg);
  ASSERT_EQ(sc.stats_snapshot().workers.size(), 3u);

  for (const bool want_multi : {false, true}) {
    for (const std::size_t batch : {1u, 3u, 5u, 257u, 512u}) {
      std::vector<MatchResult> got(batch);
      for (std::size_t off = 0; off + batch <= headers.size(); off += batch) {
        sc.classify_batch({headers.data() + off, batch}, got,
                          engines::BatchOptions{.want_multi = want_multi});
        for (std::size_t i = 0; i < batch; ++i) {
          const auto want = golden.classify(headers[off + i]);
          ASSERT_EQ(got[i].best, want.best)
              << "multi=" << want_multi << " batch=" << batch << " packet " << off + i;
          if (want_multi) {
            ASSERT_EQ(got[i].multi, want.multi)
                << "batch=" << batch << " packet " << off + i;
          }
        }
      }
    }
  }
  std::uint64_t worker_tasks = 0;
  for (const auto& w : sc.stats_snapshot().workers) worker_tasks += w.tasks;
  EXPECT_GT(worker_tasks, 0u);
}

TEST(ShardedClassifier, WorkerDigestsAppearInStats) {
  const auto rules = ruleset::generate_firewall(64, 41);
  ShardedConfig cfg;
  cfg.shards = 4;
  cfg.core_budget = 3;  // dispatcher lane + 2 workers
  const ShardedClassifier sc(rules, cfg);
  const auto headers = packed_trace(rules, 256, 42);
  std::vector<MatchResult> out(headers.size());
  for (int i = 0; i < 8; ++i) sc.classify_batch(headers, out);

  const auto snap = sc.stats_snapshot();
  ASSERT_EQ(snap.workers.size(), 2u);
  std::uint64_t worker_tasks = 0;
  for (const auto& w : snap.workers) {
    worker_tasks += w.tasks;
    EXPECT_EQ(w.ring_depth, 0u);  // drained between batches
  }
  // 256-packet batches sliced over 3 lanes: lanes 1 and 2 carry work.
  EXPECT_GT(worker_tasks, 0u);
  EXPECT_NE(snap.to_json().find("\"workers\""), std::string::npos);
  EXPECT_NE(snap.to_string().find("worker0"), std::string::npos);
  // Shard engines report their footprint; the snapshot aggregates it
  // and the JSON (== the STATS wire reply body) carries it.
  EXPECT_GT(snap.memory_bytes, 0u);
  EXPECT_NE(snap.to_json().find("\"memory_bytes\""), std::string::npos);

  // A 1-lane classifier reports no worker digests.
  ShardedConfig serial_cfg;
  serial_cfg.shards = 4;
  serial_cfg.core_budget = 1;
  const ShardedClassifier serial(rules, serial_cfg);
  serial.classify_batch(headers, out);
  EXPECT_TRUE(serial.stats_snapshot().workers.empty());
}

#if defined(__linux__)
/// Restricts the calling thread (and the threads it starts) to the last
/// CPU of its affinity mask, restoring the old mask on scope exit.
class LastCpuOnly {
 public:
  LastCpuOnly() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int c = CPU_SETSIZE - 1; c >= 0 && cpu_ < 0; --c) {
      if (CPU_ISSET(c, &saved_)) cpu_ = c;
    }
    if (cpu_ < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    ok_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~LastCpuOnly() {
    if (ok_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  LastCpuOnly(const LastCpuOnly&) = delete;
  LastCpuOnly& operator=(const LastCpuOnly&) = delete;

  bool ok() const { return ok_; }
  int cpu() const { return cpu_; }

 private:
  cpu_set_t saved_;
  int cpu_ = -1;
  bool ok_ = false;
};

// The default core budget is the affinity mask, not the machine's core
// count: on one allowed CPU a default 4-shard classifier runs its
// fan-out inline instead of starting workers that would spin on the
// dispatcher's only CPU.
TEST(ShardedClassifier, DefaultBudgetFollowsAffinityMask) {
  const auto rules = ruleset::generate_firewall(64, 51);
  const auto headers = packed_trace(rules, 128, 52);
  std::vector<MatchResult> got(headers.size());
  {
    const LastCpuOnly mask;
    ASSERT_TRUE(mask.ok());
    const ShardedClassifier sc(rules, ShardedConfig{});  // 4 shards, budget 0
    EXPECT_TRUE(sc.stats_snapshot().workers.empty());
    sc.classify_batch(headers, got);
  }
  const engines::LinearSearchEngine golden(rules);
  for (std::size_t i = 0; i < headers.size(); ++i) {
    EXPECT_EQ(got[i].best, golden.classify(headers[i]).best) << i;
  }
}

// Pinning picks CPUs from the affinity mask, so a pinned worker never
// escapes the CPUs the process was confined to.
TEST(ShardedClassifier, WorkerPinStaysInsideAffinityMask) {
  const LastCpuOnly mask;
  ASSERT_TRUE(mask.ok());
  std::atomic<bool> go{false};
  std::thread t([&] {
    while (!go.load()) std::this_thread::yield();
  });
  const bool pinned = util::pin_thread_to_core(t, 0);
  cpu_set_t got;
  CPU_ZERO(&got);
  const int rc = pthread_getaffinity_np(t.native_handle(), sizeof(got), &got);
  go = true;
  t.join();
  EXPECT_TRUE(pinned);
  ASSERT_EQ(rc, 0);
  EXPECT_EQ(CPU_COUNT(&got), 1);
  EXPECT_TRUE(CPU_ISSET(mask.cpu(), &got));
}
#endif

// Satellite: the update wait computes ONE absolute deadline up front
// (f.wait_until), so spurious wakeups can't stretch update_timeout_ms
// into multiples of itself. Observable contract: a healthy queue
// resolves inside even a tight budget, and the synchronous wrappers
// stay exact under a timeout config.
TEST(ShardedClassifier, TimedUpdateWaitResolvesOnHealthyQueue) {
  auto mirror = ruleset::generate_firewall(24, 51);
  ShardedConfig cfg;
  cfg.shards = 2;
  cfg.update_timeout_ms = 2'000;
  ShardedClassifier sc(mirror, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(sc.insert_rule(0, ruleset::Rule::any()));
  mirror.insert(0, ruleset::Rule::any());
  ASSERT_TRUE(sc.erase_rule(5));
  mirror.erase(5);
  // Two waits, one deadline each: nowhere near 2x the budget.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(4));
  const engines::LinearSearchEngine golden(mirror);
  for (const auto& h : packed_trace(mirror, 60, 52)) {
    ASSERT_EQ(sc.classify(h).best, golden.classify(h).best);
  }
}

TEST(LatencyHistogramTest, QuantilesAreMonotoneAndBucketed) {
  LatencyHistogram h;
  for (std::uint64_t ns = 1; ns <= 1000; ++ns) h.record(ns);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_LE(h.quantile_ns(0.5), h.quantile_ns(0.99));
  // p50 of 1..1000 is ~500 -> bucket [512,1024) midpoint 768; log2
  // buckets are coarse but must land within 2x.
  EXPECT_GE(h.quantile_ns(0.5), 256u);
  EXPECT_LE(h.quantile_ns(0.5), 1024u);
}

// Satellite: classify_batch must equal per-packet classify for every
// registered spec — both the overridden fast paths and the default.
TEST(ClassifyBatch, EquivalentToPerPacketForEverySpec) {
  const auto rules = ruleset::generate_firewall(56, 23);
  const auto headers = packed_trace(rules, 150, 24);
  for (const auto& spec : engines::known_engine_specs()) {
    const auto engine = engines::make_engine(spec, rules);
    std::vector<MatchResult> batch(headers.size());
    engine->classify_batch(headers, batch);
    for (std::size_t i = 0; i < headers.size(); ++i) {
      const auto want = engine->classify(headers[i]);
      ASSERT_EQ(batch[i].best, want.best) << spec << " packet " << i;
      if (engine->supports_multi_match()) {
        ASSERT_EQ(batch[i].multi, want.multi) << spec << " packet " << i;
      }
    }
  }
}

TEST(ClassifyBatch, RejectsMismatchedSpans) {
  const auto rules = ruleset::RuleSet::table1_example();
  const auto engine = engines::make_engine("stridebv:4", rules);
  const auto headers = packed_trace(rules, 4, 1);
  std::vector<MatchResult> results(3);
  EXPECT_THROW(engine->classify_batch(headers, results), std::invalid_argument);
}

}  // namespace
}  // namespace rfipc::runtime
