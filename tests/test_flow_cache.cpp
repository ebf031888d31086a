// Flow-cache correctness: unit behavior of flow::FlowCache (epoch
// invalidation, straggler rejection, LRU eviction, lookup_batch against
// per-key lookup, lock-free batch readers racing a writer) plus the
// coherence property the runtime wiring must uphold — a cached decision
// NEVER survives a rule insert/erase once the update's completion is
// reported. The concurrent sections hammer the cache and a cached
// ShardedClassifier from reader threads while a writer streams inserts
// or updates (run under TSan via scripts/check.sh tsan); every observed
// result must be consistent with some prefix of the update sequence,
// and after the final update completes every read must reflect the
// final ruleset exactly.
#include "flow/flow_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "net/header.h"
#include "runtime/sharded_classifier.h"
#include "ruleset/generator.h"

namespace rfipc::flow {
namespace {

using engines::MatchResult;

net::FiveTuple tuple(std::uint32_t sip, std::uint16_t sport = 1234) {
  net::FiveTuple t;
  t.src_ip.value = sip;
  t.dst_ip.value = 0x08080808;
  t.src_port = sport;
  t.dst_port = 80;
  t.protocol = 6;
  return t;
}

MatchResult result_with_best(std::size_t best, std::size_t rules) {
  MatchResult r;
  r.reset_for(rules);
  r.best = best;
  if (best != MatchResult::kNoMatch) r.multi.set(best);
  return r;
}

TEST(FlowCache, CapacityRoundsUpToPowerOfTwoSegments) {
  EXPECT_EQ(FlowCache(0).capacity(), 64u);
  EXPECT_EQ(FlowCache(1).capacity(), 64u);
  EXPECT_EQ(FlowCache(65).capacity(), 128u);
  EXPECT_EQ(FlowCache(4096).capacity(), 4096u);
}

TEST(FlowCache, InsertThenLookupHits) {
  FlowCache cache(64);
  const net::HeaderBits key(tuple(0x0A000001));
  MatchResult out;
  EXPECT_FALSE(cache.lookup(key, out));
  cache.insert(key, cache.epoch(), result_with_best(3, 8));
  ASSERT_TRUE(cache.lookup(key, out));
  EXPECT_EQ(out.best, 3u);
  EXPECT_TRUE(out.multi.test(3));
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
}

TEST(FlowCache, InvalidateKillsEveryEntryInO1) {
  FlowCache cache(256);
  std::vector<net::HeaderBits> keys;
  for (std::uint32_t i = 0; i < 32; ++i) {
    keys.emplace_back(tuple(0x0A000000 + i));
    cache.insert(keys.back(), cache.epoch(), result_with_best(i, 64));
  }
  cache.invalidate();
  MatchResult out;
  for (const auto& k : keys) EXPECT_FALSE(cache.lookup(k, out));
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(FlowCache, StragglerInsertWithOldEpochIsRejected) {
  FlowCache cache(64);
  const net::HeaderBits key(tuple(0x0A000001));
  const std::uint64_t before = cache.epoch();
  cache.invalidate();  // a publication raced with the slow path
  cache.insert(key, before, result_with_best(0, 4));
  MatchResult out;
  EXPECT_FALSE(cache.lookup(key, out));
}

TEST(FlowCache, RefreshingAKeyIsNotAnEviction) {
  FlowCache cache(64);
  const net::HeaderBits key(tuple(0x0A000001));
  cache.insert(key, cache.epoch(), result_with_best(1, 8));
  cache.insert(key, cache.epoch(), result_with_best(2, 8));
  MatchResult out;
  ASSERT_TRUE(cache.lookup(key, out));
  EXPECT_EQ(out.best, 2u);  // the refresh won
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(FlowCache, OverfillEvictsButNeverLies) {
  // Far more distinct flows than slots: entries get displaced, but a
  // hit must still return exactly what was inserted for that key.
  FlowCache cache(64);
  std::vector<net::HeaderBits> keys;
  for (std::uint32_t i = 0; i < 512; ++i) {
    keys.emplace_back(tuple(0x0A000000 + i, static_cast<std::uint16_t>(i)));
    cache.insert(keys.back(), cache.epoch(), result_with_best(i, 512));
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  MatchResult out;
  std::size_t live = 0;
  for (std::uint32_t i = 0; i < 512; ++i) {
    if (cache.lookup(keys[i], out)) {
      ++live;
      EXPECT_EQ(out.best, i);
    }
  }
  EXPECT_GT(live, 0u);
  EXPECT_LE(live, cache.capacity());
}

MatchResult best_only(std::size_t best) {
  MatchResult r;
  r.best = best;
  return r;
}

// lookup_batch must answer exactly what per-key lookup() answers, across
// the prefetch-chunk edges: the same hits and best, the misses in order,
// multi vectors intact — and a best-only entry is a miss for a
// multi-wanting batch. Counters move by the exact hit/miss totals.
TEST(FlowCache, LookupBatchMatchesPerKeyLookup) {
  FlowCache cache(4096);
  std::vector<net::HeaderBits> keys;
  std::uint32_t state = 12345;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    state = state * 1664525u + 1013904223u;
    keys.emplace_back(tuple(state, static_cast<std::uint16_t>(i)));
    switch (i % 4) {  // 1 in 4 keys is never inserted
      case 0: cache.insert(keys.back(), cache.epoch(), result_with_best(i % 300, 300)); break;
      case 1: cache.insert(keys.back(), cache.epoch(), best_only(i)); break;
      case 2: cache.insert(keys.back(), cache.epoch(),
                           result_with_best(MatchResult::kNoMatch, 300));
              break;
      default: break;
    }
  }
  for (const std::size_t n : {1u, 63u, 64u, 65u, 256u, 1000u}) {
    for (const bool want_multi : {false, true}) {
      const std::span<const net::HeaderBits> batch(keys.data(), n);
      std::vector<MatchResult> expect(n);
      std::vector<std::size_t> expect_misses;
      for (std::size_t i = 0; i < n; ++i) {
        const bool hit = cache.lookup(batch[i], expect[i]);
        if (!hit || (want_multi && expect[i].multi.empty())) expect_misses.push_back(i);
        if (!want_multi) expect[i].multi.assign_zeros(0);
      }
      const auto before = cache.stats();
      std::vector<MatchResult> got(n);
      std::vector<std::size_t> misses{999};  // stale content must be cleared
      const std::size_t hits = cache.lookup_batch(batch, got, want_multi, misses);
      const auto after = cache.stats();
      SCOPED_TRACE("n=" + std::to_string(n) + " want_multi=" + std::to_string(want_multi));
      EXPECT_EQ(misses, expect_misses);
      EXPECT_EQ(hits, n - expect_misses.size());
      EXPECT_EQ(after.hits - before.hits, hits);
      EXPECT_EQ(after.misses - before.misses, expect_misses.size());
      std::size_t m = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (m < misses.size() && misses[m] == i) {
          ++m;
          continue;
        }
        EXPECT_EQ(got[i].best, expect[i].best) << i;
        EXPECT_EQ(got[i].multi, expect[i].multi) << i;
      }
    }
  }
}

// One writer refills every key per epoch and then invalidates, while
// readers probe batches. A hit's best encodes (epoch, key), so a torn
// key/best pair, a best from an epoch the batch could not have loaded,
// or a hit on an invalidated entry all show up; multi hits must carry
// the vector inserted with that best. Run under TSan by check.sh.
TEST(FlowCache, ConcurrentLookupBatchNeverServesTornOrInvalidatedEntries) {
  constexpr std::size_t kKeys = 256;  // twice the slots: constant eviction
  constexpr std::uint64_t kRounds = 150;
  FlowCache cache(128);
  std::vector<net::HeaderBits> keys;
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    keys.emplace_back(tuple(0x0A000000 + k, static_cast<std::uint16_t>(k)));
  }
  std::atomic<bool> done{false};
  std::vector<std::string> errors(3);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < errors.size(); ++t) {
    readers.emplace_back([&, t] {
      std::vector<MatchResult> results(kKeys);
      std::vector<std::size_t> misses;
      for (std::uint64_t it = 0; errors[t].empty(); ++it) {
        const bool finished = done.load(std::memory_order_acquire);
        const bool want_multi = it % 2 == 1;
        const std::uint64_t lo = cache.epoch();
        cache.lookup_batch(keys, results, want_multi, misses);
        const std::uint64_t hi = cache.epoch();
        std::size_t m = 0;
        for (std::size_t k = 0; k < kKeys && errors[t].empty(); ++k) {
          if (m < misses.size() && misses[m] == k) {
            ++m;
            continue;
          }
          const MatchResult& r = results[k];
          const std::uint64_t epoch = r.best / kKeys;
          if (r.best % kKeys != k || epoch < lo || epoch > hi) {
            errors[t] = "key " + std::to_string(k) + " served best " +
                        std::to_string(r.best) + " in epochs [" + std::to_string(lo) +
                        ", " + std::to_string(hi) + "]";
          } else if (want_multi && (r.multi.count() != 1 || !r.multi.test(r.best % 61))) {
            errors[t] = "key " + std::to_string(k) + " multi torn from best";
          } else if (!want_multi && !r.multi.empty()) {
            errors[t] = "best-only batch got a multi vector";
          }
        }
        if (finished) break;
      }
    });
  }
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    const std::uint64_t epoch = cache.epoch();
    for (std::size_t k = 0; k < kKeys; ++k) {
      const std::size_t best = epoch * kKeys + k;
      MatchResult r = best_only(best);
      if (k % 2 == 1) {
        r.multi.assign_zeros(61);
        r.multi.set(best % 61);
      }
      cache.insert(keys[k], epoch, r);
    }
    cache.invalidate();
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  for (std::size_t t = 0; t < errors.size(); ++t) {
    EXPECT_TRUE(errors[t].empty()) << "reader " << t << ": " << errors[t];
  }
  // The last round was invalidated: nothing may be served now.
  std::vector<MatchResult> results(kKeys);
  std::vector<std::size_t> misses;
  EXPECT_EQ(cache.lookup_batch(keys, results, false, misses), 0u);
  EXPECT_EQ(misses.size(), kKeys);
}

// ---------------------------------------------------------------------------
// Runtime wiring: the coherence contract.

constexpr std::size_t kBase = 6;

ruleset::RuleSet miss_rules() {
  // /32 rules pinned to addresses the probe never carries.
  ruleset::RuleSet rules;
  for (std::size_t i = 0; i < kBase; ++i) {
    ruleset::Rule r;
    r.src_ip = {{0x0B000000u + static_cast<std::uint32_t>(i)}, 32};
    rules.add(r);
  }
  return rules;
}

runtime::ShardedConfig cached_config() {
  runtime::ShardedConfig cfg;
  cfg.shards = 2;
  cfg.engine_spec = "linear";
  cfg.flow_cache_capacity = 1024;
  return cfg;
}

TEST(FlowCacheRuntime, HitShortCircuitsTheShardFanOut) {
  runtime::ShardedClassifier sc(miss_rules(), cached_config());
  std::vector<net::HeaderBits> headers(32, net::HeaderBits(tuple(0xC0A80001)));
  std::vector<MatchResult> results(headers.size());
  sc.classify_batch(headers, results);  // cold: fan-out runs, cache fills
  const auto before = sc.stats_snapshot();
  std::uint64_t shard_batches_before = 0;
  for (const auto& s : before.shards) shard_batches_before += s.batches;
  EXPECT_GT(shard_batches_before, 0u);
  // A cache-hit-heavy burst: the per-shard batch counters must not
  // move, because no shard ran.
  for (int i = 0; i < 50; ++i) sc.classify_batch(headers, results);
  const auto after = sc.stats_snapshot();
  std::uint64_t shard_batches_after = 0;
  for (const auto& s : after.shards) shard_batches_after += s.batches;
  EXPECT_EQ(shard_batches_after, shard_batches_before);
  EXPECT_GE(after.cache_hits, 50u * headers.size());
  EXPECT_EQ(after.packets, 51u * headers.size());
}

TEST(FlowCacheRuntime, NoCachedDecisionSurvivesInsertOrErase) {
  runtime::ShardedClassifier sc(miss_rules(), cached_config());
  const net::HeaderBits probe(tuple(0xC0A80001));

  // Warm the cache with the pre-update decision.
  EXPECT_FALSE(sc.classify(probe).has_match());
  EXPECT_FALSE(sc.classify(probe).has_match());
  ASSERT_GE(sc.stats_snapshot().cache_hits, 1u);

  // Insert a catch-all at the top: the completed update must be visible
  // on the very next read — a stale cached miss here is the bug.
  ASSERT_TRUE(sc.insert_rule(0, ruleset::Rule::any()));
  EXPECT_EQ(sc.classify(probe).best, 0u);
  EXPECT_EQ(sc.classify(probe).best, 0u);  // and the refreshed hit agrees

  // Erase it again: the cached best=0 decision must die with it.
  ASSERT_TRUE(sc.erase_rule(0));
  EXPECT_FALSE(sc.classify(probe).has_match());
  EXPECT_GE(sc.stats_snapshot().cache_invalidations, 2u);
}

TEST(FlowCacheRuntime, BatchPathUsesAndRefillsTheCache) {
  runtime::ShardedClassifier sc(miss_rules(), cached_config());
  std::vector<net::HeaderBits> headers;
  for (std::uint32_t i = 0; i < 16; ++i) {
    // 4 distinct flows, each repeated 4x — a skewed trace in miniature.
    headers.emplace_back(tuple(0xC0A80000 + i % 4));
  }
  std::vector<MatchResult> results(headers.size());
  // Cold batch: every lookup happens before any insert, so all 16 miss
  // (duplicates within one batch are not deduplicated).
  sc.classify_batch(headers, results);
  auto snap = sc.stats_snapshot();
  EXPECT_EQ(snap.cache_misses, 16u);
  EXPECT_EQ(snap.cache_hits, 0u);
  // Warm batch: the 4 distinct flows are all cached now.
  sc.classify_batch(headers, results);
  snap = sc.stats_snapshot();
  EXPECT_EQ(snap.cache_misses, 16u);
  EXPECT_EQ(snap.cache_hits, 16u);

  // After an update, the whole batch takes the slow path once.
  ASSERT_TRUE(sc.insert_rule(0, ruleset::Rule::any()));
  sc.classify_batch(headers, results);
  for (const auto& r : results) EXPECT_EQ(r.best, 0u);
}

TEST(FlowCacheRuntime, BestOnlyEntriesAreNotServedToMultiCallers) {
  runtime::ShardedClassifier sc(miss_rules(), cached_config());
  ASSERT_TRUE(sc.supports_multi_match());
  std::vector<net::HeaderBits> headers(4, net::HeaderBits(tuple(0xC0A80001)));
  std::vector<MatchResult> results(headers.size());
  // Seed the cache from a best-only caller (empty multi vectors).
  sc.classify_batch(headers, results, engines::BatchOptions{.want_multi = false});
  EXPECT_TRUE(results[0].multi.empty());
  auto snap = sc.stats_snapshot();
  EXPECT_EQ(snap.cache_hits, 0u);
  EXPECT_EQ(snap.cache_misses, 4u);
  // A multi-wanting caller must get a full-width vector, not the
  // cached stub — and the stub it could not use counts as a miss.
  sc.classify_batch(headers, results);
  for (const auto& r : results) EXPECT_EQ(r.multi.size(), sc.rule_count());
  snap = sc.stats_snapshot();
  EXPECT_EQ(snap.cache_hits, 0u);
  EXPECT_EQ(snap.cache_misses, 8u);
  // The refreshed entry now carries multi and serves both callers.
  sc.classify_batch(headers, results);
  for (const auto& r : results) EXPECT_EQ(r.multi.size(), sc.rule_count());
  EXPECT_EQ(sc.classify(headers[0]).multi.size(), sc.rule_count());
  sc.classify_batch(headers, results, engines::BatchOptions{.want_multi = false});
  for (const auto& r : results) EXPECT_TRUE(r.multi.empty());
  snap = sc.stats_snapshot();
  EXPECT_EQ(snap.cache_hits, 9u);
  EXPECT_EQ(snap.cache_misses, 8u);
}

// Readers race a writer streaming synchronous updates. During the race
// any prefix-consistent result is legal (hits may briefly lag behind an
// in-flight publication), but torn state never is — and once the writer
// is done, reads must see the final ruleset exactly.
TEST(FlowCacheRuntime, ConcurrentReadersNeverSeeTornOrPostUpdateStaleState) {
  runtime::ShardedClassifier sc(miss_rules(), cached_config());
  const net::HeaderBits probe(tuple(0xC0A80001));
  constexpr std::size_t kVersions = 24;
  constexpr std::size_t kReaders = 3;

  std::atomic<bool> done{false};
  std::vector<std::string> errors(kReaders);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::vector<net::HeaderBits> batch_in(4, probe);
      std::vector<MatchResult> batch_out(batch_in.size());
      std::uint64_t iterations = 0;
      while (!done.load(std::memory_order_acquire) && errors[t].empty()) {
        MatchResult r;
        if (++iterations % 4 == 0) {
          sc.classify_batch(batch_in, batch_out);
          r = batch_out[0];
        } else {
          r = sc.classify(probe);
        }
        // Prefix consistency: k appended any() rules matched => multi
        // holds exactly bits [kBase, kBase + k) and best == kBase.
        const std::size_t total = r.multi.size();
        if (total < kBase || total > kBase + kVersions) {
          errors[t] = "multi size " + std::to_string(total);
          break;
        }
        const std::size_t k = total - kBase;
        if (r.multi.count() != k ||
            (k > 0 && r.multi.first_set() != kBase) ||
            r.best != (k > 0 ? kBase : MatchResult::kNoMatch)) {
          errors[t] = "torn result at k=" + std::to_string(k);
        }
      }
    });
  }

  for (std::size_t v = 0; v < kVersions; ++v) {
    ASSERT_TRUE(sc.insert_rule(kBase + v, ruleset::Rule::any()));
  }
  for (std::size_t v = kVersions; v > 0; --v) {
    ASSERT_TRUE(sc.erase_rule(kBase + v - 1));
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  for (std::size_t t = 0; t < kReaders; ++t) {
    EXPECT_TRUE(errors[t].empty()) << "reader " << t << ": " << errors[t];
  }

  // Every update has completed: no cached decision from any earlier
  // version may be served, from either lookup path.
  EXPECT_FALSE(sc.classify(probe).has_match());
  std::vector<net::HeaderBits> batch_in(8, probe);
  std::vector<MatchResult> batch_out(batch_in.size());
  sc.classify_batch(batch_in, batch_out);
  for (const auto& r : batch_out) {
    EXPECT_FALSE(r.has_match());
    EXPECT_EQ(r.multi.size(), kBase);
  }
  EXPECT_GE(sc.stats_snapshot().cache_invalidations, 2u);
}

}  // namespace
}  // namespace rfipc::flow
