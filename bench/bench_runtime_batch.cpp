// Extension: the software batch/sharded classification runtime.
//
// The paper's engines are hardware pipelines; this bench quantifies the
// SOFTWARE path the runtime/ subsystem adds for serving traffic before
// (or without) an FPGA: per-packet virtual classify() vs the batched
// classify_batch() fast path vs the ShardedClassifier multi-pipeline
// analogue (Section IV-A's packing, in software). Batching wins by
// reusing scratch vectors and replacing the simulated per-bit PPE
// tournament with a word-scan fold; sharding additionally cuts each
// pipeline's bit-vector width and spreads packet slices across worker
// lanes. Every timed row is bench::median_rate: one warm-up pass, then
// the median of five timed passes.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "engines/common/factory.h"
#include "harness.h"
#include "runtime/sharded_classifier.h"
#include "ruleset/generator.h"
#include "ruleset/trace.h"
#include "util/affinity.h"
#include "util/simd.h"
#include "util/str.h"
#include "util/table.h"

using namespace rfipc;

namespace {

/// One pass over `headers` in `batch`-sized classify_batch calls.
void run_batches(const engines::ClassifierEngine& engine,
                 const std::vector<net::HeaderBits>& headers,
                 std::vector<engines::MatchResult>& results, std::size_t batch) {
  for (std::size_t off = 0; off < headers.size(); off += batch) {
    const std::size_t len = std::min(batch, headers.size() - off);
    engine.classify_batch({headers.data() + off, len}, {results.data() + off, len});
  }
}

}  // namespace

int main() {
  bench::print_banner(
      "Extension — batched + sharded software runtime",
      "multi-pipeline packing (Section IV-A) applied in software: batches "
      "amortize per-packet overhead, shards parallelize priority bands");
  bench::functional_gate(256);

  constexpr std::size_t kRules = 1024;
  constexpr std::size_t kPackets = 8192;
  constexpr std::size_t kBatch = 512;
  constexpr std::size_t kBatchWide = 2048;  // the vectorized-path acceptance row
  const std::string spec = "stridebv:4";
  std::printf("SIMD dispatch: %s\n\n", util::simd::active_name());

  const auto rules = ruleset::generate_firewall(kRules, 2013);
  ruleset::TraceConfig tcfg;
  tcfg.size = kPackets;
  tcfg.seed = 7;
  std::vector<net::HeaderBits> headers;
  headers.reserve(kPackets);
  for (const auto& t : ruleset::generate_trace(rules, tcfg)) headers.emplace_back(t);
  std::vector<engines::MatchResult> results(kPackets);

  util::TextTable table({"configuration", "Mpkt/s", "speedup", "p50 batch (us)",
                         "p99 batch (us)"});

  // Baseline: one virtual classify() per packet on the whole ruleset.
  const auto engine = engines::make_engine(spec, rules);
  const double per_packet_rate = bench::median_rate(kPackets, [&] {
    for (std::size_t i = 0; i < kPackets; ++i) results[i] = engine->classify(headers[i]);
  });
  table.add_row({engine->name() + " per-packet", util::fmt_double(per_packet_rate / 1e6, 3),
                 "1.00", "-", "-"});

  // Batched fast path, same single engine.
  const double batched_rate = bench::median_rate(
      kPackets, [&] { run_batches(*engine, headers, results, kBatch); });
  table.add_row({engine->name() + " batch=" + std::to_string(kBatch),
                 util::fmt_double(batched_rate / 1e6, 3),
                 util::fmt_double(batched_rate / per_packet_rate, 2), "-", "-"});

  // Wide batches amortize the scratch arena further and give the
  // prefetch pipeline a longer run.
  const double wide_rate = bench::median_rate(
      kPackets, [&] { run_batches(*engine, headers, results, kBatchWide); });
  table.add_row({engine->name() + " batch=" + std::to_string(kBatchWide),
                 util::fmt_double(wide_rate / 1e6, 3),
                 util::fmt_double(wide_rate / per_packet_rate, 2), "-", "-"});

  // Sharded runtime across shard counts. The 1-shard row exercises the
  // one-band path: a single lane classifies straight into the caller's
  // results — no worker dispatch, no band buffer, no fold — so it
  // should track the raw engine batch row above. Multi-shard rows
  // split each batch into packet slices over run-to-completion workers
  // (SPSC ring hand-off) when the core budget affords lanes; every lane
  // walks every band over its slice, and on a 1-core box the single
  // lane walks the whole batch inline.
  double sharded1_rate = 0;
  double sharded4_rate = 0;
  double sharded8_rate = 0;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    runtime::ShardedConfig cfg;
    cfg.shards = shards;
    cfg.engine_spec = spec;
    const runtime::ShardedClassifier sc(rules, cfg);
    const double rate =
        bench::median_rate(kPackets, [&] { run_batches(sc, headers, results, kBatch); });
    if (shards == 1) sharded1_rate = rate;
    if (shards == 4) sharded4_rate = rate;
    if (shards == 8) sharded8_rate = rate;
    // Worst shard's latency digest — the batch completes when the
    // slowest band does.
    const auto snap = sc.stats_snapshot();
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    for (const auto& sh : snap.shards) {
      if (sh.p50_ns > p50) p50 = sh.p50_ns;
      if (sh.p99_ns > p99) p99 = sh.p99_ns;
    }
    table.add_row({sc.name() + " batch=" + std::to_string(kBatch),
                   util::fmt_double(rate / 1e6, 3),
                   util::fmt_double(rate / per_packet_rate, 2),
                   util::fmt_double(static_cast<double>(p50) / 1e3, 1),
                   util::fmt_double(static_cast<double>(p99) / 1e3, 1)});
  }
  // Busy-poll wait policy: the latency-bench variant (spinning workers
  // and dispatcher, no parking). Only meaningfully different from the
  // row above when the core budget affords real lanes.
  double sharded4_spin_rate = 0;
  {
    runtime::ShardedConfig cfg;
    cfg.shards = 4;
    cfg.engine_spec = spec;
    cfg.wait_policy = runtime::ShardWorkerPool::WaitPolicy::kBusyPoll;
    const runtime::ShardedClassifier sc(rules, cfg);
    sharded4_spin_rate =
        bench::median_rate(kPackets, [&] { run_batches(sc, headers, results, kBatch); });
    table.add_row({sc.name() + " busy-poll", util::fmt_double(sharded4_spin_rate / 1e6, 3),
                   util::fmt_double(sharded4_spin_rate / per_packet_rate, 2), "-", "-"});
  }
  // Flow-cache front end on a cache-hit-heavy (skewed) trace: a few
  // elephant flows carry the traffic, so after one cold pass nearly
  // every packet is answered without touching any shard.
  double cached_rate = 0;
  double uncached_skewed_rate = 0;
  flow::FlowCache::Stats cache_stats;
  std::uint64_t cached_shard_batches = 0;
  {
    constexpr std::size_t kFlows = 64;
    std::vector<net::HeaderBits> skewed;
    skewed.reserve(kPackets);
    for (std::size_t i = 0; i < kPackets; ++i) skewed.push_back(headers[i % kFlows]);

    runtime::ShardedConfig cfg;
    cfg.shards = 4;
    cfg.engine_spec = spec;
    {
      const runtime::ShardedClassifier sc(rules, cfg);
      uncached_skewed_rate =
          bench::median_rate(kPackets, [&] { run_batches(sc, skewed, results, kBatch); });
      table.add_row({sc.name() + " skewed, no cache", util::fmt_double(uncached_skewed_rate / 1e6, 3),
                     util::fmt_double(uncached_skewed_rate / per_packet_rate, 2), "-", "-"});
    }
    cfg.flow_cache_capacity = 4096;
    const runtime::ShardedClassifier sc(rules, cfg);
    // The warm-up pass fills the cache; the timed passes are the steady
    // state.
    cached_rate =
        bench::median_rate(kPackets, [&] { run_batches(sc, skewed, results, kBatch); });
    table.add_row({sc.name() + " skewed + flow cache", util::fmt_double(cached_rate / 1e6, 3),
                   util::fmt_double(cached_rate / per_packet_rate, 2), "-", "-"});
    cache_stats = sc.flow_cache()->stats();
    for (const auto& sh : sc.stats_snapshot().shards) cached_shard_batches += sh.batches;
    std::printf("flow cache: %s\n", cache_stats.to_string().c_str());
  }
  bench::emit(table, "runtime_batch.csv");

  // Full stats readout from one runtime instance, as an app would see.
  {
    runtime::ShardedConfig cfg;
    cfg.shards = 4;
    cfg.engine_spec = spec;
    const runtime::ShardedClassifier sc(rules, cfg);
    sc.classify_batch(headers, results);
    std::printf("\nruntime stats: %s\n", sc.stats_snapshot().to_string().c_str());
  }

  bench::check("single-shard runtime rides the engine batch path (fan-out bypassed)",
               sharded1_rate >= 0.5 * batched_rate,
               util::fmt_double(sharded1_rate / batched_rate, 2) + "x of raw batch");
  bench::check("sharded runtime (4 shards, batch 512) beats per-packet classify 3x",
               sharded4_rate >= 3.0 * per_packet_rate,
               util::fmt_double(sharded4_rate / per_packet_rate, 2) + "x at " +
                   std::to_string(kRules) + " rules");
  // Shard-scaling gates, multi-core only. With >=4 cores the 4-shard
  // row runs 4 lanes, each walking a quarter of every batch, so it
  // should approach 4x the 1-shard (one lane, full-ruleset) row;
  // require 70% of linear, and require 8 shards (still 4 lanes, twice
  // the bands) to at least not fall below 1 shard — the original
  // inversion. On smaller boxes the core budget intentionally derives
  // fewer lanes; every packet still visits every priority band, so
  // more shards genuinely cost more fixed per-packet work there and
  // the ratio is reported rather than gated (the 1-shard bypass check
  // above is the gate that matters on 1 core).
  const std::size_t hw = util::allowed_cpu_count();
  if (hw >= 4) {
    bench::check("4-shard fan-out scales to >=0.7x linear over 1 shard",
                 sharded4_rate >= 0.7 * 4.0 * sharded1_rate,
                 util::fmt_double(sharded4_rate / sharded1_rate, 2) + "x of 1-shard on " +
                     std::to_string(hw) + " cores");
    bench::check("adding shards no longer inverts throughput (8-shard floor)",
                 sharded8_rate >= sharded1_rate && sharded4_spin_rate > 0,
                 "8-shard at " + util::fmt_double(sharded8_rate / sharded1_rate, 2) +
                     "x of 1-shard");
  } else {
    std::printf("[SKIP] shard-scaling gates need >=4 allowed CPUs (this process "
                "may use %zu); serial 8-shard runs at %sx of 1-shard\n",
                hw, util::fmt_double(sharded8_rate / sharded1_rate, 2).c_str());
  }
  bench::check("flow cache short-circuits the fan-out on the skewed trace",
               cache_stats.hit_rate() > 0.9 &&
                   cached_shard_batches < 4 * (kPackets / kBatch + 1),
               cache_stats.to_string() + ", shard batches " +
                   std::to_string(cached_shard_batches));
  bench::check("flow cache beats the uncached fan-out on the skewed trace",
               cached_rate > uncached_skewed_rate,
               util::fmt_double(cached_rate / uncached_skewed_rate, 2) + "x");

  // Functional: the fast paths must agree with the golden engine.
  const auto golden = engines::make_engine("linear", rules);
  runtime::ShardedConfig cfg;
  cfg.shards = 4;
  cfg.engine_spec = spec;
  const runtime::ShardedClassifier sc(rules, cfg);
  sc.classify_batch(headers, results);
  bool ok = true;
  for (std::size_t i = 0; i < kPackets; ++i) {
    if (results[i].best != golden->classify(headers[i]).best) ok = false;
  }
  bench::check("sharded batch results identical to golden linear search", ok,
               std::to_string(kPackets) + " headers");
  return bench::exit_code();
}
