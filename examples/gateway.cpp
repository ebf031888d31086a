// Gateway — a firewall served by the sharded runtime, the software
// analogue of the paper's Section IV-A multi-pipeline packing.
//
//   $ gateway [--rules N] [--packets P] [--shards S] [--batch B]
//             [--engine spec] [--seed S] [--flow-cache SLOTS]
//             [--fault-p P]
//
// Builds a ShardedClassifier (S priority bands, each its own engine of
// the chosen factory spec, optionally fronted by a flow cache of SLOTS
// entries) and replays heavy-tailed traffic through it in batches,
// counting forwarded and dropped packets. It prints the per-shard
// latency table (and the flow-cache counters when the cache is on),
// then hot-inserts a top-priority drop rule for the first flow.
//
// With --fault-p every shard engine is wrapped in faulty(...), the
// software stand-in for a flaky pipeline stage memory: a lookup throws,
// corrupts its result or stalls with probability P. The runtime
// contains the faults, quarantines repeat offenders and serves from the
// healthy shards; the drop rule is inserted during that outage, and the
// gateway waits until every quarantined shard is rebuilt on the clean
// spec and reinstated.
//
// Finally every packet is classified again. Each verdict of that replay,
// and of the first one when no faults are injected, is checked against
// the golden linear search over the rules of its time; any mismatch (or
// a fault run that never degraded or never recovered) exits 1.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "rfipc.h"

using namespace rfipc;

namespace {

void print_health(const runtime::StatsSnapshot& snap) {
  std::printf("  state: %s | faults=%llu quarantines=%llu reinstates=%llu\n",
              snap.degraded ? "DEGRADED (serving from healthy shards)" : "healthy",
              static_cast<unsigned long long>(snap.faults),
              static_cast<unsigned long long>(snap.quarantines),
              static_cast<unsigned long long>(snap.reinstates));
  for (const auto& h : snap.health) {
    if (h.faults == 0 && !h.quarantined && h.reinstated == 0) continue;
    std::printf("    shard id=%zu rules=%zu faults=%llu degraded_packets=%llu%s%s\n",
                h.id, h.rules, static_cast<unsigned long long>(h.faults),
                static_cast<unsigned long long>(h.degraded_packets),
                h.quarantined ? " [QUARANTINED]" : "",
                h.reinstated > 0 ? " [reinstated]" : "");
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags(argc, argv, {"rules", "packets", "shards", "batch", "engine",
                                    "seed", "flow-cache", "fault-p"});
  const auto n_rules = flags.get_u64("rules", 512);
  const auto n_packets = std::max<std::uint64_t>(1, flags.get_u64("packets", 100000));
  const auto batch = std::max<std::uint64_t>(1, flags.get_u64("batch", 512));
  const auto spec = flags.get("engine", "stridebv:4");
  const auto seed = flags.get_u64("seed", 2013);
  const bool faulty = flags.has("fault-p");

  ruleset::GeneratorConfig gcfg;
  gcfg.mode = ruleset::GeneratorMode::kFirewall;
  gcfg.size = n_rules;
  gcfg.seed = seed;
  auto rules = ruleset::generate(gcfg);

  runtime::ShardedConfig rcfg;
  rcfg.shards = flags.get_u64("shards", 4);
  rcfg.engine_spec = spec;
  rcfg.flow_cache_capacity = flags.get_u64("flow-cache", 0);
  if (faulty) {
    rcfg.engine_spec = "faulty(" + spec + "):p=" + flags.get("fault-p", "") +
                       ",mode=mixed,seed=" + std::to_string(seed);
    rcfg.failure.quarantine_after = 2;
    rcfg.failure.rebuild_spec = spec;  // swap in healthy hardware
    rcfg.failure.backoff_initial_ms = 5;
  }
  runtime::ShardedClassifier gateway(rules, rcfg);
  std::printf("runtime: %s\n", gateway.name().c_str());
  for (std::size_t s = 0; s < gateway.shard_count(); ++s) {
    std::printf("  shard %zu: %zu rules (%s)\n", s, gateway.shard_size(s),
                gateway.shard(s).name().c_str());
  }

  // Heavy-tailed arrivals over a flow population (a few flows dominate,
  // as on a real link): squaring a uniform draw picks low flow ids often.
  ruleset::TraceConfig tcfg;
  tcfg.size = std::max<std::uint64_t>(1, n_packets / 16);
  tcfg.seed = seed + 1;
  const auto flows = ruleset::generate_trace(rules, tcfg);
  util::Xoshiro256 rng(seed + 2);
  std::vector<net::HeaderBits> packed;
  packed.reserve(n_packets);
  std::size_t first_flow = 0;
  for (std::uint64_t p = 0; p < n_packets; ++p) {
    const double u = rng.uniform01();
    const std::size_t f = std::min(
        static_cast<std::size_t>(u * u * static_cast<double>(flows.size())),
        flows.size() - 1);
    if (p == 0) first_flow = f;
    packed.emplace_back(flows[f]);
  }

  // Batched replay; the runtime fans each batch out across its shards.
  std::vector<engines::MatchResult> results(packed.size());
  const auto replay = [&] {
    for (std::size_t off = 0; off < packed.size(); off += batch) {
      const std::size_t len = std::min<std::size_t>(batch, packed.size() - off);
      gateway.classify_batch({packed.data() + off, len}, {results.data() + off, len});
    }
  };
  // Every verdict against the golden linear search over the current
  // rules. A faulty run's first replay is served degraded by design.
  const auto mismatches = [&] {
    const engines::LinearSearchEngine golden(rules);
    std::size_t n = 0;
    for (std::size_t i = 0; i < packed.size(); ++i) {
      n += results[i].best != golden.classify(packed[i]).best;
    }
    return n;
  };
  replay();
  std::size_t wrong = faulty ? 0 : mismatches();
  std::uint64_t dropped = 0;
  for (const auto& r : results) {
    dropped += r.has_match() && rules[r.best].action.kind == ruleset::Action::Kind::kDrop;
  }
  std::printf("\ntraffic: %s packets over %s flows -> %s forwarded, %s dropped\n",
              util::fmt_group(packed.size()).c_str(), util::fmt_group(flows.size()).c_str(),
              util::fmt_group(packed.size() - dropped).c_str(),
              util::fmt_group(dropped).c_str());

  auto snap = gateway.stats_snapshot();
  util::TextTable stats({"shard", "batches", "p50 latency (us)", "p99 latency (us)"});
  for (std::size_t s = 0; s < snap.shards.size(); ++s) {
    stats.add_row({std::to_string(s), std::to_string(snap.shards[s].batches),
                   util::fmt_double(static_cast<double>(snap.shards[s].p50_ns) / 1e3, 1),
                   util::fmt_double(static_cast<double>(snap.shards[s].p99_ns) / 1e3, 1)});
  }
  std::printf("\nruntime counters: packets=%llu batches=%llu matches=%llu\n",
              static_cast<unsigned long long>(snap.packets),
              static_cast<unsigned long long>(snap.batches),
              static_cast<unsigned long long>(snap.matches));
  std::printf("%s", stats.render(2).c_str());
  if (const flow::FlowCache* cache = gateway.flow_cache()) {
    std::printf("flow cache (%zu slots): %s\n", cache->capacity(),
                cache->stats().to_string().c_str());
  }
  const bool saw_degradation = snap.quarantines > 0;
  if (faulty) {
    std::printf("\nfaulty shards after the replay:\n");
    print_health(snap);
    if (!saw_degradation) std::printf("  (no shard was quarantined; raise --fault-p)\n");
  }

  // Live update: block the first packet's flow with a top-priority drop
  // rule. It lands on the next batch; with faults it lands during the
  // outage (in the shadow rulesets) and rides along into the rebuilt
  // engines.
  const auto first = rules.first_match(flows[first_flow]);
  ruleset::Rule block = first ? rules[*first] : ruleset::Rule::any();
  block.action = ruleset::Action::drop();
  if (!gateway.insert_rule(0, block)) {
    std::printf("\nlive update rejected\n");
    return 1;
  }
  rules.insert(0, block);
  std::printf("\nlive update: drop rule hot-inserted at priority 0 (updates=%llu)\n",
              static_cast<unsigned long long>(gateway.stats_snapshot().updates));

  if (faulty) {
    std::printf("\nwaiting for background rebuild-and-reinstate\n");
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      snap = gateway.stats_snapshot();
      if (!snap.degraded && snap.reinstates >= snap.quarantines) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    print_health(snap);
  }

  // The final rules include the inserted drop rule.
  replay();
  wrong += mismatches();
  std::printf("\nverification vs golden linear search: %zu mismatches over %s "
              "verdicts; first flow -> %s\n",
              wrong, util::fmt_group((faulty ? 1 : 2) * packed.size()).c_str(),
              results[0].best == 0 ? "dropped" : "forwarded");

  const bool ok = wrong == 0 && (!faulty || (saw_degradation && !snap.degraded));
  if (faulty) {
    std::printf("%s: faults contained, served while degraded, rebuilt and exact\n",
                ok ? "PASS" : "FAIL");
  }
  return ok ? 0 : 1;
}
