#include "layers.h"

#include <algorithm>
#include <span>

#include "inputs.h"
#include "measure.h"

namespace perfbench {

using rfipc::engines::MatchResult;

EngineIsolation isolate_engines(const std::vector<rfipc::net::HeaderBits>& headers,
                                const rfipc::runtime::ShardedClassifier& clf) {
  const std::size_t n = headers.size();
  EngineIsolation iso;
  if (n == 0) return iso;

  const rfipc::flow::FlowCache* cache = clf.flow_cache();
  MatchResult probe;
  for (std::size_t b = 0; b < n && cache != nullptr; b += kBatch) {
    const std::size_t e = std::min(n, b + kBatch);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = b; i < e; ++i) cache->lookup(headers[i], probe);
    iso.probe_ns += ns_between(t0, Clock::now());
  }

  std::vector<MatchResult> results(kBatch);
  for (std::size_t s = 0; s < clf.shard_count(); ++s) {
    const auto engine = clf.shard_engine(s);
    double band_ns = 0.0;
    for (std::size_t b = 0; b < n; b += kBatch) {
      const std::size_t e = std::min(n, b + kBatch);
      const std::span<const rfipc::net::HeaderBits> batch(headers.data() + b, e - b);
      const std::span<MatchResult> out(results.data(), e - b);
      const Clock::time_point t0 = Clock::now();
      engine->classify_batch(batch, out,
                             rfipc::engines::BatchOptions{.want_multi = false});
      band_ns += ns_between(t0, Clock::now());
    }
    iso.bands_ns += band_ns;
    iso.slowest_band_ns = std::max(iso.slowest_band_ns, band_ns);
  }
  const double packets = static_cast<double>(n);
  iso.probe_ns /= packets;
  iso.bands_ns /= packets;
  iso.slowest_band_ns /= packets;
  return iso;
}

void worker_deltas(const rfipc::runtime::StatsSnapshot& before,
                   const rfipc::runtime::StatsSnapshot& after, double& parks,
                   double& stalls) {
  parks = 0.0;
  stalls = 0.0;
  for (std::size_t w = 0; w < after.workers.size(); ++w) {
    const bool had = w < before.workers.size();
    parks += static_cast<double>(after.workers[w].parks -
                                 (had ? before.workers[w].parks : 0));
    stalls += static_cast<double>(after.workers[w].ring_stalls -
                                  (had ? before.workers[w].ring_stalls : 0));
  }
}

double hit_ratio(const rfipc::runtime::StatsSnapshot& before,
                 const rfipc::runtime::StatsSnapshot& after) {
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses = static_cast<double>(after.cache_misses - before.cache_misses);
  return hits + misses == 0.0 ? 0.0 : hits / (hits + misses);
}

}  // namespace perfbench
