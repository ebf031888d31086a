// Isolation passes over the live classifier, shared by every workload:
// each prices one layer alone on the workload's own batches.
#pragma once

#include <vector>

#include "net/header.h"
#include "runtime/sharded_classifier.h"

namespace perfbench {

struct EngineIsolation {
  /// FlowCache::lookup on the classifier's live cache, ns per packet.
  double probe_ns = 0.0;
  /// Every band engine on every packet, summed over bands, ns per packet.
  double bands_ns = 0.0;
  /// The slowest single band, ns per packet.
  double slowest_band_ns = 0.0;
};

/// Prices the cache probe and each band's classify_batch over
/// `headers`, batch by batch.
EngineIsolation isolate_engines(const std::vector<rfipc::net::HeaderBits>& headers,
                                const rfipc::runtime::ShardedClassifier& clf);

/// Sums the worker parks and ring stalls between two snapshots.
void worker_deltas(const rfipc::runtime::StatsSnapshot& before,
                   const rfipc::runtime::StatsSnapshot& after, double& parks,
                   double& stalls);

/// Cache hits over probes between two snapshots.
double hit_ratio(const rfipc::runtime::StatsSnapshot& before,
                 const rfipc::runtime::StatsSnapshot& after);

}  // namespace perfbench
