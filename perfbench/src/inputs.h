// The deployment under test and the inputs every workload draws from.
//
// Everything here is a pure function of the seed: the ruleset, the flow
// population, the frame order of one replay pass, the 54-byte frames
// and the reference answers the oracle checks against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/header.h"
#include "net/pcap.h"
#include "ruleset/ruleset.h"
#include "runtime/sharded_classifier.h"

namespace perfbench {

// rfipcd's deployment at the paper's largest N.
inline constexpr std::size_t kRules = 2048;
inline constexpr std::size_t kShards = 4;
inline constexpr const char* kEngineSpec = "stridebv:4";
/// The flow cache's fixed capacity (slots).
inline constexpr std::size_t kCacheSlots = 8192;
/// Frames per capture batch and headers per wire classify request.
inline constexpr std::size_t kBatch = 256;
/// Ethernet + IPv4 + TCP with no payload; UDP frames are padded to it.
inline constexpr std::size_t kFrameBytes = 54;
/// Frames in one replay pass (and headers in one wire trace).
inline constexpr std::size_t kPassFrames = 65536;
/// Skewed traffic: a few thousand flows, well under half the cache.
inline constexpr std::size_t kSkewedFlows = 3000;
/// Zipf exponent of the skewed flows' popularity.
inline constexpr double kZipfExponent = 1.1;
/// Unique traffic: distinct flows at 8x the cache, each once per pass.
inline constexpr std::size_t kUniqueFlows = 8 * kCacheSlots;
/// Share of flows synthesized to hit a rule (TraceConfig's default mix).
inline constexpr double kRuleDerived = 0.7;

enum class Traffic { kSkewed, kUnique };

struct Trace {
  /// Distinct flows (TCP or UDP 5-tuples).
  std::vector<rfipc::net::FiveTuple> flows;
  /// Frame i of a pass carries flows[order[i]].
  std::vector<std::uint32_t> order;
  /// Per frame: the packed header and the oracle's answer.
  std::vector<rfipc::net::HeaderBits> headers;
  std::vector<std::uint64_t> best;
  /// Oracle verdict counts over one pass.
  std::uint64_t forward = 0;
  std::uint64_t drop = 0;
  /// The pass as a capture (LINKTYPE_ETHERNET, kFrameBytes per frame).
  rfipc::net::PcapFile pcap;
};

rfipc::ruleset::RuleSet make_rules(std::uint64_t seed);

Trace make_trace(const rfipc::ruleset::RuleSet& rules, Traffic traffic,
                 std::uint64_t seed);

/// Share of a pass's frames whose flow already appeared earlier in it.
double flow_reuse_share(const Trace& trace);

/// Every generated input as one byte string (rules, then the pcap).
std::vector<std::uint8_t> input_bytes(const rfipc::ruleset::RuleSet& rules,
                                      const Trace& trace);

/// rfipcd's ShardedConfig: 4 bands of stridebv:4, block wait policy,
/// all cores, and `reserved` cores held back the way rfipcd holds them
/// back (service threads, plus one per capture ring when capturing).
rfipc::runtime::ShardedConfig deployment_config(std::size_t reserved);

}  // namespace perfbench
