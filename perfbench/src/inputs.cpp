#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "net/packet_parser.h"
#include "ruleset/generator.h"
#include "ruleset/trace.h"
#include "util/prng.h"

namespace perfbench {

using rfipc::net::FiveTuple;

namespace {

constexpr std::uint8_t kTcp = 6;
constexpr std::uint8_t kUdp = 17;

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
  return rfipc::util::splitmix64(s);
}

struct TupleHash {
  std::size_t operator()(const FiveTuple& t) const {
    std::uint64_t s = (static_cast<std::uint64_t>(t.src_ip.value) << 32) ^
                      t.dst_ip.value ^
                      (static_cast<std::uint64_t>(t.src_port) << 40) ^
                      (static_cast<std::uint64_t>(t.dst_port) << 16) ^ t.protocol;
    return static_cast<std::size_t>(rfipc::util::splitmix64(s));
  }
};

/// `count` distinct TCP/UDP flows, drawn with TraceConfig's
/// rule-derived/random mix.
std::vector<FiveTuple> distinct_flows(const rfipc::ruleset::RuleSet& rules,
                                      std::size_t count, std::uint64_t seed) {
  std::vector<FiveTuple> out;
  out.reserve(count);
  std::unordered_set<FiveTuple, TupleHash> seen;
  seen.reserve(count * 2);
  for (std::uint64_t round = 0; out.size() < count; ++round) {
    rfipc::ruleset::TraceConfig cfg;
    cfg.size = count;
    cfg.seed = derive(seed, round);
    cfg.match_fraction = kRuleDerived;
    for (FiveTuple t : rfipc::ruleset::generate_trace(rules, cfg)) {
      // Frames are TCP or UDP: any other protocol byte maps onto one of
      // them, so the frame carries ports the parser reads back.
      if (t.protocol != kTcp && t.protocol != kUdp) {
        t.protocol = (t.protocol & 1) != 0 ? kUdp : kTcp;
      }
      if (seen.insert(t).second) out.push_back(t);
      if (out.size() == count) break;
    }
  }
  return out;
}

/// A 54-byte Ethernet/IPv4/TCP-or-UDP frame from net::build_packet.
std::vector<std::uint8_t> frame_for(const FiveTuple& t) {
  rfipc::net::BuildOptions opts;
  opts.payload_len = t.protocol == kUdp ? 12 : 0;
  std::vector<std::uint8_t> frame = rfipc::net::build_packet(t, opts);
  if (frame.size() != kFrameBytes) {
    throw std::logic_error("frame_for: expected a 54-byte frame");
  }
  return frame;
}

}  // namespace

rfipc::ruleset::RuleSet make_rules(std::uint64_t seed) {
  return rfipc::ruleset::generate_firewall(kRules, seed);
}

Trace make_trace(const rfipc::ruleset::RuleSet& rules, Traffic traffic,
                 std::uint64_t seed) {
  Trace tr;
  rfipc::util::Xoshiro256 rng(derive(seed, traffic == Traffic::kSkewed ? 101 : 202));
  if (traffic == Traffic::kSkewed) {
    tr.flows = distinct_flows(rules, kSkewedFlows, derive(seed, 1));
    // Zipf popularity over the flows by inverse CDF.
    std::vector<double> cdf(tr.flows.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < cdf.size(); ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
      cdf[i] = acc;
    }
    tr.order.resize(kPassFrames);
    for (auto& o : tr.order) {
      const double u = rng.uniform01() * acc;
      const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
      o = static_cast<std::uint32_t>(
          std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                                cdf.size() - 1));
    }
  } else {
    tr.flows = distinct_flows(rules, kUniqueFlows, derive(seed, 2));
    tr.order.resize(tr.flows.size());
    for (std::size_t i = 0; i < tr.order.size(); ++i) {
      tr.order[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = tr.order.size(); i > 1; --i) {
      std::swap(tr.order[i - 1], tr.order[rng.below(i)]);
    }
  }

  // Oracle answers per flow, then per frame.
  std::vector<std::uint64_t> flow_best(tr.flows.size());
  std::vector<std::vector<std::uint8_t>> flow_frame(tr.flows.size());
  for (std::size_t f = 0; f < tr.flows.size(); ++f) {
    const auto m = rules.first_match(tr.flows[f]);
    if (!m) throw std::logic_error("make_trace: the default rule must match");
    flow_best[f] = *m;
    flow_frame[f] = frame_for(tr.flows[f]);
  }
  tr.headers.reserve(tr.order.size());
  tr.best.reserve(tr.order.size());
  tr.pcap.link_type = rfipc::net::kLinktypeEthernet;
  tr.pcap.records.reserve(tr.order.size());
  for (std::size_t i = 0; i < tr.order.size(); ++i) {
    const std::uint32_t f = tr.order[i];
    tr.headers.emplace_back(tr.flows[f]);
    tr.best.push_back(flow_best[f]);
    if (rules[flow_best[f]].action.kind == rfipc::ruleset::Action::Kind::kForward) {
      ++tr.forward;
    } else {
      ++tr.drop;
    }
    rfipc::net::PcapRecord rec;
    rec.ts_sec = static_cast<std::uint32_t>(i / 1000000);
    rec.ts_usec = static_cast<std::uint32_t>(i % 1000000);
    rec.frame = flow_frame[f];
    tr.pcap.records.push_back(std::move(rec));
  }
  return tr;
}

double flow_reuse_share(const Trace& trace) {
  if (trace.order.empty()) return 0.0;
  std::vector<unsigned char> seen(trace.flows.size(), 0);
  std::size_t reused = 0;
  for (const std::uint32_t f : trace.order) {
    reused += seen[f];
    seen[f] = 1;
  }
  return static_cast<double>(reused) / static_cast<double>(trace.order.size());
}

std::vector<std::uint8_t> input_bytes(const rfipc::ruleset::RuleSet& rules,
                                      const Trace& trace) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const std::string s = rules[i].to_string();
    out.insert(out.end(), s.begin(), s.end());
    out.push_back('\n');
  }
  const std::vector<std::uint8_t> pcap = rfipc::net::pcap_to_bytes(trace.pcap);
  out.insert(out.end(), pcap.begin(), pcap.end());
  return out;
}

rfipc::runtime::ShardedConfig deployment_config(std::size_t reserved) {
  rfipc::runtime::ShardedConfig cfg;
  cfg.shards = kShards;
  cfg.engine_spec = kEngineSpec;
  cfg.flow_cache_capacity = kCacheSlots;
  cfg.core_budget = 0;
  cfg.reserved_cores = reserved;
  cfg.wait_policy = rfipc::runtime::ShardWorkerPool::WaitPolicy::kBlock;
  return cfg;
}

}  // namespace perfbench
