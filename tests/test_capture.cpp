// The capture data plane: deterministic pcap replay through the
// ring-batched consumer, verdict counters against the reference
// matcher, update coherence, and TPACKET-style block-sliced parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "capture/capture_loop.h"
#include "capture/pcap_source.h"
#include "net/packet_parser.h"
#include "net/pcap.h"
#include "runtime/sharded_classifier.h"
#include "ruleset/generator.h"
#include "ruleset/trace.h"
#include "util/prng.h"

namespace rfipc {
namespace {

ruleset::RuleSet make_rules(std::size_t n = 64, std::uint64_t seed = 2013) {
  return ruleset::generate_firewall(n, seed);
}

/// A deterministic capture: `n` frames for `rules`, every `junk_every`-th
/// record replaced by undecodable bytes (0 = none).
net::PcapFile make_capture(const ruleset::RuleSet& rules, std::size_t n,
                           std::uint32_t link_type = net::kLinktypeEthernet,
                           std::size_t junk_every = 0) {
  ruleset::TraceConfig tcfg;
  tcfg.size = n;
  tcfg.seed = 7;
  const auto trace = ruleset::generate_trace(rules, tcfg);
  net::PcapFile file;
  file.link_type = link_type;
  util::Xoshiro256 rng(17);
  for (std::size_t i = 0; i < n; ++i) {
    net::PcapRecord rec;
    rec.ts_sec = 1'700'000'000 + static_cast<std::uint32_t>(i / 100);
    rec.ts_usec = static_cast<std::uint32_t>((i % 100) * 10000);
    if (junk_every != 0 && (i + 1) % junk_every == 0) {
      rec.frame.resize(10 + rng.below(30));
      for (auto& b : rec.frame) b = static_cast<std::uint8_t>(rng());
    } else {
      rec.frame = net::build_frame(trace[i], link_type);
    }
    file.records.push_back(std::move(rec));
  }
  return file;
}

/// Reference verdict counts computed straight from the capture with
/// RuleSet::first_match — what the loop's counters must reproduce.
struct Reference {
  std::uint64_t parse_failures = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped = 0;
};
Reference reference_verdicts(const net::PcapFile& file,
                             const ruleset::RuleSet& rules) {
  Reference ref;
  for (const auto& rec : file.records) {
    const auto p = net::parse_frame(rec.frame, file.link_type);
    if (!p.ok()) {
      ++ref.parse_failures;
      ++ref.dropped;
      continue;
    }
    const auto best = rules.first_match(p.tuple);
    const bool fwd = best.has_value() &&
                     rules[*best].action.kind == ruleset::Action::Kind::kForward;
    fwd ? ++ref.forwarded : ++ref.dropped;
  }
  return ref;
}

runtime::ShardedClassifier make_engine(const ruleset::RuleSet& rules) {
  runtime::ShardedConfig cfg;
  cfg.shards = 1;
  return runtime::ShardedClassifier(rules, cfg);
}

TEST(PcapReplaySource, PartitionCoversEveryFrameExactlyOnce) {
  const auto rules = make_rules();
  const auto file = make_capture(rules, 257);
  for (const std::size_t rings : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    capture::PcapReplayConfig cfg;
    cfg.rings = rings;
    capture::PcapReplaySource src(file, cfg);
    EXPECT_EQ(src.ring_count(), rings);
    std::size_t total = 0;
    for (std::size_t r = 0; r < rings; ++r) total += src.ring_frames(r);
    EXPECT_EQ(total, file.records.size()) << rings << " rings";
  }
}

TEST(PcapReplaySource, FlowsAreRingStable) {
  // 8 distinct flows, each repeated 32 times: every flow must land on
  // exactly one ring (the software analogue of PACKET_FANOUT_HASH).
  const auto rules = make_rules();
  const auto base = make_capture(rules, 8);
  net::PcapFile file;
  for (std::size_t rep = 0; rep < 32; ++rep) {
    for (const auto& rec : base.records) file.records.push_back(rec);
  }
  capture::PcapReplayConfig cfg;
  cfg.rings = 4;
  capture::PcapReplaySource src(file, cfg);

  std::map<std::string, std::set<std::size_t>> flow_rings;
  std::vector<capture::FrameView> views(16);
  for (std::size_t r = 0; r < 4; ++r) {
    std::size_t n;
    while ((n = src.next_batch(r, views)) > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto b = views[i].bytes();
        flow_rings[std::string(b.begin(), b.end())].insert(r);
      }
    }
  }
  EXPECT_EQ(flow_rings.size(), 8u);
  for (const auto& [frame, rings] : flow_rings) {
    EXPECT_EQ(rings.size(), 1u) << "flow split across rings";
  }
}

TEST(PcapReplaySource, ExhaustionIsSticky) {
  // Regression: after the final pass wrapped, another next_batch call
  // must NOT start an extra pass.
  const auto rules = make_rules();
  const auto file = make_capture(rules, 10);
  capture::PcapReplayConfig cfg;
  cfg.loops = 2;
  capture::PcapReplaySource src(file, cfg);
  std::vector<capture::FrameView> views(64);
  std::size_t total = 0;
  std::size_t n;
  while ((n = src.next_batch(0, views)) > 0) total += n;
  EXPECT_EQ(total, 20u);
  EXPECT_TRUE(src.exhausted(0));
  EXPECT_EQ(src.next_batch(0, views), 0u);  // stays exhausted
  EXPECT_EQ(src.next_batch(0, views), 0u);
}

TEST(PcapReplaySource, MoreRingsThanFramesTerminates) {
  const auto rules = make_rules();
  const auto file = make_capture(rules, 2);
  capture::PcapReplayConfig cfg;
  cfg.rings = 6;
  capture::PcapReplaySource src(file, cfg);
  const auto engine = make_engine(rules);
  capture::CaptureLoop loop(src, engine, rules);
  EXPECT_EQ(loop.run(), 2u);
}

TEST(PcapReplaySource, EmptyCaptureIsExhaustedImmediately) {
  net::PcapFile file;
  capture::PcapReplaySource src(file);
  EXPECT_TRUE(src.exhausted(0));
  std::vector<capture::FrameView> views(4);
  EXPECT_EQ(src.next_batch(0, views), 0u);
}

TEST(PcapReplaySource, PacedReplayFollowsTimestamps) {
  net::PcapFile file;
  const auto rules = make_rules();
  const auto base = make_capture(rules, 2);
  file.records = base.records;
  file.records[1].ts_sec = file.records[0].ts_sec;
  file.records[1].ts_usec = file.records[0].ts_usec + 60000;  // +60ms
  capture::PcapReplayConfig cfg;
  cfg.paced = true;
  capture::PcapReplaySource src(file, cfg);
  std::vector<capture::FrameView> views(8);
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t total = 0;
  std::size_t n;
  while ((n = src.next_batch(0, views)) > 0) total += n;
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(total, 2u);
  EXPECT_GE(elapsed, std::chrono::milliseconds(50));
}

TEST(CaptureLoop, CountersMatchReferenceVerdicts) {
  const auto rules = make_rules();
  const auto engine = make_engine(rules);
  for (const std::uint32_t link : {net::kLinktypeEthernet, net::kLinktypeRaw,
                                   net::kLinktypeNull}) {
    const auto file = make_capture(rules, 300, link, /*junk_every=*/11);
    const auto ref = reference_verdicts(file, rules);
    ASSERT_GT(ref.parse_failures, 0u);

    capture::PcapReplayConfig cfg;
    cfg.rings = 3;
    capture::PcapReplaySource src(file, cfg);
    capture::CaptureLoop loop(src, engine, rules);
    EXPECT_EQ(loop.run(), 300u);

    const runtime::CaptureRing total = loop.counters().total();
    EXPECT_EQ(total.frames, 300u) << "link " << link;
    EXPECT_EQ(total.parse_failures, ref.parse_failures) << "link " << link;
    EXPECT_EQ(total.forwarded, ref.forwarded) << "link " << link;
    EXPECT_EQ(total.dropped, ref.dropped) << "link " << link;
    EXPECT_EQ(total.overruns, 0u);
  }
}

TEST(CaptureLoop, ReplayIsDeterministic) {
  const auto rules = make_rules();
  const auto engine = make_engine(rules);
  const auto file = make_capture(rules, 500, net::kLinktypeEthernet, 13);
  auto run_once = [&] {
    capture::PcapReplayConfig cfg;
    cfg.rings = 2;
    cfg.loops = 3;
    capture::PcapReplaySource src(file, cfg);
    capture::CaptureLoop loop(src, engine, rules);
    loop.run();
    return loop.counters();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.rings.size(), b.rings.size());
  for (std::size_t r = 0; r < a.rings.size(); ++r) {
    EXPECT_EQ(a.rings[r].frames, b.rings[r].frames);
    EXPECT_EQ(a.rings[r].batches, b.rings[r].batches);
    EXPECT_EQ(a.rings[r].forwarded, b.rings[r].forwarded);
    EXPECT_EQ(a.rings[r].dropped, b.rings[r].dropped);
    EXPECT_EQ(a.rings[r].parse_failures, b.rings[r].parse_failures);
  }
  EXPECT_EQ(a.total().frames, 3u * 500u);
}

TEST(CaptureLoop, LoopsMultiplyCounters) {
  const auto rules = make_rules();
  const auto engine = make_engine(rules);
  const auto file = make_capture(rules, 100);
  const auto ref = reference_verdicts(file, rules);
  capture::PcapReplayConfig cfg;
  cfg.loops = 4;
  capture::PcapReplaySource src(file, cfg);
  capture::CaptureLoop loop(src, engine, rules);
  EXPECT_EQ(loop.run(), 400u);
  const auto total = loop.counters().total();
  EXPECT_EQ(total.forwarded, 4u * ref.forwarded);
  EXPECT_EQ(total.dropped, 4u * ref.dropped);
}

TEST(CaptureLoop, StartStopIsResponsiveOnEndlessReplay) {
  const auto rules = make_rules();
  const auto engine = make_engine(rules);
  const auto file = make_capture(rules, 64);
  capture::PcapReplayConfig cfg;
  cfg.rings = 2;
  cfg.loops = 0;  // endless
  capture::PcapReplaySource src(file, cfg);
  capture::CaptureLoop loop(src, engine, rules);
  loop.start();
  loop.start();  // idempotent
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  loop.stop();
  EXPECT_GT(loop.counters().total().frames, 0u);
  const auto frozen = loop.counters().total().frames;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(loop.counters().total().frames, frozen);  // really stopped
}

TEST(CaptureLoop, PublishVerdictsFlipsActions) {
  const auto rules = make_rules();
  const auto engine = make_engine(rules);
  const auto file = make_capture(rules, 200);
  const auto ref = reference_verdicts(file, rules);
  ASSERT_GT(ref.forwarded, 0u);

  // Same match results, every action flipped to drop: the verdict
  // table alone must turn every reference forward into a drop.
  std::vector<ruleset::Rule> flipped(rules.begin(), rules.end());
  for (auto& r : flipped) r.action.kind = ruleset::Action::Kind::kDrop;

  capture::PcapReplaySource src(file);
  capture::CaptureLoop loop(src, engine, rules);
  loop.publish_verdicts(ruleset::RuleSet(std::move(flipped)));
  loop.run();
  const auto total = loop.counters().total();
  EXPECT_EQ(total.forwarded, 0u);
  EXPECT_EQ(total.dropped, 200u);
}

TEST(CaptureLoop, DefaultForwardAppliesToUnmatchedFrames) {
  // One rule no trace packet can hit (protocol 201): every frame is
  // unmatched, so the default policy decides — permissive taps forward
  // all, inline firewalls (the default) drop all.
  ruleset::Rule unhittable = ruleset::Rule::any();
  unhittable.protocol = net::ProtocolSpec::exactly(std::uint8_t{201});
  const ruleset::RuleSet empty(std::vector<ruleset::Rule>{unhittable});
  const auto engine = make_engine(empty);
  const auto gen_rules = make_rules();
  const auto file = make_capture(gen_rules, 50);
  for (const bool permissive : {false, true}) {
    capture::PcapReplaySource src(file);
    capture::CaptureLoopConfig cfg;
    cfg.default_forward = permissive;
    capture::CaptureLoop loop(src, engine, empty, cfg);
    loop.run();
    const auto total = loop.counters().total();
    EXPECT_EQ(total.forwarded, permissive ? 50u : 0u);
    EXPECT_EQ(total.dropped, permissive ? 0u : 50u);
  }
}

TEST(CaptureLoop, WinnerBeyondVerdictTableFollowsDefault) {
  // The engine still classifies against all 64 rules while the verdict
  // table was published from the first 8 (an update raced the batch):
  // winners 0..7 take their own action, winners 8.. and unmatched
  // frames take the default policy.
  const auto rules = make_rules();
  const auto engine = make_engine(rules);
  const auto file = make_capture(rules, 400, net::kLinktypeEthernet, 9);
  const std::size_t kept = 8;
  const ruleset::RuleSet shorter(
      std::vector<ruleset::Rule>(rules.begin(), rules.begin() + kept));

  std::uint64_t in_table = 0, in_table_fwd = 0, beyond = 0, failures = 0;
  for (const auto& rec : file.records) {
    const auto p = net::parse_frame(rec.frame, file.link_type);
    if (!p.ok()) {
      ++failures;
      continue;
    }
    const auto best = rules.first_match(p.tuple);
    if (best.has_value() && *best < kept) {
      ++in_table;
      in_table_fwd += shorter[*best].action.kind == ruleset::Action::Kind::kForward;
    } else {
      ++beyond;
    }
  }
  ASSERT_GT(in_table, 0u);
  ASSERT_GT(beyond, 0u);
  ASSERT_GT(failures, 0u);

  for (const bool permissive : {false, true}) {
    capture::PcapReplaySource src(file);
    capture::CaptureLoopConfig cfg;
    cfg.default_forward = permissive;
    capture::CaptureLoop loop(src, engine, rules, cfg);
    loop.publish_verdicts(shorter);
    loop.run();
    const auto total = loop.counters().total();
    const std::uint64_t forwarded = in_table_fwd + (permissive ? beyond : 0);
    EXPECT_EQ(total.parse_failures, failures);
    EXPECT_EQ(total.forwarded, forwarded) << "default_forward " << permissive;
    EXPECT_EQ(total.dropped, 400u - forwarded) << "default_forward " << permissive;
  }
}

TEST(CaptureLoop, MixedProtocolsAndFragmentsMatchReference) {
  // TCP, UDP, ICMP and non-first fragments interleaved frame by frame,
  // with junk: the per-frame path has no protocol or verdict branch,
  // so a mix must count exactly like the reference.
  const auto rules = make_rules();
  const auto engine = make_engine(rules);
  ruleset::TraceConfig tcfg;
  tcfg.size = 600;
  tcfg.seed = 11;
  const auto trace = ruleset::generate_trace(rules, tcfg);
  const std::uint8_t protos[] = {6, 17, 1};
  for (const std::uint32_t link : {net::kLinktypeEthernet, net::kLinktypeRaw,
                                   net::kLinktypeNull}) {
    net::PcapFile file;
    file.link_type = link;
    util::Xoshiro256 rng(23);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      net::FiveTuple t = trace[i];
      if (rng.chance(1, 3)) t.protocol = protos[rng.below(3)];
      net::BuildOptions opt;
      opt.fragment = rng.chance(1, 6);
      opt.payload_len = rng.below(24);
      net::PcapRecord rec;
      rec.frame = net::build_frame(t, link, opt);
      if (rng.chance(1, 20)) rec.frame.resize(rng.below(rec.frame.size()));
      file.records.push_back(std::move(rec));
    }
    const auto ref = reference_verdicts(file, rules);
    ASSERT_GT(ref.parse_failures, 0u);
    ASSERT_GT(ref.forwarded, 0u);

    capture::PcapReplayConfig cfg;
    cfg.rings = 2;
    capture::PcapReplaySource src(file, cfg);
    capture::CaptureLoopConfig lcfg;
    lcfg.batch_size = 64;
    capture::CaptureLoop loop(src, engine, rules, lcfg);
    EXPECT_EQ(loop.run(), trace.size());
    const auto total = loop.counters().total();
    EXPECT_EQ(total.parse_failures, ref.parse_failures) << "link " << link;
    EXPECT_EQ(total.forwarded, ref.forwarded) << "link " << link;
    EXPECT_EQ(total.dropped, ref.dropped) << "link " << link;
  }
}

TEST(CaptureLoop, TinyBatchSizeStillCorrect) {
  const auto rules = make_rules();
  const auto engine = make_engine(rules);
  const auto file = make_capture(rules, 97, net::kLinktypeEthernet, 9);
  const auto ref = reference_verdicts(file, rules);
  capture::PcapReplaySource src(file);
  capture::CaptureLoopConfig cfg;
  cfg.batch_size = 1;
  capture::CaptureLoop loop(src, engine, rules, cfg);
  loop.run();
  const auto total = loop.counters().total();
  EXPECT_EQ(total.frames, 97u);
  EXPECT_EQ(total.batches, 97u);
  EXPECT_EQ(total.forwarded, ref.forwarded);
  EXPECT_EQ(total.dropped, ref.dropped);
}

TEST(CaptureCounters, WireJsonCarriesCaptureBlock) {
  const auto rules = make_rules();
  const auto engine = make_engine(rules);
  const auto file = make_capture(rules, 30);
  capture::PcapReplaySource src(file);
  capture::CaptureLoop loop(src, engine, rules);
  loop.run();
  runtime::StatsSnapshot snap;
  snap.capture = loop.counters();
  const auto json = snap.to_json();
  EXPECT_NE(json.find("\"capture\""), std::string::npos);
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"frames\":30"), std::string::npos);
  EXPECT_NE(json.find("\"rings\":["), std::string::npos);
}

// ---------------------------------------------------------------------
// TPACKET-style block-sliced input: frames delivered as views into one
// contiguous block at aligned offsets, exactly how AfPacketSource hands
// them to the loop. Parsing a sliced view must agree bit-for-bit with
// parsing the standalone frame, and deliberately damaged slices must
// fail cleanly.
// ---------------------------------------------------------------------

struct Block {
  std::vector<std::uint8_t> bytes;
  std::vector<std::pair<std::size_t, std::size_t>> frames;  // offset, len
};

Block slice_into_block(const std::vector<std::vector<std::uint8_t>>& frames) {
  Block blk;
  blk.bytes.resize(64, 0xEE);  // fake block descriptor
  for (const auto& f : frames) {
    blk.bytes.insert(blk.bytes.end(), f.begin(), f.end());
    blk.frames.emplace_back(blk.bytes.size() - f.size(), f.size());
    // tpacket aligns each frame header to 16 bytes; pad with junk that
    // a correct consumer must never read.
    while (blk.bytes.size() % 16 != 0) blk.bytes.push_back(0xAA);
  }
  return blk;
}

TEST(BlockSliced, DifferentialAgainstStandaloneParse) {
  util::Xoshiro256 rng(4242);
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<net::FiveTuple> tuples;
  for (int i = 0; i < 200; ++i) {
    net::FiveTuple t;
    t.src_ip.value = static_cast<std::uint32_t>(rng());
    t.dst_ip.value = static_cast<std::uint32_t>(rng());
    t.protocol = rng.chance(1, 2) ? 6 : 17;
    t.src_port = static_cast<std::uint16_t>(rng.below(0x10000));
    t.dst_port = static_cast<std::uint16_t>(rng.below(0x10000));
    net::BuildOptions opt;
    opt.payload_len = rng.below(48);
    opt.vlan = rng.chance(1, 3);
    opt.vlan_id = static_cast<std::uint16_t>(rng.below(4096));
    opt.fragment = rng.chance(1, 8);
    frames.push_back(net::build_packet(t, opt));
    tuples.push_back(t);
  }
  const Block blk = slice_into_block(frames);
  ASSERT_EQ(blk.frames.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::span<const std::uint8_t> view(blk.bytes.data() + blk.frames[i].first,
                                             blk.frames[i].second);
    const auto sliced = net::parse_frame(view, net::kLinktypeEthernet);
    const auto standalone = net::parse_packet(frames[i]);
    EXPECT_EQ(sliced.status, standalone.status) << i;
    EXPECT_EQ(sliced.tuple, standalone.tuple) << i;
    EXPECT_EQ(sliced.fragment, standalone.fragment) << i;
  }
}

TEST(BlockSliced, TruncatedAndMisalignedViewsNeverCrash) {
  util::Xoshiro256 rng(777);
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 32; ++i) {
    net::FiveTuple t;
    t.src_ip.value = static_cast<std::uint32_t>(rng());
    t.dst_ip.value = static_cast<std::uint32_t>(rng());
    t.protocol = 6;
    t.src_port = 80;
    t.dst_port = static_cast<std::uint16_t>(rng.below(0x10000));
    net::BuildOptions opt;
    opt.vlan = rng.chance(1, 2);
    frames.push_back(net::build_packet(t, opt));
  }
  const Block blk = slice_into_block(frames);
  // Views snapped (truncated blocks), shifted (bad tp_mac), and
  // over-long (bad tp_snaplen spilling into padding): any status is
  // acceptable, crashing or over-reading is not.
  for (const auto& [off, len] : blk.frames) {
    for (int k = 0; k < 40; ++k) {
      const std::size_t shift = rng.below(8);
      const std::size_t start = off + shift >= blk.bytes.size()
                                    ? blk.bytes.size()
                                    : off + shift;
      std::size_t n = rng.below(len + 24);
      n = std::min(n, blk.bytes.size() - start);
      (void)net::parse_frame({blk.bytes.data() + start, n},
                             net::kLinktypeEthernet);
    }
  }
  SUCCEED();
}

TEST(BlockSliced, CaptureLoopOverBlockViewsMatchesPcapReplay) {
  // The same frames fed once as block-backed views (AF_PACKET shape)
  // and once through PcapReplaySource must produce identical verdicts.
  const auto rules = make_rules();
  const auto engine = make_engine(rules);
  const auto file = make_capture(rules, 120, net::kLinktypeEthernet, 17);

  std::vector<std::vector<std::uint8_t>> raw;
  for (const auto& rec : file.records) raw.push_back(rec.frame);
  const Block blk = slice_into_block(raw);

  /// Minimal source handing out views into the block, one pass.
  class BlockSource final : public capture::CaptureSource {
   public:
    explicit BlockSource(const Block& b) : blk_(b) {}
    std::string describe() const override { return "block"; }
    std::size_t ring_count() const override { return 1; }
    std::uint32_t link_type() const override { return net::kLinktypeEthernet; }
    std::size_t next_batch(std::size_t,
                           std::span<capture::FrameView> out) override {
      std::size_t n = 0;
      while (n < out.size() && pos_ < blk_.frames.size()) {
        out[n].data = blk_.bytes.data() + blk_.frames[pos_].first;
        out[n].len = static_cast<std::uint32_t>(blk_.frames[pos_].second);
        ++n;
        ++pos_;
      }
      return n;
    }
    bool exhausted(std::size_t) const override {
      return pos_ >= blk_.frames.size();
    }
    std::uint64_t overruns(std::size_t) const override { return 0; }
    void stop() override {}

   private:
    const Block& blk_;
    std::size_t pos_ = 0;
  };

  BlockSource bsrc(blk);
  capture::CaptureLoop bloop(bsrc, engine, rules);
  bloop.run();

  capture::PcapReplaySource psrc(file);
  capture::CaptureLoop ploop(psrc, engine, rules);
  ploop.run();

  const auto bt = bloop.counters().total();
  const auto pt = ploop.counters().total();
  EXPECT_EQ(bt.frames, pt.frames);
  EXPECT_EQ(bt.parse_failures, pt.parse_failures);
  EXPECT_EQ(bt.forwarded, pt.forwarded);
  EXPECT_EQ(bt.dropped, pt.dropped);
}

TEST(CapturePcap, NonEthernetLinkTypesRoundTripThroughPcap) {
  const auto rules = make_rules();
  for (const std::uint32_t link : {net::kLinktypeRaw, net::kLinktypeNull}) {
    const auto file = make_capture(rules, 40, link);
    const auto bytes = net::pcap_to_bytes(file);
    const auto loaded = net::pcap_from_bytes(bytes);
    ASSERT_EQ(loaded.link_type, link);
    ASSERT_EQ(loaded.records.size(), 40u);
    const auto ref = reference_verdicts(file, rules);
    const auto ref2 = reference_verdicts(loaded, rules);
    EXPECT_EQ(ref.forwarded, ref2.forwarded);
    EXPECT_EQ(ref.dropped, ref2.dropped);
    EXPECT_EQ(ref.parse_failures, 0u);
  }
}

}  // namespace
}  // namespace rfipc
