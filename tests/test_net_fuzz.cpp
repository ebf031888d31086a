// Corpus-driven robustness sweep over the wire-facing layer.
//
// The packet parser and the pcap reader sit in front of everything else
// — they consume attacker-controlled bytes, so they must never crash,
// never read out of bounds (run this under ASan/UBSan via
// scripts/check.sh), and fail with precise statuses. The corpus is a
// set of structurally distinct VALID inputs; each is then subjected to
// systematic truncation at every length, single-byte corruption at
// every offset, and seeded random mutation. Every frame sweep is also
// differential: parse_key must return parse_frame's status under every
// link type and, on kOk, the key parse_frame's tuple packs to.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "net/packet_parser.h"
#include "net/pcap.h"
#include "util/prng.h"

namespace rfipc::net {
namespace {

FiveTuple corpus_tuple(std::uint8_t protocol) {
  FiveTuple t;
  t.src_ip = *Ipv4Addr::parse("10.0.0.1");
  t.dst_ip = *Ipv4Addr::parse("192.168.1.200");
  t.protocol = protocol;
  if (protocol == 6 || protocol == 17) {
    t.src_port = 40000;
    t.dst_port = 443;
  }
  return t;
}

/// Splices an 802.1ad outer tag in front of an existing frame's tag /
/// EtherType, producing a double-tagged (QinQ) frame.
std::vector<std::uint8_t> add_outer_tag(std::vector<std::uint8_t> frame) {
  const std::uint8_t tag[4] = {0x88, 0xa8, 0x00, 0x05};
  frame.insert(frame.begin() + 12, tag, tag + 4);
  return frame;
}

/// Structurally diverse valid frames: protocols, tags, fragments,
/// payload sizes (including zero).
std::vector<std::vector<std::uint8_t>> frame_corpus() {
  std::vector<std::vector<std::uint8_t>> corpus;
  for (const std::uint8_t proto : {std::uint8_t{6}, std::uint8_t{17}, std::uint8_t{1}}) {
    for (const std::size_t payload : {std::size_t{0}, std::size_t{16}, std::size_t{64}}) {
      BuildOptions opt;
      opt.payload_len = payload;
      corpus.push_back(build_packet(corpus_tuple(proto), opt));
      opt.vlan = true;
      opt.vlan_id = 7;
      corpus.push_back(build_packet(corpus_tuple(proto), opt));
      corpus.push_back(add_outer_tag(corpus.back()));
    }
  }
  BuildOptions frag;
  frag.fragment = true;
  corpus.push_back(build_packet(corpus_tuple(6), frag));
  return corpus;
}

struct LinkFrame {
  std::uint32_t link_type;
  std::vector<std::uint8_t> bytes;
};

/// frame_corpus() as Ethernet, plus the same protocol/fragment/payload
/// spread framed as LINKTYPE_RAW and LINKTYPE_NULL.
std::vector<LinkFrame> link_corpus() {
  std::vector<LinkFrame> corpus;
  for (auto& frame : frame_corpus()) {
    corpus.push_back({kLinktypeEthernet, std::move(frame)});
  }
  for (const std::uint32_t link : {kLinktypeRaw, kLinktypeNull}) {
    for (const std::uint8_t proto : {std::uint8_t{6}, std::uint8_t{17}, std::uint8_t{1}}) {
      for (const bool fragment : {false, true}) {
        BuildOptions opt;
        opt.payload_len = fragment ? 8 : 0;
        opt.fragment = fragment;
        corpus.push_back({link, build_frame(corpus_tuple(proto), link, opt)});
      }
    }
  }
  return corpus;
}

/// parse_key against parse_frame on one input, under every link type
/// (the frame's own and the ones that misread it): the same status,
/// and on kOk exactly the key parse_frame's tuple packs to. The key
/// starts as a non-zero pattern so a byte parse_key forgot to write
/// shows up. Returns how many link types parsed the input.
int expect_key_agrees(std::span<const std::uint8_t> frame) {
  std::array<std::uint8_t, 13> pattern;
  pattern.fill(0xa5);
  int ok = 0;
  for (const std::uint32_t link :
       {kLinktypeEthernet, kLinktypeRaw, kLinktypeNull, std::uint32_t{105}}) {
    const ParsedPacket p = parse_frame(frame, link);
    HeaderBits key = HeaderBits::from_bytes(pattern);
    EXPECT_EQ(parse_key(frame, link, key), p.status)
        << "link " << link << " len " << frame.size();
    if (p.ok()) {
      EXPECT_EQ(key, HeaderBits(p.tuple)) << "link " << link;
      ++ok;
    }
  }
  return ok;
}

/// An exact-size heap copy, so ASan flags any read past the frame.
std::vector<std::uint8_t> exact_copy(std::span<const std::uint8_t> bytes) {
  return {bytes.begin(), bytes.end()};
}

std::vector<std::vector<std::uint8_t>> pcap_corpus() {
  std::vector<std::vector<std::uint8_t>> corpus;
  for (const int packets : {0, 1, 5}) {
    PcapFile f;
    for (int i = 0; i < packets; ++i) {
      PcapRecord r;
      r.ts_sec = 1700000000u + static_cast<std::uint32_t>(i);
      r.ts_usec = static_cast<std::uint32_t>(i);
      BuildOptions opt;
      opt.payload_len = static_cast<std::size_t>(i) * 11;
      r.frame = build_packet(corpus_tuple(i % 2 == 0 ? 6 : 17), opt);
      f.records.push_back(std::move(r));
    }
    corpus.push_back(pcap_to_bytes(f));
  }
  return corpus;
}

TEST(NetFuzz, CorpusFramesAreValidAndQinQParses) {
  for (const auto& frame : frame_corpus()) {
    const auto p = parse_packet(frame);
    ASSERT_TRUE(p.ok()) << parse_status_name(p.status);
    EXPECT_EQ(p.tuple.src_ip.value, corpus_tuple(6).src_ip.value);
  }
  // Double-tagged TCP frame keeps its ports and pushes payload out 8B.
  BuildOptions opt;
  opt.vlan = true;
  const auto qinq = add_outer_tag(build_packet(corpus_tuple(6), opt));
  const auto p = parse_packet(qinq);
  ASSERT_TRUE(p.ok()) << parse_status_name(p.status);
  EXPECT_EQ(p.tuple, corpus_tuple(6));
  EXPECT_EQ(p.payload_offset, 14u + 8u + 20u);
  // A third stacked tag is beyond the supported depth: rejected, not
  // misparsed.
  EXPECT_EQ(parse_packet(add_outer_tag(qinq)).status,
            ParseStatus::kUnsupportedEtherType);
}

TEST(NetFuzz, EveryTruncationOfEveryFrameFailsCleanly) {
  for (const auto& [link, frame] : link_corpus()) {
    EXPECT_GE(expect_key_agrees(frame), 1) << "link " << link;
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const auto cut = exact_copy({frame.data(), len});
      // build_frame emits frames with no trailing padding, so any
      // truncation must be detected.
      EXPECT_FALSE(parse_frame(cut, link).ok())
          << "link " << link << " len " << len << " of " << frame.size();
      expect_key_agrees(cut);
    }
  }
}

TEST(NetFuzz, EverySingleByteCorruptionOfEveryFrameIsContained) {
  for (const auto& [link, frame] : link_corpus()) {
    for (std::size_t off = 0; off < frame.size(); ++off) {
      for (const std::uint8_t patch : {std::uint8_t{0x00}, std::uint8_t{0xff}}) {
        auto bad = frame;
        if (bad[off] == patch) continue;
        bad[off] = patch;
        expect_key_agrees(bad);  // any status; must not crash or overread
      }
    }
  }
}

TEST(NetFuzz, EveryTruncationOfEveryPcapSalvagesCompleteRecords) {
  for (const auto& bytes : pcap_corpus()) {
    const auto full = try_pcap_from_bytes(bytes);
    ASSERT_TRUE(full.ok) << full.error;
    // Lengths at which the byte stream is a complete (shorter) capture:
    // the global header, then the end of each record.
    std::vector<std::size_t> boundaries{24};
    for (const auto& rec : full.file.records) {
      boundaries.push_back(boundaries.back() + 16 + rec.frame.size());
    }
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::vector<std::uint8_t> cut(
          bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
      const auto r = try_pcap_from_bytes(cut);
      const bool at_boundary =
          std::find(boundaries.begin(), boundaries.end(), len) != boundaries.end();
      EXPECT_EQ(r.ok, at_boundary) << len;
      EXPECT_EQ(r.error.empty(), at_boundary) << len;
      // Salvage: only complete earlier records, byte-identical to the
      // originals, never more than the original file held.
      EXPECT_LE(r.file.records.size(), full.file.records.size()) << len;
      for (std::size_t i = 0; i < r.file.records.size(); ++i) {
        EXPECT_EQ(r.file.records[i].frame, full.file.records[i].frame);
      }
    }
  }
}

TEST(NetFuzz, TruncatedTailKeepsEarlierPackets) {
  const auto bytes = pcap_corpus().back();  // 5 records
  const auto full = try_pcap_from_bytes(bytes);
  ASSERT_EQ(full.file.records.size(), 5u);
  // Cut into the middle of the last record's frame.
  std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 3);
  const auto r = try_pcap_from_bytes(cut);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.file.records.size(), 4u);
  EXPECT_THROW(pcap_from_bytes(cut), std::runtime_error);
}

TEST(NetFuzz, SeededRandomMutationsNeverCrash) {
  util::Xoshiro256 rng(2026);
  const auto frames = link_corpus();
  const auto pcaps = pcap_corpus();
  int parsed = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    auto frame = frames[rng.below(frames.size())].bytes;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      frame[rng.below(frame.size())] = static_cast<std::uint8_t>(rng());
    }
    if (rng.chance(1, 4)) frame.resize(rng.below(frame.size() + 1));
    parsed += expect_key_agrees(exact_copy(frame));
  }
  // Many mutants land in payload or address bytes and still parse, so
  // parse_key's key is compared, not only its status.
  EXPECT_GT(parsed, 1000);
  for (int iter = 0; iter < 1000; ++iter) {
    auto bytes = pcaps[rng.below(pcaps.size())];
    const std::size_t flips = 1 + rng.below(8);
    for (std::size_t f = 0; f < flips && !bytes.empty(); ++f) {
      bytes[rng.below(bytes.size())] = static_cast<std::uint8_t>(rng());
    }
    const auto r = try_pcap_from_bytes(bytes);  // must never throw
    if (!r.ok) {
      EXPECT_FALSE(r.error.empty());
    }
  }
}

TEST(NetFuzz, RandomGarbageNeverCrashes) {
  util::Xoshiro256 rng(31337);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<std::uint8_t> junk(rng.below(192));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    expect_key_agrees(junk);
    const auto r = try_pcap_from_bytes(junk);
    if (r.ok) {
      EXPECT_GE(pcap_to_bytes(r.file).size(), 24u);
    }
  }
}

}  // namespace
}  // namespace rfipc::net
