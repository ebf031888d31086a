#include "net/packet_parser.h"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>

#include "net/pcap.h"
#include "util/prng.h"

namespace rfipc::net {
namespace {

FiveTuple sample_tcp() {
  FiveTuple t;
  t.src_ip = *Ipv4Addr::parse("10.1.2.3");
  t.dst_ip = *Ipv4Addr::parse("192.168.9.8");
  t.src_port = 12345;
  t.dst_port = 443;
  t.protocol = 6;
  return t;
}

TEST(PacketParser, TcpRoundTrip) {
  const auto t = sample_tcp();
  const auto frame = build_packet(t);
  const auto p = parse_packet(frame);
  ASSERT_TRUE(p.ok()) << parse_status_name(p.status);
  EXPECT_EQ(p.tuple, t);
  EXPECT_FALSE(p.fragment);
  EXPECT_EQ(p.payload_offset, 14u + 20u);
}

TEST(PacketParser, UdpRoundTrip) {
  auto t = sample_tcp();
  t.protocol = 17;
  const auto p = parse_packet(build_packet(t));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.tuple, t);
}

TEST(PacketParser, IcmpHasZeroPorts) {
  auto t = sample_tcp();
  t.protocol = 1;
  t.src_port = 0;
  t.dst_port = 0;
  const auto p = parse_packet(build_packet(t));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.tuple.src_port, 0);
  EXPECT_EQ(p.tuple.dst_port, 0);
  EXPECT_EQ(p.tuple.protocol, 1);
}

TEST(PacketParser, VlanTagHandled) {
  const auto t = sample_tcp();
  BuildOptions opt;
  opt.vlan = true;
  opt.vlan_id = 42;
  const auto p = parse_packet(build_packet(t, opt));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.tuple, t);
  EXPECT_EQ(p.payload_offset, 14u + 4u + 20u);
}

TEST(PacketParser, FragmentSkipsTransport) {
  auto t = sample_tcp();
  BuildOptions opt;
  opt.fragment = true;
  const auto p = parse_packet(build_packet(t, opt));
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.fragment);
  EXPECT_EQ(p.tuple.src_port, 0);   // no L4 header on later fragments
  EXPECT_EQ(p.tuple.dst_port, 0);
  EXPECT_EQ(p.tuple.src_ip, t.src_ip);
  EXPECT_EQ(p.tuple.protocol, 6);
}

TEST(PacketParser, TruncationStatuses) {
  const auto full = build_packet(sample_tcp());
  // Sweep every truncation length: each must fail cleanly with a
  // sensible status, never crash.
  for (std::size_t len = 0; len < full.size(); ++len) {
    const auto p =
        parse_packet(std::span<const std::uint8_t>(full.data(), len));
    if (len < 14) {
      EXPECT_EQ(p.status, ParseStatus::kTruncatedEthernet) << len;
    } else {
      EXPECT_FALSE(p.ok()) << len;
    }
  }
  EXPECT_TRUE(parse_packet(full).ok());
}

TEST(PacketParser, RejectsNonIpv4) {
  auto frame = build_packet(sample_tcp());
  frame[12] = 0x86;  // EtherType -> IPv6
  frame[13] = 0xDD;
  EXPECT_EQ(parse_packet(frame).status, ParseStatus::kUnsupportedEtherType);
}

TEST(PacketParser, RejectsBadVersionAndIhl) {
  auto frame = build_packet(sample_tcp());
  frame[14] = 0x65;  // version 6
  EXPECT_EQ(parse_packet(frame).status, ParseStatus::kBadIpVersion);
  frame[14] = 0x44;  // version 4, IHL 4 (< 5)
  EXPECT_EQ(parse_packet(frame).status, ParseStatus::kBadIpHeaderLength);
}

TEST(PacketParser, RejectsBadTotalLength) {
  auto frame = build_packet(sample_tcp());
  frame[16] = 0xff;  // total length way beyond the buffer
  frame[17] = 0xff;
  EXPECT_EQ(parse_packet(frame).status, ParseStatus::kBadIpTotalLength);
}

TEST(PacketParser, RandomizedRoundTrip) {
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 300; ++i) {
    FiveTuple t;
    t.src_ip.value = static_cast<std::uint32_t>(rng());
    t.dst_ip.value = static_cast<std::uint32_t>(rng());
    t.protocol = rng.chance(1, 2) ? 6 : 17;
    t.src_port = static_cast<std::uint16_t>(rng.below(0x10000));
    t.dst_port = static_cast<std::uint16_t>(rng.below(0x10000));
    BuildOptions opt;
    opt.payload_len = rng.below(64);
    opt.vlan = rng.chance(1, 4);
    const auto p = parse_packet(build_packet(t, opt));
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.tuple, t);
  }
}

TEST(PacketParser, FuzzRandomBytesNeverCrash) {
  util::Xoshiro256 rng(1234);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> junk(rng.below(120));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    (void)parse_packet(junk);  // any status, no crash
  }
}

TEST(PacketParser, StatusNames) {
  EXPECT_STREQ(parse_status_name(ParseStatus::kOk), "ok");
  EXPECT_STREQ(parse_status_name(ParseStatus::kTruncatedTransport),
               "truncated-transport");
  EXPECT_STREQ(parse_status_name(ParseStatus::kTruncatedLink),
               "truncated-link");
  EXPECT_STREQ(parse_status_name(ParseStatus::kUnsupportedFamily),
               "unsupported-family");
  EXPECT_STREQ(parse_status_name(ParseStatus::kUnsupportedLinkType),
               "unsupported-linktype");
}

// --- link-type aware parse/build (pcap LINKTYPE_* corpus) ---

TEST(ParseFrame, EthernetDelegatesToParsePacket) {
  const auto t = sample_tcp();
  BuildOptions opt;
  opt.vlan = true;
  opt.vlan_id = 7;
  const auto frame = build_frame(t, kLinktypeEthernet, opt);
  EXPECT_EQ(frame, build_packet(t, opt));
  const auto p = parse_frame(frame, kLinktypeEthernet);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.tuple, t);
}

TEST(ParseFrame, RawRoundTrip) {
  const auto t = sample_tcp();
  const auto frame = build_frame(t, kLinktypeRaw);
  // LINKTYPE_RAW starts straight at the IPv4 header.
  EXPECT_EQ(frame[0] >> 4, 4);
  const auto p = parse_frame(frame, kLinktypeRaw);
  ASSERT_TRUE(p.ok()) << parse_status_name(p.status);
  EXPECT_EQ(p.tuple, t);
  EXPECT_EQ(p.payload_offset, 20u);  // transport starts after bare IP
}

TEST(ParseFrame, RawFragmentAndUdp) {
  auto t = sample_tcp();
  t.protocol = 17;
  BuildOptions opt;
  opt.fragment = true;
  const auto p = parse_frame(build_frame(t, kLinktypeRaw, opt), kLinktypeRaw);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.fragment);
  EXPECT_EQ(p.tuple.src_port, 0);
  EXPECT_EQ(p.tuple.src_ip, t.src_ip);
}

TEST(ParseFrame, NullRoundTrip) {
  const auto t = sample_tcp();
  const auto frame = build_frame(t, kLinktypeNull);
  // 4-byte AF_INET word precedes the IP header (builder writes LE).
  EXPECT_EQ(frame[0], 2);
  const auto p = parse_frame(frame, kLinktypeNull);
  ASSERT_TRUE(p.ok()) << parse_status_name(p.status);
  EXPECT_EQ(p.tuple, t);
  EXPECT_EQ(p.payload_offset, 4u + 20u);  // AF word + IP, transport next
}

TEST(ParseFrame, NullAcceptsBigEndianFamilyWord) {
  const auto t = sample_tcp();
  auto frame = build_frame(t, kLinktypeNull);
  // A big-endian capturing host writes 0x00000002 as 00 00 00 02.
  frame[0] = 0;
  frame[3] = 2;
  const auto p = parse_frame(frame, kLinktypeNull);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.tuple, t);
}

TEST(ParseFrame, NullRejectsWrongFamilyAndTruncation) {
  const auto t = sample_tcp();
  auto frame = build_frame(t, kLinktypeNull);
  frame[0] = 10;  // AF_INET6 on Linux
  EXPECT_EQ(parse_frame(frame, kLinktypeNull).status,
            ParseStatus::kUnsupportedFamily);
  for (std::size_t len = 0; len < 4; ++len) {
    EXPECT_EQ(parse_frame({frame.data(), len}, kLinktypeNull).status,
              ParseStatus::kTruncatedLink)
        << len;
  }
}

TEST(ParseFrame, UnsupportedLinkTypeRejected) {
  const auto frame = build_packet(sample_tcp());
  EXPECT_EQ(parse_frame(frame, 105 /*LINKTYPE_IEEE802_11*/).status,
            ParseStatus::kUnsupportedLinkType);
}

TEST(BuildFrame, ThrowsOnUnsupportedLinkType) {
  EXPECT_THROW((void)build_frame(sample_tcp(), 105), std::invalid_argument);
}

TEST(ParseFrame, RandomizedRoundTripAllLinkTypes) {
  util::Xoshiro256 rng(99);
  for (const std::uint32_t link :
       {kLinktypeEthernet, kLinktypeRaw, kLinktypeNull}) {
    for (int i = 0; i < 100; ++i) {
      FiveTuple t;
      t.src_ip.value = static_cast<std::uint32_t>(rng());
      t.dst_ip.value = static_cast<std::uint32_t>(rng());
      t.protocol = rng.chance(1, 2) ? 6 : 17;
      t.src_port = static_cast<std::uint16_t>(rng.below(0x10000));
      t.dst_port = static_cast<std::uint16_t>(rng.below(0x10000));
      const auto frame = build_frame(t, link);
      const auto p = parse_frame(frame, link);
      ASSERT_TRUE(p.ok()) << link;
      EXPECT_EQ(p.tuple, t);
      HeaderBits key;
      ASSERT_EQ(parse_key(frame, link, key), ParseStatus::kOk) << link;
      EXPECT_EQ(key, HeaderBits(t));
    }
  }
}

TEST(ParseFrame, FuzzRandomBytesAllLinkTypesNeverCrash) {
  util::Xoshiro256 rng(31337);
  for (int i = 0; i < 1500; ++i) {
    std::vector<std::uint8_t> junk(rng.below(100));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    (void)parse_frame(junk, kLinktypeEthernet);
    (void)parse_frame(junk, kLinktypeRaw);
    (void)parse_frame(junk, kLinktypeNull);
    (void)parse_frame(junk, static_cast<std::uint32_t>(rng.below(300)));
  }
}

// --- parse_key: the same validation, the key copied in wire order ---

/// Prepends an 802.1ad outer tag to an (already 802.1Q-tagged) frame.
std::vector<std::uint8_t> with_outer_tag(std::vector<std::uint8_t> frame) {
  const std::uint8_t tag[4] = {0x88, 0xa8, 0x00, 0x09};
  frame.insert(frame.begin() + 12, tag, tag + 4);
  return frame;
}

struct KeyCase {
  const char* name;
  std::uint32_t link_type;
  std::vector<std::uint8_t> frame;
  FiveTuple expect;  // what the key must pack (ports 0 when absent)
};

std::vector<KeyCase> key_cases() {
  std::vector<KeyCase> cases;
  for (const std::uint8_t proto : {std::uint8_t{6}, std::uint8_t{17}, std::uint8_t{1}}) {
    auto t = sample_tcp();
    t.protocol = proto;
    auto want = t;
    if (proto == 1) want.src_port = want.dst_port = 0;
    auto frag = t;
    frag.src_port = frag.dst_port = 0;
    BuildOptions vlan;
    vlan.vlan = true;
    vlan.vlan_id = 300;
    BuildOptions fragment;
    fragment.fragment = true;
    fragment.payload_len = 24;
    cases.push_back({"ether", kLinktypeEthernet, build_packet(t), want});
    cases.push_back({"vlan", kLinktypeEthernet, build_packet(t, vlan), want});
    cases.push_back({"qinq", kLinktypeEthernet,
                     with_outer_tag(build_packet(t, vlan)), want});
    cases.push_back({"ether-fragment", kLinktypeEthernet,
                     build_packet(t, fragment), frag});
    cases.push_back({"raw", kLinktypeRaw, build_frame(t, kLinktypeRaw), want});
    cases.push_back({"raw-fragment", kLinktypeRaw,
                     build_frame(t, kLinktypeRaw, fragment), frag});
    cases.push_back({"null", kLinktypeNull, build_frame(t, kLinktypeNull), want});
    cases.push_back({"null-fragment", kLinktypeNull,
                     build_frame(t, kLinktypeNull, fragment), frag});
  }
  return cases;
}

TEST(ParseKey, MatchesParseFrameOnEveryLinkTypeProtocolAndFragment) {
  for (const auto& c : key_cases()) {
    const auto p = parse_frame(c.frame, c.link_type);
    ASSERT_TRUE(p.ok()) << c.name << ": " << parse_status_name(p.status);
    HeaderBits key;
    ASSERT_EQ(parse_key(c.frame, c.link_type, key), ParseStatus::kOk) << c.name;
    EXPECT_EQ(key, HeaderBits(p.tuple)) << c.name;
    EXPECT_EQ(key, HeaderBits(c.expect)) << c.name;
    EXPECT_EQ(key.unpack(), c.expect) << c.name;
  }
}

TEST(ParseKey, KeyIsTheFramesOwnFieldBytes) {
  // SIP|DIP at IP+12, SP|DP at the transport header, PRT at IP+9: the
  // canonical key is these 13 bytes in this order, untouched.
  const auto frame = build_packet(sample_tcp());
  HeaderBits key;
  ASSERT_EQ(parse_key(frame, kLinktypeEthernet, key), ParseStatus::kOk);
  const std::size_t l3 = 14;
  const std::size_t l4 = l3 + 20;
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(key.bytes()[i], frame[l3 + 12 + i]);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(key.bytes()[8 + i], frame[l4 + i]);
  EXPECT_EQ(key.bytes()[12], frame[l3 + 9]);
}

TEST(ParseKey, RejectionsMatchParseFrameAndLeaveTheKeyAlone) {
  const auto good = build_packet(sample_tcp());
  auto ipv6 = good;
  ipv6[12] = 0x86;
  ipv6[13] = 0xdd;
  auto version = good;
  version[14] = 0x65;
  auto ihl = good;
  ihl[14] = 0x44;
  auto total = good;
  total[16] = 0xff;
  total[17] = 0xff;
  auto transport = good;  // IP total length leaves 2 of the 4 port bytes
  transport[16] = 0;
  transport[17] = 22;
  auto family = build_frame(sample_tcp(), kLinktypeNull);
  family[0] = 10;
  const std::vector<std::uint8_t> null_short{2, 0};

  const struct {
    std::vector<std::uint8_t> frame;
    std::uint32_t link_type;
    ParseStatus status;
  } cases[] = {
      {{good.begin(), good.begin() + 10}, kLinktypeEthernet,
       ParseStatus::kTruncatedEthernet},
      {ipv6, kLinktypeEthernet, ParseStatus::kUnsupportedEtherType},
      {{good.begin(), good.begin() + 30}, kLinktypeEthernet, ParseStatus::kTruncatedIp},
      {version, kLinktypeEthernet, ParseStatus::kBadIpVersion},
      {ihl, kLinktypeEthernet, ParseStatus::kBadIpHeaderLength},
      {total, kLinktypeEthernet, ParseStatus::kBadIpTotalLength},
      {transport, kLinktypeEthernet, ParseStatus::kTruncatedTransport},
      {null_short, kLinktypeNull, ParseStatus::kTruncatedLink},
      {family, kLinktypeNull, ParseStatus::kUnsupportedFamily},
      {good, 105, ParseStatus::kUnsupportedLinkType},
  };
  std::array<std::uint8_t, 13> pattern;
  pattern.fill(0x5a);
  for (const auto& c : cases) {
    const auto p = parse_frame(c.frame, c.link_type);
    EXPECT_EQ(p.status, c.status) << parse_status_name(c.status);
    EXPECT_EQ(p.tuple, FiveTuple{}) << parse_status_name(c.status);
    EXPECT_EQ(p.payload_offset, 0u) << parse_status_name(c.status);
    HeaderBits key = HeaderBits::from_bytes(pattern);
    EXPECT_EQ(parse_key(c.frame, c.link_type, key), c.status)
        << parse_status_name(c.status);
    EXPECT_EQ(key.bytes(), pattern) << parse_status_name(c.status);
  }
}

}  // namespace
}  // namespace rfipc::net
