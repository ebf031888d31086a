#include "net/packet_parser.h"

#include <array>
#include <cstring>
#include <stdexcept>

#include "net/pcap.h"

namespace rfipc::net {
namespace {

constexpr std::size_t kEthHeader = 14;
constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
constexpr std::uint16_t kEtherTypeVlan = 0x8100;   // 802.1Q
constexpr std::uint16_t kEtherTypeQinQ = 0x88a8;   // 802.1ad outer tag
constexpr std::size_t kMaxVlanTags = 2;

std::uint16_t be16(std::span<const std::uint8_t> b, std::size_t off) {
  return static_cast<std::uint16_t>((b[off] << 8) | b[off + 1]);
}

std::uint32_t be32(std::span<const std::uint8_t> b, std::size_t off) {
  return (static_cast<std::uint32_t>(b[off]) << 24) |
         (static_cast<std::uint32_t>(b[off + 1]) << 16) |
         (static_cast<std::uint32_t>(b[off + 2]) << 8) |
         static_cast<std::uint32_t>(b[off + 3]);
}

void put16(std::vector<std::uint8_t>& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v >> 8));
  b.push_back(static_cast<std::uint8_t>(v));
}

void put32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  b.push_back(static_cast<std::uint8_t>(v >> 24));
  b.push_back(static_cast<std::uint8_t>(v >> 16));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
  b.push_back(static_cast<std::uint8_t>(v));
}

}  // namespace

const char* parse_status_name(ParseStatus s) {
  switch (s) {
    case ParseStatus::kOk:
      return "ok";
    case ParseStatus::kTruncatedEthernet:
      return "truncated-ethernet";
    case ParseStatus::kUnsupportedEtherType:
      return "unsupported-ethertype";
    case ParseStatus::kTruncatedIp:
      return "truncated-ip";
    case ParseStatus::kBadIpVersion:
      return "bad-ip-version";
    case ParseStatus::kBadIpHeaderLength:
      return "bad-ip-ihl";
    case ParseStatus::kBadIpTotalLength:
      return "bad-ip-total-length";
    case ParseStatus::kTruncatedTransport:
      return "truncated-transport";
    case ParseStatus::kTruncatedLink:
      return "truncated-link";
    case ParseStatus::kUnsupportedFamily:
      return "unsupported-family";
    case ParseStatus::kUnsupportedLinkType:
      return "unsupported-linktype";
  }
  return "?";
}

namespace {

/// Where the classifier's fields sit inside one validated frame: the
/// single validation result that both outputs (ParsedPacket and the
/// wire-order key) decode from.
struct Layout {
  ParseStatus status = ParseStatus::kOk;
  std::size_t l3 = 0;  // IPv4 header
  std::size_t l4 = 0;  // transport header (payload for parse_frame)
  bool fragment = false;
  bool ports = false;  // first-fragment TCP/UDP: ports at l4, l4 + 2
};

/// Shared IPv4 + transport validation: `l3` is the byte offset of the
/// IP header inside `frame` (what the link-layer walk produced). Every
/// offset is re-checked against the remaining bytes (size-minus-offset
/// form, which cannot overflow) before it is read. Both validators are
/// inlined into their callers: parse_key runs once per captured frame,
/// and handing a Layout back through memory from a call cost about a
/// nanosecond of it.
[[gnu::always_inline]] inline Layout locate_ipv4(std::span<const std::uint8_t> frame,
                                                 std::size_t l3) {
  if (frame.size() < l3 || frame.size() - l3 < 20) {
    return {.status = ParseStatus::kTruncatedIp};
  }
  const std::uint8_t ver_ihl = frame[l3];
  if ((ver_ihl >> 4) != 4) return {.status = ParseStatus::kBadIpVersion};
  const std::size_t ihl = static_cast<std::size_t>(ver_ihl & 0x0f) * 4;
  if (ihl < 20) return {.status = ParseStatus::kBadIpHeaderLength};
  if (frame.size() - l3 < ihl) return {.status = ParseStatus::kTruncatedIp};
  const std::uint16_t total_len = be16(frame, l3 + 2);
  if (total_len < ihl || frame.size() - l3 < total_len) {
    return {.status = ParseStatus::kBadIpTotalLength};
  }

  Layout at;
  at.l3 = l3;
  at.l4 = l3 + ihl;
  at.fragment = (be16(frame, l3 + 6) & 0x1fff) != 0;
  // Bitwise, not short-circuit: a TCP/UDP/ICMP mix must not steer a
  // branch per frame.
  const std::uint8_t proto = frame[l3 + 9];
  at.ports = (!at.fragment) & ((proto == 6 /*TCP*/) | (proto == 17 /*UDP*/));
  if (at.ports & ((frame.size() - at.l4 < 4) | (total_len - ihl < 4))) {
    return {.status = ParseStatus::kTruncatedTransport};
  }
  return at;
}

/// The one validator behind parse_frame, parse_packet and parse_key:
/// link layer (Ethernet with up to kMaxVlanTags tags, RAW, NULL), then
/// IPv4 and the transport ports.
[[gnu::always_inline]] inline Layout locate(std::span<const std::uint8_t> frame,
                                            std::uint32_t link_type) {
  switch (link_type) {
    case kLinktypeEthernet: {
      if (frame.size() < kEthHeader) return {.status = ParseStatus::kTruncatedEthernet};
      // Walk up to kMaxVlanTags stacked 802.1Q/802.1ad tags (QinQ): each
      // tag pushes the real EtherType 4 bytes further out. Edge captures
      // carry double-tagged traffic, and a parser that chokes on the
      // outer tag silently drops it all.
      std::size_t et_off = 12;
      std::uint16_t ethertype = be16(frame, et_off);
      for (std::size_t tags = 0;
           (ethertype == kEtherTypeVlan || ethertype == kEtherTypeQinQ) &&
           tags < kMaxVlanTags;
           ++tags) {
        if (frame.size() < et_off + 6) return {.status = ParseStatus::kTruncatedEthernet};
        et_off += 4;
        ethertype = be16(frame, et_off);
      }
      if (ethertype != kEtherTypeIpv4) {
        return {.status = ParseStatus::kUnsupportedEtherType};
      }
      return locate_ipv4(frame, et_off + 2);
    }
    case kLinktypeRaw:
      return locate_ipv4(frame, 0);
    case kLinktypeNull: {
      // 4-byte AF family word in the CAPTURING host's byte order:
      // AF_INET (2) reads as 0x00000002 or 0x02000000 depending on
      // which endianness wrote the capture.
      if (frame.size() < 4) return {.status = ParseStatus::kTruncatedLink};
      const std::uint32_t family = static_cast<std::uint32_t>(frame[0]) |
                                   (static_cast<std::uint32_t>(frame[1]) << 8) |
                                   (static_cast<std::uint32_t>(frame[2]) << 16) |
                                   (static_cast<std::uint32_t>(frame[3]) << 24);
      if (family != 2 && family != 0x02000000) {
        return {.status = ParseStatus::kUnsupportedFamily};
      }
      return locate_ipv4(frame, 4);
    }
    default:
      return {.status = ParseStatus::kUnsupportedLinkType};
  }
}

ParsedPacket decode(std::span<const std::uint8_t> frame, const Layout& at) {
  ParsedPacket out;
  out.status = at.status;
  if (at.status != ParseStatus::kOk) return out;
  out.tuple.protocol = frame[at.l3 + 9];
  out.tuple.src_ip.value = be32(frame, at.l3 + 12);
  out.tuple.dst_ip.value = be32(frame, at.l3 + 16);
  if (at.ports) {
    out.tuple.src_port = be16(frame, at.l4);
    out.tuple.dst_port = be16(frame, at.l4 + 2);
  }
  out.fragment = at.fragment;
  out.payload_offset = at.l4;
  return out;
}

}  // namespace

ParsedPacket parse_packet(std::span<const std::uint8_t> frame) {
  return parse_frame(frame, kLinktypeEthernet);
}

ParsedPacket parse_frame(std::span<const std::uint8_t> frame,
                         std::uint32_t link_type) {
  return decode(frame, locate(frame, link_type));
}

ParseStatus parse_key(std::span<const std::uint8_t> frame,
                      std::uint32_t link_type, HeaderBits& out) {
  const Layout at = locate(frame, link_type);
  if (at.status != ParseStatus::kOk) return at.status;
  // SIP|DIP|SP|DP|PRT is the order these fields already have on the
  // wire, so the key is three copies. A frame without ports reads its
  // 4 "port" bytes from the always-present addresses and masks them to
  // zero, so the protocol steers no branch.
  const std::uint8_t* addrs = frame.data() + at.l3 + 12;
  const std::size_t to_ports =
      (at.l4 - at.l3 - 12) & (std::size_t{0} - static_cast<std::size_t>(at.ports));
  std::uint32_t ports;
  std::memcpy(&ports, addrs + to_ports, 4);
  ports &= 0u - static_cast<std::uint32_t>(at.ports);
  std::array<std::uint8_t, 13> key;
  std::memcpy(key.data(), addrs, 8);
  std::memcpy(key.data() + 8, &ports, 4);
  key[12] = frame[at.l3 + 9];
  out = HeaderBits::from_bytes(key);
  return ParseStatus::kOk;
}

std::vector<std::uint8_t> build_packet(const FiveTuple& tuple,
                                       const BuildOptions& options) {
  std::vector<std::uint8_t> b;
  b.reserve(kEthHeader + (options.vlan ? 4 : 0) + 20 + 20 + options.payload_len);
  // Ethernet: locally administered MACs derived from the IPs.
  const std::uint8_t macs[12] = {0x02, 0, 0, 0, 0, 1, 0x02, 0, 0, 0, 0, 2};
  for (const std::uint8_t m : macs) b.push_back(m);
  if (options.vlan) {
    put16(b, 0x8100);
    put16(b, options.vlan_id & 0x0fff);
  }
  put16(b, 0x0800);

  const bool tcp = tuple.protocol == 6 && !options.fragment;
  const bool udp = tuple.protocol == 17 && !options.fragment;
  const std::size_t l4_len = tcp ? 20 : udp ? 8 : 0;
  const std::size_t total = 20 + l4_len + options.payload_len;

  b.push_back(0x45);  // v4, IHL 5
  b.push_back(0);     // DSCP/ECN
  put16(b, static_cast<std::uint16_t>(total));
  put16(b, 0x1234);  // identification
  put16(b, options.fragment ? 0x0008 : 0x4000);  // frag offset 8 / DF
  b.push_back(64);                               // TTL
  b.push_back(tuple.protocol);
  put16(b, 0);  // checksum (not validated by the parser)
  put32(b, tuple.src_ip.value);
  put32(b, tuple.dst_ip.value);

  if (tcp) {
    put16(b, tuple.src_port);
    put16(b, tuple.dst_port);
    put32(b, 0);         // seq
    put32(b, 0);         // ack
    b.push_back(0x50);   // data offset 5
    b.push_back(0x02);   // SYN
    put16(b, 0xffff);    // window
    put16(b, 0);         // checksum
    put16(b, 0);         // urgent
  } else if (udp) {
    put16(b, tuple.src_port);
    put16(b, tuple.dst_port);
    put16(b, static_cast<std::uint16_t>(8 + options.payload_len));
    put16(b, 0);  // checksum
  }
  for (std::size_t i = 0; i < options.payload_len; ++i) {
    b.push_back(static_cast<std::uint8_t>(i));
  }
  return b;
}

std::vector<std::uint8_t> build_frame(const FiveTuple& tuple,
                                      std::uint32_t link_type,
                                      const BuildOptions& options) {
  switch (link_type) {
    case kLinktypeEthernet:
      return build_packet(tuple, options);
    case kLinktypeRaw: {
      auto eth = build_packet(tuple, options);
      // Strip the Ethernet (+ optional VLAN) header the builder emitted.
      const std::size_t l2 = kEthHeader + (options.vlan ? 4 : 0);
      return std::vector<std::uint8_t>(eth.begin() + static_cast<std::ptrdiff_t>(l2),
                                       eth.end());
    }
    case kLinktypeNull: {
      auto raw = build_frame(tuple, kLinktypeRaw, options);
      std::vector<std::uint8_t> b{2, 0, 0, 0};  // AF_INET, little-endian
      b.insert(b.end(), raw.begin(), raw.end());
      return b;
    }
    default:
      throw std::invalid_argument("build_frame: unsupported link type " +
                                  std::to_string(link_type));
  }
}

}  // namespace rfipc::net
