// Raw packet parsing: Ethernet II (+ up to two stacked 802.1Q/802.1ad
// VLAN tags) / IPv4 / TCP|UDP|other -> the classifier's 5-tuple.
//
// Firewalls classify wire packets, not pre-decoded tuples; this module
// is the header-extraction substrate in front of the engines (the
// paper's pipeline assumes it — cf. its reference [3] on programmable
// packet parsing). Parsing is defensive: every length and version
// field is validated and a precise ParseStatus explains rejections.
// A builder synthesizes valid packets for tests and traces.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/header.h"

namespace rfipc::net {

enum class ParseStatus : std::uint8_t {
  kOk,
  kTruncatedEthernet,
  kUnsupportedEtherType,  // not IPv4 (possibly after VLAN)
  kTruncatedIp,
  kBadIpVersion,
  kBadIpHeaderLength,
  kBadIpTotalLength,
  kTruncatedTransport,
  kTruncatedLink,         // LINKTYPE_NULL frame shorter than its 4-byte AF header
  kUnsupportedFamily,     // LINKTYPE_NULL address family other than AF_INET
  kUnsupportedLinkType,   // a link type parse_frame has no decoder for
};

const char* parse_status_name(ParseStatus s);

/// On error only `status` is set; every other field keeps its default.
struct ParsedPacket {
  ParseStatus status = ParseStatus::kOk;
  FiveTuple tuple;
  /// True when the packet is a non-first IP fragment: the transport
  /// header is absent, so ports are reported as 0 (and a classifier
  /// relying on them should treat the packet specially).
  bool fragment = false;
  /// Bytes consumed by headers (payload starts here) — 0 on error.
  std::size_t payload_offset = 0;

  bool ok() const { return status == ParseStatus::kOk; }
};

/// Parses one raw frame.
ParsedPacket parse_packet(std::span<const std::uint8_t> frame);

/// Link-type-aware parse, for frames sourced from pcap files or capture
/// rings whose link layer is not Ethernet:
///   * LINKTYPE_ETHERNET (1)  — exactly parse_packet;
///   * LINKTYPE_RAW (101)     — the frame starts at the IPv4 header;
///   * LINKTYPE_NULL (0)      — a 4-byte host-endian AF family word
///     (AF_INET accepted in either byte order, since the header follows
///     the CAPTURING host's endianness) precedes the IPv4 header.
/// Any other link type reports kUnsupportedLinkType.
ParsedPacket parse_frame(std::span<const std::uint8_t> frame,
                         std::uint32_t link_type);

/// Link-type-aware parse straight into the classifier key, for the
/// per-frame capture path. The key's canonical layout (SIP|DIP|SP|DP|PRT,
/// MSB first) is the fields' own network byte order, so the key is
/// copied out of the frame: 8 address bytes, the 4 port bytes (zeros
/// when the frame carries none: not TCP/UDP, or a non-first fragment)
/// and the protocol byte. Validation is the same routine parse_frame
/// runs, so the status always equals parse_frame's, and on kOk `out`
/// equals HeaderBits(parse_frame(frame, link_type).tuple). On any other
/// status `out` is not written.
ParseStatus parse_key(std::span<const std::uint8_t> frame,
                      std::uint32_t link_type, HeaderBits& out);

struct BuildOptions {
  std::size_t payload_len = 16;
  bool vlan = false;
  std::uint16_t vlan_id = 0;
  /// Emit a non-first fragment (fragment offset > 0, no L4 header).
  bool fragment = false;
};

/// Synthesizes a valid Ethernet/IPv4/L4 frame carrying `tuple`.
/// TCP (proto 6) gets a 20-byte TCP header, UDP (17) an 8-byte UDP
/// header, everything else a bare IP payload.
std::vector<std::uint8_t> build_packet(const FiveTuple& tuple,
                                       const BuildOptions& options = {});

/// Synthesizes a frame for an arbitrary supported link type (the
/// inverse of parse_frame): LINKTYPE_ETHERNET delegates to
/// build_packet (VLAN options honored), LINKTYPE_RAW emits the bare
/// IPv4 packet, LINKTYPE_NULL prepends the little-endian AF_INET word.
/// Throws std::invalid_argument on an unsupported link type.
std::vector<std::uint8_t> build_frame(const FiveTuple& tuple,
                                      std::uint32_t link_type,
                                      const BuildOptions& options = {});

}  // namespace rfipc::net
