// The 5-tuple packet header and its canonical 104-bit wire layout.
//
// Both engines operate on the same canonical bit string
//     SIP[32] | DIP[32] | SP[16] | DP[16] | PRT[8]   (104 bits)
// with bit index 0 = the most significant bit of the source IP. StrideBV
// stage s consumes bits [s*k, (s+1)*k) of this string; the FPGA TCAM
// stores one (value, mask) pair over the same 104 positions.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "net/ipv4.h"

namespace rfipc::net {

/// Total classifier key width in bits (5-tuple).
inline constexpr unsigned kHeaderBits = 104;

/// Field offsets/widths within the canonical bit string.
struct FieldLayout {
  unsigned offset;
  unsigned width;
};
inline constexpr FieldLayout kSipField{0, 32};
inline constexpr FieldLayout kDipField{32, 32};
inline constexpr FieldLayout kSpField{64, 16};
inline constexpr FieldLayout kDpField{80, 16};
inline constexpr FieldLayout kPrtField{96, 8};
inline constexpr std::array<FieldLayout, 5> kFields{kSipField, kDipField, kSpField,
                                                    kDpField, kPrtField};

/// A decoded 5-tuple header.
struct FiveTuple {
  Ipv4Addr src_ip;
  Ipv4Addr dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;

  constexpr bool operator==(const FiveTuple&) const = default;

  std::string to_string() const;
};

/// The packed 104-bit header: 13 bytes, MSB-first (byte 0 bit 7 is bit
/// index 0 of the canonical string).
class HeaderBits {
 public:
  HeaderBits() = default;
  explicit HeaderBits(const FiveTuple& t);

  /// Rebuilds a header from its packed 13-byte representation (the
  /// inverse of bytes() — used by the wire codec and net::parse_key).
  static HeaderBits from_bytes(const std::array<std::uint8_t, 13>& raw) {
    HeaderBits h;
    h.bytes_ = raw;
    return h;
  }

  /// Bit at canonical index i (0 = SIP MSB).
  bool bit(unsigned i) const {
    return (bytes_[i >> 3] >> (7 - (i & 7))) & 1u;
  }

  /// The k-bit stride starting at canonical index `offset` (offset+k may
  /// exceed 104; missing bits read as zero — this models the zero-padded
  /// final stage of a StrideBV pipeline). First bit becomes the MSB of
  /// the returned value, so strides order values the same way the header
  /// string does. k must be <= 16.
  std::uint32_t stride(unsigned offset, unsigned k) const;

  /// Value of bits [offset, offset+width) as an integer, width <= 32.
  std::uint32_t field(FieldLayout f) const;

  /// Decodes back to a 5-tuple (inverse of the packing constructor).
  FiveTuple unpack() const;

  const std::array<std::uint8_t, 13>& bytes() const { return bytes_; }

  bool operator==(const HeaderBits&) const = default;

 private:
  void put(unsigned offset, unsigned width, std::uint32_t value);

  std::array<std::uint8_t, 13> bytes_{};
};

}  // namespace rfipc::net
