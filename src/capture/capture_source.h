// The packet-ingestion abstraction of the capture data plane.
//
// A CaptureSource is a set of RX rings delivering raw link-layer
// frames in batches — the deployment shape of an inline classifier
// (frames arrive from the wire, not as pre-parsed lookup requests over
// RPC). Two interchangeable implementations ship:
//
//   * AfPacketSource (afpacket_source.h) — AF_PACKET TPACKET_V3 mmap
//     rings on a live Linux interface, FANOUT_HASH across rings, for
//     real traffic (needs CAP_NET_RAW);
//   * PcapReplaySource (pcap_source.h) — deterministic replay of a
//     pcap capture (file or in-memory), flow-hashed across the same
//     ring topology, so CI and benches drive the EXACT same consumer
//     path with zero privileges.
//
// The consumer contract is ring-oriented and zero-copy: next_batch()
// fills caller-provided FrameViews pointing into source-owned memory
// (the mmap block or the replay buffer); those views stay valid until
// the NEXT next_batch()/stop() call on the same ring, which is when an
// AF_PACKET block can be handed back to the kernel. One thread per
// ring; different rings may be polled concurrently, the same ring must
// not.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace rfipc::capture {

/// One raw frame, borrowed from the source's ring memory.
struct FrameView {
  const std::uint8_t* data = nullptr;
  std::uint32_t len = 0;

  std::span<const std::uint8_t> bytes() const { return {data, len}; }
};

class CaptureSource {
 public:
  virtual ~CaptureSource() = default;

  /// Human-readable description, e.g. "af_packet eth0 x4 rings" or
  /// "pcap replay capture.pcap (8192 frames)".
  virtual std::string describe() const = 0;

  /// Number of RX rings. Fixed for the source's lifetime.
  virtual std::size_t ring_count() const = 0;

  /// LINKTYPE_* of the frames this source delivers (net/pcap.h); feeds
  /// net::parse_key. AF_PACKET rings deliver LINKTYPE_ETHERNET.
  virtual std::uint32_t link_type() const = 0;

  /// Fills up to out.size() frames from `ring` and returns how many.
  /// Returns 0 when nothing is available right now — the caller checks
  /// exhausted() to tell "retry" from "end of capture". May block
  /// briefly (AF_PACKET waits for a ready block, a paced replay sleeps
  /// until the next frame is due) but always wakes promptly on stop().
  virtual std::size_t next_batch(std::size_t ring, std::span<FrameView> out) = 0;

  /// True once `ring` will never produce another frame (a finite
  /// replay ran out, or stop() was called). A live AF_PACKET ring only
  /// exhausts via stop().
  virtual bool exhausted(std::size_t ring) const = 0;

  /// Cumulative frames `ring` lost because the consumer lagged (the
  /// kernel's tp_drops for AF_PACKET; 0 for replay). Monotonic.
  virtual std::uint64_t overruns(std::size_t ring) const = 0;

  /// Asynchronously ends the capture: every blocked or future
  /// next_batch() returns 0 and every ring reports exhausted. Safe
  /// from any thread, idempotent; the graceful-teardown half of the
  /// consumer contract (ring memory stays mapped until destruction).
  virtual void stop() = 0;
};

}  // namespace rfipc::capture
