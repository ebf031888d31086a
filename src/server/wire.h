// The classification service's binary wire protocol.
//
// Every message travels as one length-prefixed frame:
//
//     u32le payload_len | payload (payload_len bytes)
//
// and every payload starts with the same 8-byte message header:
//
//     u8 version (=2) | u8 opcode | u8 status | u8 reserved (=0) |
//     u32le request_id
//
// followed by an op-specific body (all integers little-endian, packed
// headers in the canonical 13-byte MSB-first layout of net::HeaderBits):
//
//     PING            request: empty          reply: empty
//     CLASSIFY_BATCH  request: u32 count, count x 13-byte header
//                     reply:   u32 count, count x u64 best global rule
//                              index (kNoMatch = all-ones for a miss)
//     INSERT_RULE     request: u64 index, 24-byte rule, u64 token
//                     reply:   u64 seq
//     ERASE_RULE      request: u64 index, u64 token
//                     reply:   u64 seq
//     STATS           request: empty          reply: UTF-8 JSON bytes
//                              (runtime::StatsSnapshot::to_json())
//
// Update requests carry a client-chosen idempotency `token` (0 = none):
// a client that lost the reply can resend the same request with the
// same token and the server answers with the ORIGINAL outcome instead
// of applying it twice (the dedupe window is the persistence layer's
// token history). Update OK replies carry `seq`, the journal sequence
// number the op landed at — 0 when the server runs without a journal.
// Version history: v1 had token-less updates and empty update replies.
//
// `status` is 0 in requests; replies carry Status (kOk, kShed for
// admission-control refusals, kBadRequest for malformed messages,
// kError for rejected updates — body then holds an ASCII reason).
//
// Validation is bounded by construction: a frame's declared length is
// checked against kMaxFrameBytes BEFORE any buffering beyond the 4-byte
// prefix, a batch's declared count against kMaxBatch and against the
// body length BEFORE any allocation, and every read goes through a
// bounds-checked cursor — a malicious frame can never make the decoder
// allocate unbounded memory or read out of bounds (test_wire fuzzes
// this under ASan/UBSan). Once those checks pass, a CLASSIFY_BATCH body
// is copied as one block: count packed headers are byte-identical to
// count net::HeaderBits, and on little-endian hosts the u64 results are
// too (big-endian hosts convert per field).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/header.h"
#include "ruleset/rule.h"

namespace rfipc::server::wire {

inline constexpr std::uint8_t kVersion = 2;
/// Frame layout constants.
inline constexpr std::size_t kLenPrefixBytes = 4;
inline constexpr std::size_t kMsgHeaderBytes = 8;
/// Hard ceiling on one frame's payload; chosen to fit a kMaxBatch
/// classify reply (8 + 4 + 4096*8 bytes) with headroom.
inline constexpr std::size_t kMaxFrameBytes = 256 * 1024;
/// Most packed headers one CLASSIFY_BATCH may carry.
inline constexpr std::size_t kMaxBatch = 4096;
/// Bytes of one packed header on the wire (net::HeaderBits).
inline constexpr std::size_t kHeaderBytes = 13;
/// Bytes of one encoded rule.
inline constexpr std::size_t kRuleBytes = 24;
/// "no match" marker in CLASSIFY_BATCH replies.
inline constexpr std::uint64_t kNoMatch = ~std::uint64_t{0};

enum class Op : std::uint8_t {
  kPing = 0,
  kClassifyBatch = 1,
  kInsertRule = 2,
  kEraseRule = 3,
  kStats = 4,
};

enum class Status : std::uint8_t {
  kOk = 0,
  kShed = 1,        // refused by admission control; retry later
  kBadRequest = 2,  // malformed message inside a well-formed frame
  kError = 3,       // valid request the runtime rejected (bad index, ...)
};

const char* op_name(Op op);
const char* status_name(Status s);

/// A decoded request. Only the fields of `op` are meaningful.
struct Request {
  Op op = Op::kPing;
  std::uint32_t id = 0;
  std::vector<net::HeaderBits> headers;  // kClassifyBatch
  std::uint64_t index = 0;               // kInsertRule / kEraseRule
  std::uint64_t token = 0;               // update idempotency token, 0 = none
  ruleset::Rule rule;                    // kInsertRule
};

/// A decoded reply. `best` for kClassifyBatch, `text` for kStats JSON
/// or the error reason of a non-kOk status, `seq` for update acks.
struct Response {
  Op op = Op::kPing;
  Status status = Status::kOk;
  std::uint32_t id = 0;
  std::vector<std::uint64_t> best;
  std::uint64_t seq = 0;  // journal seq of an acked update (0 = no journal)
  std::string text;
};

/// Appends the complete frame (length prefix included) to `out`.
void encode_request(const Request& req, std::vector<std::uint8_t>& out);
void encode_response(const Response& rsp, std::vector<std::uint8_t>& out);

/// Decodes one frame payload (the bytes AFTER the length prefix).
/// Returns false and sets `err` on any malformed input; never throws,
/// never reads outside `payload`, never allocates more than the
/// payload's declared (already-bounded) sizes.
bool decode_request(std::span<const std::uint8_t> payload, Request& req,
                    std::string& err);
bool decode_response(std::span<const std::uint8_t> payload, Response& rsp,
                     std::string& err);

/// Incremental frame reassembly over a byte stream. Feed whatever the
/// socket produced; pop complete payloads. A declared length outside
/// [kMsgHeaderBytes, max_frame] is protocol-fatal: feed() returns false
/// and the connection should be dropped (there is no way to resync a
/// length-prefixed stream).
class FrameAssembler {
 public:
  explicit FrameAssembler(std::size_t max_frame = kMaxFrameBytes)
      : max_frame_(max_frame) {}

  /// Buffers `data`. False = fatal framing error (err says why). Once
  /// fatal the assembler stays failed — drop the connection.
  bool feed(std::span<const std::uint8_t> data, std::string& err);

  /// Moves the next complete payload into `payload`; false when more
  /// bytes are needed — or when a fatal framing error was found (check
  /// failed() after a false return before waiting for more bytes).
  bool next(std::vector<std::uint8_t>& payload);

  bool failed() const { return !error_.empty(); }
  const std::string& error() const { return error_; }

  /// Bytes currently buffered (diagnostics / backpressure accounting).
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  /// Validates the pending length prefix (if complete). Sets error_ on
  /// an out-of-bounds declaration.
  void check_prefix();

  std::size_t max_frame_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  std::string error_;
};

}  // namespace rfipc::server::wire
