#include "server/wire.h"

#include <bit>
#include <cstring>
#include <type_traits>

#include "ruleset/rule_codec.h"

namespace rfipc::server::wire {
namespace {

// A batch of packed headers in memory IS the CLASSIFY_BATCH body: the
// codec copies it as one block.
static_assert(sizeof(net::HeaderBits) == kHeaderBytes &&
              std::is_trivially_copyable_v<net::HeaderBits>);
// Batch results travel as a block of native u64s on little-endian hosts.
inline constexpr bool kLittleEndian = std::endian::native == std::endian::little;

/// Bounds-checked little-endian write cursor.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked little-endian read cursor: every read checks the
/// remaining length first, so malformed input fails cleanly.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }

  bool u8(std::uint8_t& v) {
    if (remaining() < 1) return false;
    v = data_[pos_++];
    return true;
  }
  bool u16(std::uint16_t& v) {
    std::uint8_t lo = 0;
    std::uint8_t hi = 0;
    if (!u8(lo) || !u8(hi)) return false;
    v = static_cast<std::uint16_t>(lo | (std::uint16_t{hi} << 8));
    return true;
  }
  bool u32(std::uint32_t& v) {
    std::uint16_t lo = 0;
    std::uint16_t hi = 0;
    if (!u16(lo) || !u16(hi)) return false;
    v = lo | (std::uint32_t{hi} << 16);
    return true;
  }
  bool u64(std::uint64_t& v) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    if (!u32(lo) || !u32(hi)) return false;
    v = lo | (std::uint64_t{hi} << 32);
    return true;
  }
  bool bytes(void* p, std::size_t n) {
    if (remaining() < n) return false;
    if (n == 0) return true;  // an empty batch may hand in a null `p`
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

bool op_valid(std::uint8_t v) { return v <= static_cast<std::uint8_t>(Op::kStats); }
bool status_valid(std::uint8_t v) {
  return v <= static_cast<std::uint8_t>(Status::kError);
}

void put_msg_header(Writer& w, Op op, Status status, std::uint32_t id) {
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(op));
  w.u8(static_cast<std::uint8_t>(status));
  w.u8(0);  // reserved
  w.u32(id);
}

/// Parses the common 8-byte message header; on success `op`/`status`/
/// `id` are set and the reader is positioned at the body.
bool get_msg_header(Reader& r, Op& op, Status& status, std::uint32_t& id,
                    std::string& err) {
  std::uint8_t version = 0;
  std::uint8_t opcode = 0;
  std::uint8_t st = 0;
  std::uint8_t reserved = 0;
  if (!r.u8(version) || !r.u8(opcode) || !r.u8(st) || !r.u8(reserved) || !r.u32(id)) {
    err = "short message header";
    return false;
  }
  if (version != kVersion) {
    err = "unsupported version " + std::to_string(version);
    return false;
  }
  if (!op_valid(opcode)) {
    err = "bad opcode " + std::to_string(opcode);
    return false;
  }
  if (!status_valid(st)) {
    err = "bad status " + std::to_string(st);
    return false;
  }
  if (reserved != 0) {
    err = "nonzero reserved byte";
    return false;
  }
  op = static_cast<Op>(opcode);
  status = static_cast<Status>(st);
  return true;
}

// The 24-byte rule body is the canonical encoding shared with the
// persistence layer (ruleset/rule_codec.h) — a rule on the wire and a
// rule in the journal are byte-identical.
void put_rule(Writer& w, const ruleset::Rule& rule) {
  const auto raw = ruleset::encode_rule(rule);
  w.bytes(raw.data(), raw.size());
}

bool get_rule(Reader& r, ruleset::Rule& rule, std::string& err) {
  ruleset::RuleWireBytes raw{};
  if (!r.bytes(raw.data(), raw.size())) {
    err = "truncated rule";
    return false;
  }
  return ruleset::decode_rule(raw, rule, err);
}

/// Writes the 4-byte length prefix for everything appended after
/// `frame_start` (which marks where the payload began in `out`).
void finish_frame(std::vector<std::uint8_t>& out, std::size_t frame_start) {
  const std::size_t len = out.size() - frame_start;
  out[frame_start - 4] = static_cast<std::uint8_t>(len);
  out[frame_start - 3] = static_cast<std::uint8_t>(len >> 8);
  out[frame_start - 2] = static_cast<std::uint8_t>(len >> 16);
  out[frame_start - 1] = static_cast<std::uint8_t>(len >> 24);
}

std::size_t begin_frame(std::vector<std::uint8_t>& out) {
  out.insert(out.end(), {0, 0, 0, 0});  // patched by finish_frame
  return out.size();
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kPing: return "PING";
    case Op::kClassifyBatch: return "CLASSIFY_BATCH";
    case Op::kInsertRule: return "INSERT_RULE";
    case Op::kEraseRule: return "ERASE_RULE";
    case Op::kStats: return "STATS";
  }
  return "?";
}

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "OK";
    case Status::kShed: return "SHED";
    case Status::kBadRequest: return "BAD_REQUEST";
    case Status::kError: return "ERROR";
  }
  return "?";
}

void encode_request(const Request& req, std::vector<std::uint8_t>& out) {
  const std::size_t start = begin_frame(out);
  Writer w(out);
  put_msg_header(w, req.op, Status::kOk, req.id);
  switch (req.op) {
    case Op::kPing:
    case Op::kStats:
      break;
    case Op::kClassifyBatch:
      w.u32(static_cast<std::uint32_t>(req.headers.size()));
      w.bytes(req.headers.data(), req.headers.size() * kHeaderBytes);
      break;
    case Op::kInsertRule:
      w.u64(req.index);
      put_rule(w, req.rule);
      w.u64(req.token);
      break;
    case Op::kEraseRule:
      w.u64(req.index);
      w.u64(req.token);
      break;
  }
  finish_frame(out, start);
}

void encode_response(const Response& rsp, std::vector<std::uint8_t>& out) {
  const std::size_t start = begin_frame(out);
  Writer w(out);
  put_msg_header(w, rsp.op, rsp.status, rsp.id);
  if (rsp.status != Status::kOk) {
    w.bytes(rsp.text.data(), rsp.text.size());  // reason string
  } else {
    switch (rsp.op) {
      case Op::kClassifyBatch:
        w.u32(static_cast<std::uint32_t>(rsp.best.size()));
        if constexpr (kLittleEndian) {
          w.bytes(rsp.best.data(), rsp.best.size() * sizeof(std::uint64_t));
        } else {
          for (const std::uint64_t b : rsp.best) w.u64(b);
        }
        break;
      case Op::kStats:
        w.bytes(rsp.text.data(), rsp.text.size());
        break;
      case Op::kInsertRule:
      case Op::kEraseRule:
        w.u64(rsp.seq);
        break;
      case Op::kPing:
        break;
    }
  }
  finish_frame(out, start);
}

bool decode_request(std::span<const std::uint8_t> payload, Request& req,
                    std::string& err) {
  Reader r(payload);
  Status status = Status::kOk;
  if (!get_msg_header(r, req.op, status, req.id, err)) return false;
  if (status != Status::kOk) {
    err = "request with nonzero status";
    return false;
  }
  req.headers.clear();
  req.index = 0;
  req.token = 0;
  req.rule = ruleset::Rule{};
  switch (req.op) {
    case Op::kPing:
    case Op::kStats:
      break;
    case Op::kClassifyBatch: {
      std::uint32_t count = 0;
      if (!r.u32(count)) {
        err = "truncated batch count";
        return false;
      }
      if (count > kMaxBatch) {
        err = "batch count " + std::to_string(count) + " exceeds max " +
              std::to_string(kMaxBatch);
        return false;
      }
      // The count is now bounded AND must be backed by actual payload
      // bytes before anything is allocated.
      if (r.remaining() != std::size_t{count} * kHeaderBytes) {
        err = "batch length mismatch";
        return false;
      }
      req.headers.resize(count);
      if (!r.bytes(req.headers.data(), std::size_t{count} * kHeaderBytes)) {
        err = "truncated header";
        return false;
      }
      return true;
    }
    case Op::kInsertRule:
      if (!r.u64(req.index)) {
        err = "truncated index";
        return false;
      }
      if (!get_rule(r, req.rule, err)) return false;
      if (!r.u64(req.token)) {
        err = "truncated token";
        return false;
      }
      break;
    case Op::kEraseRule:
      if (!r.u64(req.index)) {
        err = "truncated index";
        return false;
      }
      if (!r.u64(req.token)) {
        err = "truncated token";
        return false;
      }
      break;
  }
  if (r.remaining() != 0) {
    err = "trailing bytes";
    return false;
  }
  return true;
}

bool decode_response(std::span<const std::uint8_t> payload, Response& rsp,
                     std::string& err) {
  Reader r(payload);
  if (!get_msg_header(r, rsp.op, rsp.status, rsp.id, err)) return false;
  rsp.best.clear();
  rsp.text.clear();
  rsp.seq = 0;
  if (rsp.status != Status::kOk) {
    rsp.text.resize(r.remaining());
    return rsp.text.empty() || r.bytes(rsp.text.data(), rsp.text.size());
  }
  switch (rsp.op) {
    case Op::kPing:
      break;
    case Op::kInsertRule:
    case Op::kEraseRule:
      if (!r.u64(rsp.seq)) {
        err = "truncated seq";
        return false;
      }
      break;
    case Op::kClassifyBatch: {
      std::uint32_t count = 0;
      if (!r.u32(count)) {
        err = "truncated result count";
        return false;
      }
      if (count > kMaxBatch || r.remaining() != std::size_t{count} * 8) {
        err = "result length mismatch";
        return false;
      }
      rsp.best.resize(count);
      if constexpr (kLittleEndian) {
        if (!r.bytes(rsp.best.data(), std::size_t{count} * sizeof(std::uint64_t))) {
          err = "truncated result";
          return false;
        }
      } else {
        for (auto& b : rsp.best) {
          if (!r.u64(b)) {
            err = "truncated result";
            return false;
          }
        }
      }
      return true;
    }
    case Op::kStats:
      rsp.text.resize(r.remaining());
      return rsp.text.empty() || r.bytes(rsp.text.data(), rsp.text.size());
  }
  if (r.remaining() != 0) {
    err = "trailing bytes";
    return false;
  }
  return true;
}

void FrameAssembler::check_prefix() {
  if (!error_.empty() || buf_.size() - pos_ < kLenPrefixBytes) return;
  const std::size_t len = std::size_t{buf_[pos_]} | (std::size_t{buf_[pos_ + 1]} << 8) |
                          (std::size_t{buf_[pos_ + 2]} << 16) |
                          (std::size_t{buf_[pos_ + 3]} << 24);
  if (len < kMsgHeaderBytes) {
    error_ = "declared frame length " + std::to_string(len) + " below minimum";
  } else if (len > max_frame_) {
    error_ = "declared frame length " + std::to_string(len) + " exceeds max " +
             std::to_string(max_frame_);
  }
}

bool FrameAssembler::feed(std::span<const std::uint8_t> data, std::string& err) {
  if (!error_.empty()) {
    err = error_;
    return false;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
  // Validate the pending length prefix eagerly so an oversized
  // declaration is rejected before its body is ever awaited — buffering
  // is bounded by one read's worth of bytes past the bad prefix.
  check_prefix();
  if (!error_.empty()) {
    err = error_;
    return false;
  }
  return true;
}

bool FrameAssembler::next(std::vector<std::uint8_t>& payload) {
  check_prefix();  // frames behind the one feed() checked
  if (!error_.empty()) return false;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kLenPrefixBytes) return false;
  const std::size_t len = std::size_t{buf_[pos_]} | (std::size_t{buf_[pos_ + 1]} << 8) |
                          (std::size_t{buf_[pos_ + 2]} << 16) |
                          (std::size_t{buf_[pos_ + 3]} << 24);
  if (avail < kLenPrefixBytes + len) return false;
  payload.assign(buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + kLenPrefixBytes),
                 buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + kLenPrefixBytes + len));
  pos_ += kLenPrefixBytes + len;
  // Compact once the consumed prefix dominates, keeping feed() amortized O(1).
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  return true;
}

}  // namespace rfipc::server::wire
