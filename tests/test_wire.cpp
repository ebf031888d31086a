// Wire codec: encode/decode roundtrips, FrameAssembler reassembly, and
// malformed-frame robustness (run under ASan/UBSan via scripts/check.sh
// asan — the fuzz sections exist to let the sanitizers catch any
// out-of-bounds read or unbounded allocation a hostile frame could
// provoke).
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "net/header.h"
#include "ruleset/rule.h"
#include "server/wire.h"

namespace rfipc::server::wire {
namespace {

net::HeaderBits sample_header(std::uint32_t salt) {
  net::FiveTuple t;
  t.src_ip.value = 0xC0A80000u + salt;
  t.dst_ip.value = 0x08080808u ^ (salt * 2654435761u);
  t.src_port = static_cast<std::uint16_t>(1000 + salt);
  t.dst_port = static_cast<std::uint16_t>(salt * 7);
  t.protocol = static_cast<std::uint8_t>(salt % 2 == 0 ? 6 : 17);
  return net::HeaderBits(t);
}

ruleset::Rule sample_rule() {
  ruleset::Rule r;
  r.src_ip = net::Ipv4Prefix{net::Ipv4Addr{0xAC100000}, 12};
  r.dst_ip = net::Ipv4Prefix{net::Ipv4Addr{0x0A000000}, 8};
  r.src_port = net::PortRange{1024, 65535};
  r.dst_port = net::PortRange{80, 80};
  r.protocol = net::ProtocolSpec{6, false};
  r.action = ruleset::Action::forward(3);
  return r;
}

/// Strips the 4-byte length prefix from a single encoded frame.
std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame) {
  EXPECT_GE(frame.size(), kLenPrefixBytes + kMsgHeaderBytes);
  return {frame.begin() + kLenPrefixBytes, frame.end()};
}

TEST(WireRoundtrip, AllRequestOps) {
  for (const Op op : {Op::kPing, Op::kClassifyBatch, Op::kInsertRule,
                      Op::kEraseRule, Op::kStats}) {
    Request req;
    req.op = op;
    req.id = 0xDEADBEEF;
    if (op == Op::kClassifyBatch) {
      for (std::uint32_t i = 0; i < 17; ++i) req.headers.push_back(sample_header(i));
    }
    if (op == Op::kInsertRule || op == Op::kEraseRule) {
      req.index = 42;
      req.token = 0x1122334455667788ull;
    }
    if (op == Op::kInsertRule) req.rule = sample_rule();

    std::vector<std::uint8_t> frame;
    encode_request(req, frame);
    Request back;
    std::string err;
    ASSERT_TRUE(decode_request(payload_of(frame), back, err)) << err;
    EXPECT_EQ(back.op, req.op);
    EXPECT_EQ(back.id, req.id);
    ASSERT_EQ(back.headers.size(), req.headers.size());
    for (std::size_t i = 0; i < req.headers.size(); ++i) {
      EXPECT_EQ(back.headers[i].bytes(), req.headers[i].bytes());
    }
    EXPECT_EQ(back.index, req.index);
    EXPECT_EQ(back.rule, req.rule);
    EXPECT_EQ(back.token, req.token);
  }
}

// v2 additions: updates carry an idempotency token on the request and a
// journal seq on the OK reply — both 64-bit, both must survive the
// roundtrip exactly, and a frame cut inside either must be rejected.
TEST(WireRoundtrip, UpdateTokenAndAckSeq) {
  for (const Op op : {Op::kInsertRule, Op::kEraseRule}) {
    Request req;
    req.op = op;
    req.id = 3;
    req.index = 1;
    req.token = ~std::uint64_t{0};  // all-ones must not be special
    if (op == Op::kInsertRule) req.rule = sample_rule();
    std::vector<std::uint8_t> frame;
    encode_request(req, frame);
    auto payload = payload_of(frame);
    Request back;
    std::string err;
    ASSERT_TRUE(decode_request(payload, back, err)) << err;
    EXPECT_EQ(back.token, req.token);
    // Cut mid-token: the token is the LAST request field.
    payload.resize(payload.size() - 3);
    EXPECT_FALSE(decode_request(payload, back, err));
    EXPECT_EQ(err, "truncated token");

    Response rsp;
    rsp.op = op;
    rsp.id = 3;
    rsp.seq = 0xDEADBEEFCAFEF00Dull;
    std::vector<std::uint8_t> rframe;
    encode_response(rsp, rframe);
    auto rpayload = payload_of(rframe);
    Response rback;
    ASSERT_TRUE(decode_response(rpayload, rback, err)) << err;
    EXPECT_EQ(rback.seq, rsp.seq);
    EXPECT_EQ(rback.status, Status::kOk);
    rpayload.resize(rpayload.size() - 3);
    EXPECT_FALSE(decode_response(rpayload, rback, err));
    EXPECT_EQ(err, "truncated seq");
  }
  // Non-update replies carry no seq and decode to 0.
  Response pong;
  pong.op = Op::kPing;
  pong.id = 1;
  pong.seq = 999;  // encoder must NOT leak this for ping
  std::vector<std::uint8_t> f;
  encode_response(pong, f);
  Response back;
  std::string err;
  ASSERT_TRUE(decode_response(payload_of(f), back, err)) << err;
  EXPECT_EQ(back.seq, 0u);
}

TEST(WireRoundtrip, AllResponseShapes) {
  {
    Response rsp;
    rsp.op = Op::kClassifyBatch;
    rsp.id = 7;
    rsp.best = {0, 3, kNoMatch, 12345678901234ull};
    std::vector<std::uint8_t> frame;
    encode_response(rsp, frame);
    Response back;
    std::string err;
    ASSERT_TRUE(decode_response(payload_of(frame), back, err)) << err;
    EXPECT_EQ(back.best, rsp.best);
    EXPECT_EQ(back.id, 7u);
  }
  {
    Response rsp;
    rsp.op = Op::kStats;
    rsp.text = R"({"packets":1})";
    std::vector<std::uint8_t> frame;
    encode_response(rsp, frame);
    Response back;
    std::string err;
    ASSERT_TRUE(decode_response(payload_of(frame), back, err)) << err;
    EXPECT_EQ(back.text, rsp.text);
  }
  {
    Response rsp;
    rsp.op = Op::kClassifyBatch;
    rsp.status = Status::kShed;
    rsp.text = "too many in-flight batches";
    std::vector<std::uint8_t> frame;
    encode_response(rsp, frame);
    Response back;
    std::string err;
    ASSERT_TRUE(decode_response(payload_of(frame), back, err)) << err;
    EXPECT_EQ(back.status, Status::kShed);
    EXPECT_EQ(back.text, rsp.text);
    EXPECT_TRUE(back.best.empty());
  }
}

// The exact CLASSIFY_BATCH bytes, length prefix included. The codec
// copies batch bodies as one block, so a layout or byte-order slip
// would still round-trip cleanly — only pinned bytes catch it.
TEST(WireGolden, ClassifyBatchBytes) {
  const auto tuple = [](std::uint32_t sip, std::uint32_t dip, std::uint16_t sp,
                        std::uint16_t dp, std::uint8_t prt) {
    net::FiveTuple t;
    t.src_ip.value = sip;
    t.dst_ip.value = dip;
    t.src_port = sp;
    t.dst_port = dp;
    t.protocol = prt;
    return net::HeaderBits(t);
  };
  Request req;
  req.op = Op::kClassifyBatch;
  req.id = 0x01020304;
  req.headers = {tuple(0x0A000001, 0xC0A80102, 0x1234, 80, 6),
                 tuple(0xFFFFFFFF, 0, 0xFFFF, 0, 17),
                 tuple(0x7F000001, 0x08080808, 53, 0xABCD, 1)};
  const std::vector<std::uint8_t> req_golden = {
      51, 0, 0, 0,                                      // payload_len
      2, 1, 0, 0, 0x04, 0x03, 0x02, 0x01,               // v2, op, status, id
      3, 0, 0, 0,                                       // count
      0x0A, 0x00, 0x00, 0x01, 0xC0, 0xA8, 0x01, 0x02,   // SIP DIP
      0x12, 0x34, 0x00, 0x50, 0x06,                     // SP DP PRT
      0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00,
      0xFF, 0xFF, 0x00, 0x00, 0x11,
      0x7F, 0x00, 0x00, 0x01, 0x08, 0x08, 0x08, 0x08,
      0x00, 0x35, 0xAB, 0xCD, 0x01};
  std::vector<std::uint8_t> frame;
  encode_request(req, frame);
  EXPECT_EQ(frame, req_golden);
  Request req_back;
  std::string err;
  ASSERT_TRUE(decode_request(payload_of(req_golden), req_back, err)) << err;
  EXPECT_EQ(req_back.id, req.id);
  EXPECT_EQ(req_back.headers, req.headers);

  Response rsp;
  rsp.op = Op::kClassifyBatch;
  rsp.id = 0x0A0B0C0D;
  rsp.best = {0, 0x0102030405060708ull, kNoMatch};
  const std::vector<std::uint8_t> rsp_golden = {
      36, 0, 0, 0,                                      // payload_len
      2, 1, 0, 0, 0x0D, 0x0C, 0x0B, 0x0A,               // v2, op, OK, id
      3, 0, 0, 0,                                       // count
      0, 0, 0, 0, 0, 0, 0, 0,                           // u64le results
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  frame.clear();
  encode_response(rsp, frame);
  EXPECT_EQ(frame, rsp_golden);
  Response rsp_back;
  ASSERT_TRUE(decode_response(payload_of(rsp_golden), rsp_back, err)) << err;
  EXPECT_EQ(rsp_back.id, rsp.id);
  EXPECT_EQ(rsp_back.best, rsp.best);
}

TEST(WireRoundtrip, ClassifyBatchCounts) {
  for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{255},
                                  std::size_t{256}, kMaxBatch}) {
    Request req;
    req.op = Op::kClassifyBatch;
    req.id = static_cast<std::uint32_t>(count);
    Response rsp;
    rsp.op = Op::kClassifyBatch;
    rsp.id = req.id;
    for (std::size_t i = 0; i < count; ++i) {
      req.headers.push_back(sample_header(static_cast<std::uint32_t>(i)));
      rsp.best.push_back(i % 5 == 0 ? kNoMatch : i * 0x0101010101ull);
    }
    std::vector<std::uint8_t> frame;
    encode_request(req, frame);
    ASSERT_EQ(frame.size(), kLenPrefixBytes + kMsgHeaderBytes + 4 + count * kHeaderBytes);
    Request req_back;
    req_back.headers.resize(3);  // stale contents must not survive
    std::string err;
    ASSERT_TRUE(decode_request(payload_of(frame), req_back, err)) << count << ": " << err;
    EXPECT_EQ(req_back.headers, req.headers) << count;

    frame.clear();
    encode_response(rsp, frame);
    ASSERT_EQ(frame.size(), kLenPrefixBytes + kMsgHeaderBytes + 4 + count * 8);
    Response rsp_back;
    rsp_back.best.resize(3);
    ASSERT_TRUE(decode_response(payload_of(frame), rsp_back, err)) << count << ": " << err;
    EXPECT_EQ(rsp_back.best, rsp.best) << count;
  }
}

TEST(WireMalformed, ClassifyBatchBoundsRejected) {
  std::string err;
  {  // one past kMaxBatch, fully backed by body bytes: still refused
    Request req;
    req.op = Op::kClassifyBatch;
    req.headers.resize(kMaxBatch + 1);
    std::vector<std::uint8_t> frame;
    encode_request(req, frame);
    Request back;
    EXPECT_FALSE(decode_request(payload_of(frame), back, err));
    EXPECT_NE(err.find("exceeds max"), std::string::npos);

    Response rsp;
    rsp.op = Op::kClassifyBatch;
    rsp.best.resize(kMaxBatch + 1);
    frame.clear();
    encode_response(rsp, frame);
    Response rback;
    EXPECT_FALSE(decode_response(payload_of(frame), rback, err));
    EXPECT_EQ(err, "result length mismatch");
  }
  Request req;
  req.op = Op::kClassifyBatch;
  for (std::uint32_t i = 0; i < 3; ++i) req.headers.push_back(sample_header(i));
  std::vector<std::uint8_t> frame;
  encode_request(req, frame);
  const auto req_payload = payload_of(frame);
  Response rsp;
  rsp.op = Op::kClassifyBatch;
  rsp.best = {1, 2, 3};
  frame.clear();
  encode_response(rsp, frame);
  const auto rsp_payload = payload_of(frame);
  for (const int delta : {-1, +1}) {  // body of count * size +- 1 bytes
    auto p = req_payload;
    p.resize(p.size() + static_cast<std::size_t>(delta), 0);
    Request back;
    EXPECT_FALSE(decode_request(p, back, err)) << delta;
    EXPECT_EQ(err, "batch length mismatch");

    auto q = rsp_payload;
    q.resize(q.size() + static_cast<std::size_t>(delta), 0);
    Response rback;
    EXPECT_FALSE(decode_response(q, rback, err)) << delta;
    EXPECT_EQ(err, "result length mismatch");
  }
}

TEST(FrameAssembler, ReassemblesByteByByte) {
  Request req;
  req.op = Op::kClassifyBatch;
  req.id = 9;
  for (std::uint32_t i = 0; i < 5; ++i) req.headers.push_back(sample_header(i));
  std::vector<std::uint8_t> stream;
  encode_request(req, stream);
  encode_request(req, stream);  // two frames back to back

  FrameAssembler fa;
  std::string err;
  std::vector<std::vector<std::uint8_t>> got;
  std::vector<std::uint8_t> payload;
  for (const std::uint8_t b : stream) {
    ASSERT_TRUE(fa.feed({&b, 1}, err)) << err;
    while (fa.next(payload)) got.push_back(payload);
  }
  ASSERT_EQ(got.size(), 2u);
  for (const auto& p : got) {
    Request back;
    ASSERT_TRUE(decode_request(p, back, err)) << err;
    EXPECT_EQ(back.headers.size(), 5u);
  }
  EXPECT_EQ(fa.buffered(), 0u);
}

TEST(FrameAssembler, TruncatedPrefixJustWaits) {
  FrameAssembler fa;
  std::string err;
  const std::uint8_t partial[3] = {0x10, 0x00, 0x00};
  ASSERT_TRUE(fa.feed({partial, 3}, err));
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(fa.next(payload));
  EXPECT_FALSE(fa.failed());  // not an error — more bytes may arrive
}

TEST(FrameAssembler, OversizedDeclaredLengthIsFatal) {
  FrameAssembler fa(1024);
  std::string err;
  const std::uint8_t prefix[4] = {0xFF, 0xFF, 0xFF, 0x7F};  // ~2 GiB declared
  EXPECT_FALSE(fa.feed({prefix, 4}, err));
  EXPECT_TRUE(fa.failed());
  EXPECT_NE(err.find("exceeds"), std::string::npos);
  // Sticky: later feeds keep failing, nothing is ever buffered for it.
  const std::uint8_t more[1] = {0};
  EXPECT_FALSE(fa.feed({more, 1}, err));
}

TEST(FrameAssembler, UndersizedDeclaredLengthIsFatal) {
  FrameAssembler fa;
  std::string err;
  const std::uint8_t prefix[4] = {3, 0, 0, 0};  // below the 8-byte msg header
  EXPECT_FALSE(fa.feed({prefix, 4}, err));
  EXPECT_TRUE(fa.failed());
}

TEST(FrameAssembler, BadSecondFrameSurfacesAfterFirst) {
  Request req;
  req.op = Op::kPing;
  req.id = 1;
  std::vector<std::uint8_t> stream;
  encode_request(req, stream);
  const std::uint8_t bad[4] = {0xFF, 0xFF, 0xFF, 0x7F};
  stream.insert(stream.end(), bad, bad + 4);

  // One feed carrying a valid frame AND a poisoned prefix: the valid
  // frame is rejected wholesale (feed fails) OR surfaced then failed —
  // either way the assembler must not silently wait forever.
  FrameAssembler fa;
  std::string err;
  const bool fed = fa.feed(stream, err);
  std::vector<std::uint8_t> payload;
  if (fed) {
    EXPECT_TRUE(fa.next(payload));
    EXPECT_FALSE(fa.next(payload));
  }
  EXPECT_TRUE(fa.failed());
}

TEST(WireMalformed, RequestDecodeRejects) {
  Request req;
  req.op = Op::kClassifyBatch;
  req.id = 5;
  req.headers.push_back(sample_header(1));
  std::vector<std::uint8_t> frame;
  encode_request(req, frame);
  auto payload = payload_of(frame);
  std::string err;
  Request back;

  {  // bad version
    auto p = payload;
    p[0] = 99;
    EXPECT_FALSE(decode_request(p, back, err));
  }
  {  // bad opcode
    auto p = payload;
    p[1] = 200;
    EXPECT_FALSE(decode_request(p, back, err));
  }
  {  // nonzero status in a request
    auto p = payload;
    p[2] = 1;
    EXPECT_FALSE(decode_request(p, back, err));
  }
  {  // nonzero reserved byte
    auto p = payload;
    p[3] = 1;
    EXPECT_FALSE(decode_request(p, back, err));
  }
  {  // batch count inflated past the actual bytes
    auto p = payload;
    p[kMsgHeaderBytes] = 200;
    EXPECT_FALSE(decode_request(p, back, err));
    EXPECT_EQ(err, "batch length mismatch");
  }
  {  // batch count over kMaxBatch never allocates
    auto p = payload;
    p[kMsgHeaderBytes + 0] = 0xFF;
    p[kMsgHeaderBytes + 1] = 0xFF;
    p[kMsgHeaderBytes + 2] = 0xFF;
    p[kMsgHeaderBytes + 3] = 0xFF;
    EXPECT_FALSE(decode_request(p, back, err));
    EXPECT_NE(err.find("exceeds max"), std::string::npos);
  }
  {  // trailing bytes after the batch (caught as a length mismatch)
    auto p = payload;
    p.push_back(0);
    EXPECT_FALSE(decode_request(p, back, err));
    EXPECT_EQ(err, "batch length mismatch");
  }
  {  // trailing bytes after a body-less op
    Request ping;
    ping.op = Op::kPing;
    std::vector<std::uint8_t> f;
    encode_request(ping, f);
    auto p = payload_of(f);
    p.push_back(0);
    EXPECT_FALSE(decode_request(p, back, err));
    EXPECT_EQ(err, "trailing bytes");
  }
  {  // truncation at every boundary
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      std::vector<std::uint8_t> p(payload.begin(),
                                  payload.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_FALSE(decode_request(p, back, err)) << "cut=" << cut;
    }
  }
}

TEST(WireMalformed, RuleFieldValidation) {
  Request req;
  req.op = Op::kInsertRule;
  req.id = 1;
  req.index = 0;
  req.rule = sample_rule();
  std::vector<std::uint8_t> frame;
  encode_request(req, frame);
  auto payload = payload_of(frame);
  const std::size_t rule_at = kMsgHeaderBytes + 8;  // after u64 index
  std::string err;
  Request back;
  ASSERT_TRUE(decode_request(payload, back, err)) << err;

  {  // src prefix length 33
    auto p = payload;
    p[rule_at + 4] = 33;
    EXPECT_FALSE(decode_request(p, back, err));
    EXPECT_EQ(err, "prefix length > 32");
  }
  {  // inverted source port range (lo=0xFFFF, hi=0)
    auto p = payload;
    p[rule_at + 10] = 0xFF;
    p[rule_at + 11] = 0xFF;
    p[rule_at + 12] = 0;
    p[rule_at + 13] = 0;
    EXPECT_FALSE(decode_request(p, back, err));
    EXPECT_EQ(err, "inverted port range");
  }
  {  // bad wildcard flag
    auto p = payload;
    p[rule_at + 19] = 7;
    EXPECT_FALSE(decode_request(p, back, err));
    EXPECT_EQ(err, "bad rule flag byte");
  }
  {  // nonzero pad
    auto p = payload;
    p[rule_at + 21] = 1;
    EXPECT_FALSE(decode_request(p, back, err));
  }
}

TEST(WireMalformed, GarbagePayloadFuzz) {
  std::mt19937 rng(0xC0FFEE);
  std::vector<std::uint8_t> payload;
  Request req;
  Response rsp;
  std::string err;
  for (int iter = 0; iter < 20000; ++iter) {
    payload.resize(rng() % 128);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
    // Must never crash, throw, overread, or allocate unboundedly;
    // the returns are irrelevant, surviving ASan/UBSan is the test.
    decode_request(payload, req, err);
    decode_response(payload, rsp, err);
  }
}

TEST(WireMalformed, BitflippedValidFramesFuzz) {
  Request req;
  req.op = Op::kClassifyBatch;
  req.id = 77;
  for (std::uint32_t i = 0; i < 32; ++i) req.headers.push_back(sample_header(i));
  std::vector<std::uint8_t> frame;
  encode_request(req, frame);
  const auto payload = payload_of(frame);

  std::mt19937 rng(1234);
  Request back;
  std::string err;
  for (int iter = 0; iter < 20000; ++iter) {
    auto p = payload;
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      p[rng() % p.size()] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    if (decode_request(p, back, err)) {
      // A surviving decode must at least be self-consistent.
      EXPECT_LE(back.headers.size(), kMaxBatch);
    }
  }
}

TEST(WireMalformed, RandomStreamFuzzThroughAssembler) {
  std::mt19937 rng(42);
  for (int conn = 0; conn < 200; ++conn) {
    FrameAssembler fa;
    std::string err;
    std::vector<std::uint8_t> payload;
    Request req;
    bool dead = false;
    for (int chunk = 0; chunk < 50 && !dead; ++chunk) {
      std::vector<std::uint8_t> data(rng() % 64);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng());
      if (!fa.feed(data, err)) {
        dead = true;  // a real server would drop the connection here
        break;
      }
      while (fa.next(payload)) decode_request(payload, req, err);
      if (fa.failed()) dead = true;
      // Bounded buffering even for streams that never frame correctly.
      EXPECT_LE(fa.buffered(), kMaxFrameBytes + kLenPrefixBytes + 64);
    }
  }
}

}  // namespace
}  // namespace rfipc::server::wire
