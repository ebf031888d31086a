// ClassifyClient resilience: deadlines against deliberately stalled
// peers, bounded retries, and auto-reconnect. The stalled peers are
// hand-rolled sockets — a real ClassifyServer is too well-behaved to
// reproduce a half-dead one.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/wire.h"

namespace rfipc::server {
namespace {

using Clock = std::chrono::steady_clock;

std::uint32_t elapsed_ms(Clock::time_point since) {
  return static_cast<std::uint32_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - since)
          .count());
}

/// A listening socket that accepts (or doesn't) exactly as told.
class FakePeer {
 public:
  FakePeer() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
  }
  ~FakePeer() {
    for (const int fd : accepted_) ::close(fd);
    if (fd_ >= 0) ::close(fd_);
  }

  void listen(int backlog) { ASSERT_EQ(::listen(fd_, backlog), 0); }
  std::uint16_t port() const { return port_; }

  int accept_one() {
    const int conn = ::accept(fd_, nullptr, nullptr);
    EXPECT_GE(conn, 0) << std::strerror(errno);
    accepted_.push_back(conn);
    return conn;
  }

  /// Reads one length-prefixed frame off `conn` into `payload`.
  static bool read_frame(int conn, std::vector<std::uint8_t>& payload) {
    std::uint8_t prefix[4];
    if (!read_exact(conn, prefix, sizeof(prefix))) return false;
    const std::uint32_t len = static_cast<std::uint32_t>(prefix[0]) |
                              static_cast<std::uint32_t>(prefix[1]) << 8 |
                              static_cast<std::uint32_t>(prefix[2]) << 16 |
                              static_cast<std::uint32_t>(prefix[3]) << 24;
    payload.resize(len);
    return read_exact(conn, payload.data(), len);
  }

  static void send_response(int conn, const wire::Response& rsp) {
    std::vector<std::uint8_t> out;
    wire::encode_response(rsp, out);
    send_bytes(conn, out);
  }

  static void send_bytes(int conn, std::span<const std::uint8_t> out) {
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n =
          ::send(conn, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

 private:
  static bool read_exact(int conn, std::uint8_t* dst, std::size_t want) {
    std::size_t got = 0;
    while (got < want) {
      const ssize_t n = ::recv(conn, dst + got, want - got, 0);
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    return true;
  }

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<int> accepted_;
};

// A peer that accepts the TCP connection but never reads or writes: the
// request round-trip must fail at request_timeout_ms, not hang forever
// (the original bug this options struct exists to fix).
TEST(ResilientClient, RequestTimesOutOnStalledServer) {
  FakePeer peer;
  peer.listen(4);

  ClientOptions opts;
  opts.connect_timeout_ms = 1000;
  opts.request_timeout_ms = 200;
  opts.max_retries = 1;  // two bounded attempts
  opts.backoff_initial_ms = 10;
  opts.auto_reconnect = true;
  ClassifyClient client(opts);
  ASSERT_TRUE(client.connect("127.0.0.1", peer.port())) << client.error();

  const auto t0 = Clock::now();
  EXPECT_FALSE(client.ping());
  const auto ms = elapsed_ms(t0);
  // Two attempts of <=200ms plus one reconnect and backoff: well under
  // 2s, and at least one full request timeout.
  EXPECT_GE(ms, 190u);
  EXPECT_LT(ms, 2000u) << "deadline did not bound the stalled round-trip";
  EXPECT_NE(client.error().find("timed out"), std::string::npos)
      << client.error();
}

// A saturated accept queue leaves connect() in SYN-sent purgatory; the
// connect deadline must fire. Kernels sometimes accept a few extra
// connections past the backlog, so saturate generously and skip if the
// kernel still completes the handshake.
TEST(ResilientClient, ConnectTimesOutOnSaturatedBacklog) {
  FakePeer peer;
  peer.listen(1);
  // Fill the accept queue (nobody calls accept()).
  std::vector<int> fillers;
  for (int i = 0; i < 16; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    timeval tv{0, 200 * 1000};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(peer.port());
    (void)::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    fillers.push_back(fd);
  }

  ClientOptions opts;
  opts.connect_timeout_ms = 250;
  opts.max_retries = 0;
  ClassifyClient client(opts);
  const auto t0 = Clock::now();
  const bool connected = client.connect("127.0.0.1", peer.port());
  const auto ms = elapsed_ms(t0);
  for (const int fd : fillers) ::close(fd);
  if (connected) {
    GTEST_SKIP() << "kernel completed the handshake past the backlog";
  }
  EXPECT_GE(ms, 240u);
  EXPECT_LT(ms, 2000u) << "connect() was not bounded by connect_timeout_ms";
  EXPECT_NE(client.error().find("timed out"), std::string::npos)
      << client.error();
}

// A dropped connection mid-exchange must not fail the call: the client
// reconnects with backoff and resends. The fake peer kills the first
// connection on sight and serves the second one properly.
TEST(ResilientClient, AutoReconnectResendsAfterDrop) {
  FakePeer peer;
  peer.listen(4);

  std::thread server([&peer] {
    // First connection: slam the door.
    const int c1 = peer.accept_one();
    ::shutdown(c1, SHUT_RDWR);
    // Second connection: a well-mannered PONG.
    const int c2 = peer.accept_one();
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(FakePeer::read_frame(c2, payload));
    wire::Request req;
    std::string err;
    ASSERT_TRUE(wire::decode_request(payload, req, err)) << err;
    EXPECT_EQ(req.op, wire::Op::kPing);
    FakePeer::send_response(c2, wire::Response{req.op, wire::Status::kOk,
                                               req.id, {}, 0, {}});
  });

  ClientOptions opts;
  opts.request_timeout_ms = 1000;
  opts.max_retries = 3;
  opts.backoff_initial_ms = 5;
  opts.auto_reconnect = true;
  ClassifyClient client(opts);
  ASSERT_TRUE(client.connect("127.0.0.1", peer.port())) << client.error();
  EXPECT_TRUE(client.ping()) << client.error();
  server.join();
}

// With auto_reconnect off, the same drop fails the call — strict tools
// want the error, not the self-healing.
TEST(ResilientClient, NoReconnectWhenDisabled) {
  FakePeer peer;
  peer.listen(4);
  std::thread server([&peer] {
    const int c1 = peer.accept_one();
    ::shutdown(c1, SHUT_RDWR);
  });

  ClientOptions opts;
  opts.max_retries = 3;
  opts.backoff_initial_ms = 1;
  opts.auto_reconnect = false;
  ClassifyClient client(opts);
  ASSERT_TRUE(client.connect("127.0.0.1", peer.port())) << client.error();
  EXPECT_FALSE(client.ping());
  server.join();
}

// Replies the server understood-and-refused are NOT retried: one
// kError reply must produce exactly one request on the wire.
TEST(ResilientClient, NoRetryOnExplicitError) {
  FakePeer peer;
  peer.listen(4);

  std::atomic<int> frames_seen{0};
  std::thread server([&peer, &frames_seen] {
    const int conn = peer.accept_one();
    std::vector<std::uint8_t> payload;
    while (FakePeer::read_frame(conn, payload)) {
      frames_seen.fetch_add(1);
      wire::Request req;
      std::string err;
      ASSERT_TRUE(wire::decode_request(payload, req, err)) << err;
      FakePeer::send_response(conn, wire::Response{req.op, wire::Status::kError,
                                                   req.id, {}, 0, "no"});
    }
  });

  ClientOptions opts;
  opts.max_retries = 3;
  opts.backoff_initial_ms = 1;
  ClassifyClient client(opts);
  ASSERT_TRUE(client.connect("127.0.0.1", peer.port())) << client.error();
  EXPECT_FALSE(client.ping());
  EXPECT_EQ(client.status(), wire::Status::kError);
  client.close();  // unblocks the peer's read loop
  server.join();
  EXPECT_EQ(frames_seen.load(), 1) << "kError must not be retried";
}

// SHED is an explicit retry-later: the client must retry (same
// connection) and succeed once the server recovers.
TEST(ResilientClient, ShedIsRetriedUntilOk) {
  FakePeer peer;
  peer.listen(4);

  std::thread server([&peer] {
    const int conn = peer.accept_one();
    std::vector<std::uint8_t> payload;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(FakePeer::read_frame(conn, payload));
      wire::Request req;
      std::string err;
      ASSERT_TRUE(wire::decode_request(payload, req, err)) << err;
      const auto status = i < 2 ? wire::Status::kShed : wire::Status::kOk;
      FakePeer::send_response(conn,
                              wire::Response{req.op, status, req.id, {}, 0, {}});
    }
  });

  ClientOptions opts;
  opts.max_retries = 3;
  opts.backoff_initial_ms = 1;
  ClassifyClient client(opts);
  ASSERT_TRUE(client.connect("127.0.0.1", peer.port())) << client.error();
  EXPECT_TRUE(client.ping()) << client.error();
  server.join();
}

// A reply that comes long after the client's spin budget (50 us) ran
// out must still be received: the client falls back to poll() and
// wakes when it lands. The second reply arrives in two parts, its body
// as late as its prefix, so both reads of a frame park and wake.
TEST(ResilientClient, ReplyLongAfterSpinBudgetIsReceived) {
  FakePeer peer;
  peer.listen(4);
  constexpr auto kDelay = std::chrono::milliseconds(20);

  std::thread server([&peer, kDelay] {
    const int conn = peer.accept_one();
    std::vector<std::uint8_t> payload;
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(FakePeer::read_frame(conn, payload));
      wire::Request req;
      std::string err;
      ASSERT_TRUE(wire::decode_request(payload, req, err)) << err;
      std::vector<std::uint8_t> out;
      wire::encode_response(wire::Response{req.op, wire::Status::kOk, req.id, {}, 0, {}},
                            out);
      std::this_thread::sleep_for(kDelay);
      if (i == 0) {
        FakePeer::send_bytes(conn, out);
      } else {
        FakePeer::send_bytes(conn, std::span(out).first(wire::kLenPrefixBytes));
        std::this_thread::sleep_for(kDelay);
        FakePeer::send_bytes(conn, std::span(out).subspan(wire::kLenPrefixBytes));
      }
    }
  });

  ClientOptions opts;
  opts.request_timeout_ms = 2000;
  opts.max_retries = 0;
  opts.auto_reconnect = false;
  ClassifyClient client(opts);
  ASSERT_TRUE(client.connect("127.0.0.1", peer.port())) << client.error();
  auto t0 = Clock::now();
  EXPECT_TRUE(client.ping()) << client.error();
  EXPECT_GE(elapsed_ms(t0), 19u);
  t0 = Clock::now();
  EXPECT_TRUE(client.ping()) << client.error();
  EXPECT_GE(elapsed_ms(t0), 39u);
  server.join();
}

// A peer that never answers (its accept queue completes the handshake
// and buffers the request): the spin before the poll() wait must not
// stretch the call past request_timeout_ms, even when the deadline is
// hardly longer than the spin itself.
TEST(ResilientClient, SilentPeerFailsAtRequestDeadline) {
  FakePeer peer;
  peer.listen(4);
  for (const std::uint32_t timeout_ms : {1u, 30u}) {
    ClientOptions opts;
    opts.request_timeout_ms = timeout_ms;
    opts.max_retries = 0;
    opts.auto_reconnect = false;
    ClassifyClient client(opts);
    ASSERT_TRUE(client.connect("127.0.0.1", peer.port())) << client.error();
    const auto t0 = Clock::now();
    EXPECT_FALSE(client.ping());
    const auto ms = elapsed_ms(t0);
    EXPECT_GE(ms + 1, timeout_ms);
    EXPECT_LT(ms, timeout_ms + 500) << "the wait overran request_timeout_ms";
    EXPECT_NE(client.error().find("timed out"), std::string::npos) << client.error();
  }
}

// One request is in flight, so bytes after its reply frame are a
// protocol violation. The client reads a whole reply, and whatever
// follows it, in one recv; it must refuse the call rather than keep the
// stray bytes for the next reply.
TEST(ResilientClient, BytesAfterTheReplyFailTheCall) {
  FakePeer peer;
  peer.listen(4);
  std::thread server([&peer] {
    const int conn = peer.accept_one();
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(FakePeer::read_frame(conn, payload));
    wire::Request req;
    std::string err;
    ASSERT_TRUE(wire::decode_request(payload, req, err)) << err;
    std::vector<std::uint8_t> out;
    const wire::Response pong{req.op, wire::Status::kOk, req.id, {}, 0, {}};
    wire::encode_response(pong, out);
    wire::encode_response(pong, out);  // a second, unsolicited frame
    FakePeer::send_bytes(conn, out);   // one segment: both land at once
  });

  ClientOptions opts;
  opts.max_retries = 0;
  opts.auto_reconnect = false;
  ClassifyClient client(opts);
  ASSERT_TRUE(client.connect("127.0.0.1", peer.port())) << client.error();
  EXPECT_FALSE(client.ping());
  EXPECT_NE(client.error().find("unsolicited"), std::string::npos) << client.error();
  EXPECT_FALSE(client.connected());
  server.join();
}

}  // namespace
}  // namespace rfipc::server
