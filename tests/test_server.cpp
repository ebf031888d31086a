// End-to-end tests for the classification service (run under TSan via
// scripts/check.sh tsan — the update-visibility test is the acceptance
// check: concurrent clients must never observe a pre-update decision
// after the update's OK reply, which the server sends only once the
// publishing snapshot swap happened).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "persist/durable_log.h"
#include "ruleset/generator.h"
#include "ruleset/trace.h"
#include "runtime/sharded_classifier.h"
#include "server/classify_server.h"
#include "server/client.h"
#include "util/spin.h"

namespace rfipc::server {
namespace {

constexpr std::size_t kRules = 96;
constexpr std::uint64_t kSeed = 31;

class ServerTest : public ::testing::Test {
 protected:
  void start(ServerConfig cfg = {}) {
    rules_ = durable_ != nullptr ? durable_->rules_snapshot()
                                 : ruleset::generate_firewall(kRules, kSeed);
    runtime::ShardedConfig rcfg;
    rcfg.shards = 2;
    if (durable_ != nullptr) {
      // The production wiring from rfipcd: journal on the applier
      // thread before futures resolve, server reads the log for dedupe.
      persist::DurableLog* log = durable_.get();
      rcfg.durability_hook = [log](std::span<const runtime::UpdateOp> ops) {
        std::vector<persist::RuleOp> journal_ops;
        for (const auto& op : ops) {
          journal_ops.push_back(
              op.kind == runtime::UpdateOp::Kind::kInsert
                  ? persist::RuleOp::insert(op.index, op.rule, op.token)
                  : persist::RuleOp::erase(op.index, op.token));
        }
        std::string err;
        ASSERT_TRUE(log->append_ops(journal_ops, err)) << err;
      };
      cfg.durable = log;
    }
    classifier_ = std::make_unique<runtime::ShardedClassifier>(rules_, rcfg);
    srv_ = std::make_unique<ClassifyServer>(*classifier_, std::move(cfg));
    serving_ = std::thread([this] { srv_->run(); });

    if (headers_.empty()) {
      ruleset::TraceConfig tcfg;
      tcfg.size = 256;
      tcfg.seed = kSeed + 1;
      for (const auto& t : ruleset::generate_trace(rules_, tcfg)) {
        headers_.emplace_back(t);
      }
    }
  }

  /// start() with a freshly seeded (or recovered) DurableLog in `dir`.
  void start_durable(const std::string& dir, ServerConfig cfg = {}) {
    persist::DurableLogConfig pcfg;
    pcfg.dir = dir;
    pcfg.fsync = persist::FsyncPolicy::kNone;  // logic under test, not disks
    std::string err;
    durable_ = persist::DurableLog::open(std::move(pcfg), err);
    ASSERT_NE(durable_, nullptr) << err;
    if (!durable_->recovery().checkpoint_loaded && durable_->last_seq() == 0) {
      ASSERT_TRUE(durable_->seed(ruleset::generate_firewall(kRules, kSeed), err))
          << err;
    }
    start(std::move(cfg));
  }

  void stop() {
    if (srv_) {
      srv_->request_drain();
      serving_.join();
      srv_.reset();
    }
    classifier_.reset();
    durable_.reset();
  }

  void TearDown() override {
    if (srv_) {
      srv_->request_drain();
      serving_.join();
    }
  }

  /// What the in-process classify_batch path answers for `headers`,
  /// in wire form.
  std::vector<std::uint64_t> expected_best(std::span<const net::HeaderBits> headers) {
    std::vector<engines::MatchResult> results(headers.size());
    classifier_->classify_batch(headers, results,
                                engines::BatchOptions{.want_multi = false});
    std::vector<std::uint64_t> best;
    for (const auto& r : results) best.push_back(r.has_match() ? r.best : wire::kNoMatch);
    return best;
  }

  std::string temp_dir() {
    const auto dir =
        std::filesystem::path(::testing::TempDir()) /
        ("rfipc_server_" +
         std::string(
             ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
  }

  ruleset::RuleSet rules_;
  std::unique_ptr<persist::DurableLog> durable_;  // before classifier_: hook outlives
  std::unique_ptr<runtime::ShardedClassifier> classifier_;
  std::unique_ptr<ClassifyServer> srv_;
  std::thread serving_;
  std::vector<net::HeaderBits> headers_;
};

TEST_F(ServerTest, BasicOpsMatchGolden) {
  start();
  ClassifyClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", srv_->port())) << client.error();
  ASSERT_TRUE(client.ping()) << client.error();

  std::vector<std::uint64_t> best;
  ASSERT_TRUE(client.classify(headers_, best)) << client.error();
  ASSERT_EQ(best.size(), headers_.size());
  // Golden: the highest-priority matching rule by direct evaluation.
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    std::uint64_t expect = wire::kNoMatch;
    const auto tuple = headers_[i].unpack();
    for (std::size_t r = 0; r < rules_.size(); ++r) {
      if (rules_[r].matches(tuple)) {
        expect = r;
        break;
      }
    }
    EXPECT_EQ(best[i], expect) << "packet " << i;
  }

  std::string json;
  ASSERT_TRUE(client.stats_json(json)) << client.error();
  EXPECT_NE(json.find("\"server\""), std::string::npos);
  EXPECT_NE(json.find("\"shed\":0"), std::string::npos);
}

TEST_F(ServerTest, InsertEraseRoundtrip) {
  start();
  ClassifyClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", srv_->port())) << client.error();

  ASSERT_TRUE(client.insert_rule(0, ruleset::Rule::any())) << client.error();
  std::vector<std::uint64_t> best;
  ASSERT_TRUE(client.classify(headers_, best)) << client.error();
  for (const std::uint64_t b : best) EXPECT_EQ(b, 0u);

  ASSERT_TRUE(client.erase_rule(0)) << client.error();
  ASSERT_TRUE(client.classify(headers_, best)) << client.error();
  std::size_t still_zero = 0;
  for (const std::uint64_t b : best) still_zero += (b == 0);
  // With the catch-all gone, rule 0 is the original highest-priority
  // rule again — it can match some packets but not all 256.
  EXPECT_LT(still_zero, headers_.size());
}

// The acceptance test: concurrent clients classify while another
// client inserts a catch-all at index 0. Once the updater's OK reply
// has been received, every classify REQUESTED AFTER that moment must
// see the catch-all win (best == 0 for all packets). The server's OK
// reply is sent only after the update future resolves, i.e. after the
// snapshot containing the rule was published, and snapshot publication
// also invalidates the flow cache — so a stale decision here is a
// linearization bug, not scheduling noise.
TEST_F(ServerTest, UpdateVisibilityAcrossConnections) {
  start();
  std::atomic<bool> inserted{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> stale{0};
  std::atomic<std::uint64_t> post_insert_batches{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      ClassifyClient client;
      ASSERT_TRUE(client.connect("127.0.0.1", srv_->port())) << client.error();
      std::vector<std::uint64_t> best;
      while (!stop.load(std::memory_order_acquire)) {
        const bool after_insert = inserted.load(std::memory_order_acquire);
        if (!client.classify(headers_, best)) break;  // drain may cut us off
        if (after_insert) {
          post_insert_batches.fetch_add(1);
          for (const std::uint64_t b : best) stale += (b != 0);
        }
      }
    });
  }

  {
    ClassifyClient updater;
    ASSERT_TRUE(updater.connect("127.0.0.1", srv_->port())) << updater.error();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // readers warm
    ASSERT_TRUE(updater.insert_rule(0, ruleset::Rule::any())) << updater.error();
    inserted.store(true, std::memory_order_release);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_GT(post_insert_batches.load(), 0u);
  EXPECT_EQ(stale.load(), 0u);
}

// Saturating a server configured with tiny admission limits must yield
// explicit SHED replies — not timeouts, not unbounded buffering — and
// the shed counter must say so. Uses a raw socket so requests can be
// pipelined without reading replies (the blocking client can't).
TEST_F(ServerTest, SaturationShedsExplicitly) {
  ServerConfig cfg;
  cfg.max_inflight_batches = 2;
  cfg.outbound_watermark = 4 * 1024;
  cfg.so_sndbuf = 8 * 1024;  // trip kernel-buffer backpressure fast
  start(cfg);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4 * 1024;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(srv_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // Pipeline many classify batches without consuming a single reply.
  constexpr std::uint32_t kBatches = 512;
  wire::Request req;
  req.op = wire::Op::kClassifyBatch;
  req.headers = headers_;
  std::vector<std::uint8_t> out;
  for (std::uint32_t i = 0; i < kBatches; ++i) {
    req.id = i;
    wire::encode_request(req, out);
  }
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    sent += static_cast<std::size_t>(n);
  }

  // Hold off reading until the server has handled every request — with
  // nobody draining, its replies wall up against the kernel buffers and
  // admission control must start shedding (rather than buffering the
  // backlog or stalling).
  for (int spin = 0; spin < 2000 && srv_->counters().requests < kBatches; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(srv_->counters().requests, kBatches) << "server stalled mid-backlog";

  // Now read all replies: every request must be answered, each either
  // OK or SHED, in order.
  wire::FrameAssembler fa;
  std::string err;
  std::vector<std::uint8_t> payload;
  std::uint8_t buf[4096];
  std::uint32_t ok = 0;
  std::uint32_t shed = 0;
  std::uint32_t next_id = 0;
  while (ok + shed < kBatches) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "connection died before all replies arrived";
    ASSERT_TRUE(fa.feed({buf, static_cast<std::size_t>(n)}, err)) << err;
    while (fa.next(payload)) {
      wire::Response rsp;
      ASSERT_TRUE(wire::decode_response(payload, rsp, err)) << err;
      EXPECT_EQ(rsp.id, next_id++);
      if (rsp.status == wire::Status::kOk) {
        EXPECT_EQ(rsp.best.size(), headers_.size());
        ++ok;
      } else {
        ASSERT_EQ(rsp.status, wire::Status::kShed);
        ++shed;
      }
    }
  }
  ::close(fd);
  EXPECT_GT(ok, 0u);
  EXPECT_GT(shed, 0u) << "saturation should trip admission control";
  EXPECT_GE(srv_->counters().shed, shed);
}

TEST_F(ServerTest, MalformedFrameDropsConnectionAndCounts) {
  start();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(srv_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  const std::uint8_t poison[8] = {0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4};
  ASSERT_EQ(::send(fd, poison, sizeof(poison), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(poison)));
  // The server must close on the unrecoverable framing error.
  std::uint8_t buf[64];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);
  EXPECT_GE(srv_->counters().decode_errors, 1u);

  // A bad MESSAGE inside a well-formed frame is survivable: the reply
  // is BAD_REQUEST and the connection stays up.
  ClassifyClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", srv_->port())) << client.error();
  ASSERT_TRUE(client.ping()) << client.error();
}

// The reactor stops reading on a short read and relies on the
// level-triggered epoll to report later bytes, so a request trickling in
// over many reads and several requests landing in one read must both
// come out whole and in order.
TEST_F(ServerTest, FragmentedAndCoalescedRequestsAnswerInOrder) {
  start();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int one = 1;  // every small write becomes its own segment
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(srv_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  const auto send_all = [&](const std::uint8_t* data, std::size_t size) {
    std::size_t sent = 0;
    while (sent < size) {
      const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      sent += static_cast<std::size_t>(n);
    }
  };
  wire::FrameAssembler fa;
  std::vector<std::uint8_t> payload;
  const auto expect_reply = [&](std::uint32_t id,
                                std::span<const net::HeaderBits> headers) {
    std::string err;
    std::uint8_t buf[4096];
    while (!fa.next(payload)) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0) << "connection died before reply " << id;
      ASSERT_TRUE(fa.feed({buf, static_cast<std::size_t>(n)}, err)) << err;
    }
    wire::Response rsp;
    ASSERT_TRUE(wire::decode_response(payload, rsp, err)) << err;
    EXPECT_EQ(rsp.id, id);
    ASSERT_EQ(rsp.status, wire::Status::kOk) << rsp.text;
    EXPECT_EQ(rsp.best, expected_best(headers)) << "reply " << id;
  };

  const std::span<const net::HeaderBits> all(headers_);
  wire::Request req;
  req.op = wire::Op::kClassifyBatch;

  // 1. One full batch, a few bytes per write with pauses in between.
  req.id = 1;
  req.headers = headers_;
  std::vector<std::uint8_t> out;
  wire::encode_request(req, out);
  for (std::size_t pos = 0, step = 0; pos < out.size(); ++step) {
    const std::size_t len = std::min<std::size_t>(1 + step % 9, out.size() - pos);
    send_all(out.data() + pos, len);
    pos += len;
    if (step % 16 == 0) std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  expect_reply(1, all);

  // 2. Three frames of different sizes in a single write.
  const std::span<const net::HeaderBits> parts[3] = {all, all.subspan(0, 1),
                                                      all.subspan(100, 17)};
  out.clear();
  for (std::uint32_t i = 0; i < 3; ++i) {
    req.id = 2 + i;
    req.headers.assign(parts[i].begin(), parts[i].end());
    wire::encode_request(req, out);
  }
  send_all(out.data(), out.size());
  for (std::uint32_t i = 0; i < 3; ++i) expect_reply(2 + i, parts[i]);
  EXPECT_FALSE(fa.next(payload)) << "no reply beyond the four requests";
  ::close(fd);
  EXPECT_EQ(srv_->counters().decode_errors, 0u);
}

// The client reuses its request/reply buffers across calls: batch sizes
// that grow and shrink must never leak a stale element, and the
// buffers must not tie a moved client to its source.
TEST_F(ServerTest, ClientReusesBuffersAcrossBatchSizes) {
  start();
  std::vector<net::HeaderBits> big;
  while (big.size() < wire::kMaxBatch) {
    big.insert(big.end(), headers_.begin(), headers_.end());
  }
  big.resize(wire::kMaxBatch);
  const std::span<const net::HeaderBits> all(big);

  ClassifyClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", srv_->port())) << client.error();
  std::vector<std::uint64_t> best;
  const auto check = [&](ClassifyClient& c, std::span<const net::HeaderBits> batch) {
    ASSERT_TRUE(c.classify(batch, best)) << c.error();
    EXPECT_EQ(best, expected_best(batch)) << "batch of " << batch.size();
  };
  for (const std::size_t n : {std::size_t{256}, std::size_t{1}, std::size_t{17},
                              wire::kMaxBatch, std::size_t{1}}) {
    check(client, all.first(n));
  }

  ClassifyClient moved(std::move(client));
  check(moved, all.subspan(5, 300));
  ClassifyClient assigned;
  assigned = std::move(moved);
  check(assigned, all.subspan(0, 17));
  check(assigned, all);
}

// A journaled server's OK reply carries the journal seq, and the state
// it acked must be there after a clean stop + recovery — the wire-level
// half of the durability contract (the kill -9 half lives in
// scripts/crash_recovery_smoke.sh).
TEST_F(ServerTest, DurableAckSurvivesRestart) {
  const auto dir = temp_dir();
  start_durable(dir);
  {
    ClassifyClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", srv_->port())) << client.error();
    ASSERT_TRUE(client.insert_rule(0, ruleset::Rule::any())) << client.error();
    // The ack names where in the journal the update landed.
    EXPECT_GT(client.last_seq(), 0u);
    ASSERT_TRUE(client.erase_rule(1)) << client.error();
    EXPECT_EQ(client.last_seq(), 2u);
    std::string json;
    ASSERT_TRUE(client.stats_json(json)) << client.error();
    EXPECT_NE(json.find("\"persist\":{\"enabled\":true"), std::string::npos);
    EXPECT_NE(json.find("\"last_seq\":2"), std::string::npos);
  }
  stop();

  // Restart from the directory alone: the catch-all must still win.
  start_durable(dir);
  EXPECT_EQ(durable_->last_seq(), 2u);
  ClassifyClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", srv_->port())) << client.error();
  std::vector<std::uint64_t> best;
  ASSERT_TRUE(client.classify(headers_, best)) << client.error();
  for (const std::uint64_t b : best) EXPECT_EQ(b, 0u);
}

// A retried update (same idempotency token) must be answered with the
// ORIGINAL ack instead of applying twice. Uses a raw socket: the real
// client never reuses a token except on an actual retry.
TEST_F(ServerTest, DuplicateTokenIsAnsweredFromJournal) {
  start_durable(temp_dir());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(srv_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  const auto roundtrip = [&](std::uint32_t id, wire::Response& rsp) {
    wire::Request req;
    req.op = wire::Op::kInsertRule;
    req.id = id;
    req.index = 0;
    req.rule = ruleset::Rule::any();
    req.token = 0xFEEDFACE;  // the SAME token both times
    std::vector<std::uint8_t> out;
    wire::encode_request(req, out);
    ASSERT_EQ(::send(fd, out.data(), out.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(out.size()));
    wire::FrameAssembler fa;
    std::vector<std::uint8_t> payload;
    std::uint8_t buf[512];
    std::string err;
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0);
      ASSERT_TRUE(fa.feed({buf, static_cast<std::size_t>(n)}, err)) << err;
      if (fa.next(payload)) break;
    }
    ASSERT_TRUE(wire::decode_response(payload, rsp, err)) << err;
  };

  wire::Response first;
  roundtrip(1, first);
  ASSERT_EQ(first.status, wire::Status::kOk);
  EXPECT_EQ(first.seq, 1u);

  wire::Response second;
  roundtrip(2, second);
  ::close(fd);
  ASSERT_EQ(second.status, wire::Status::kOk);
  EXPECT_EQ(second.seq, first.seq) << "retry must get the ORIGINAL ack";
  // Applied once: the journal assigned one seq, the mirror grew by one.
  EXPECT_EQ(durable_->last_seq(), 1u);
  EXPECT_EQ(durable_->rules_snapshot().size(), kRules + 1);
  EXPECT_EQ(durable_->stats().dedupe_hits, 1u);
}

// Without a journal, updates still work and replies carry seq=0 — the
// client can tell it is talking to a memory-only server.
TEST_F(ServerTest, MemoryOnlyServerAcksSeqZero) {
  start();
  ClassifyClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", srv_->port())) << client.error();
  ASSERT_TRUE(client.insert_rule(0, ruleset::Rule::any())) << client.error();
  EXPECT_EQ(client.last_seq(), 0u);
  std::string json;
  ASSERT_TRUE(client.stats_json(json)) << client.error();
  EXPECT_NE(json.find("\"persist\":{\"enabled\":false"), std::string::npos);
}

TEST_F(ServerTest, DrainRefusesNewConnectionsAndStops) {
  start();
  ClassifyClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", srv_->port())) << client.error();
  ASSERT_TRUE(client.ping()) << client.error();

  srv_->request_drain();
  serving_.join();  // run() must return on its own

  ClassifyClient late;
  EXPECT_FALSE(late.connect("127.0.0.1", srv_->port()));
  srv_.reset();
  srv_ = nullptr;  // TearDown: nothing left to drain
}

/// CPU time the thread behind `handle` has used so far.
std::chrono::nanoseconds thread_cpu_time(pthread_t handle) {
  clockid_t cid{};
  EXPECT_EQ(pthread_getcpuclockid(handle, &cid), 0);
  timespec ts{};
  EXPECT_EQ(clock_gettime(cid, &ts), 0);
  return std::chrono::seconds(ts.tv_sec) + std::chrono::nanoseconds(ts.tv_nsec);
}

// The reactor spins for at most one budget after its last event, then
// parks in epoll_wait: an idle server costs (almost) no CPU even though
// a loaded one polls. Only the 100 ms maintenance tick and the spin
// after it run in the idle window.
TEST_F(ServerTest, IdleReactorParksAfterBurst) {
  start();
  ClassifyClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", srv_->port())) << client.error();
  std::vector<std::uint64_t> best;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client.classify(headers_, best)) << client.error();
  }

  constexpr auto kWindow = std::chrono::milliseconds(300);
  const auto cpu0 = thread_cpu_time(serving_.native_handle());
  const auto wall0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(kWindow);
  const auto cpu = thread_cpu_time(serving_.native_handle()) - cpu0;
  const auto wall = std::chrono::steady_clock::now() - wall0;
  EXPECT_LT(cpu * 10, wall) << "reactor used "
                            << std::chrono::duration<double, std::milli>(cpu).count()
                            << " ms of CPU in an idle "
                            << std::chrono::duration<double, std::milli>(wall).count()
                            << " ms window";
  ASSERT_TRUE(client.ping()) << client.error();  // still serving after parking
}

/// Restricts the calling thread (and the threads it starts) to one CPU
/// for its lifetime, restoring the old mask after.
class OneCpu {
 public:
  OneCpu() {
    CPU_ZERO(&saved_);
    ok_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    if (!ok_) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) {
        CPU_SET(c, &one);
        break;
      }
    }
    ok_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~OneCpu() {
    if (ok_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

  bool ok() const { return ok_; }
  std::size_t saved_count() const { return static_cast<std::size_t>(CPU_COUNT(&saved_)); }

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

// On one allowed CPU a spinner would hold the CPU its peer needs, so
// the budget is zero: reactor and client park at once, and every
// request type still round-trips.
TEST_F(ServerTest, SingleCpuAffinityZeroesSpinBudget) {
  std::size_t cpus = 0;
  {
    OneCpu pin;
    ASSERT_TRUE(pin.ok());
    cpus = pin.saved_count();
    EXPECT_EQ(util::allowed_cpu_count(), 1u);
    EXPECT_EQ(util::spin_budget(), std::chrono::nanoseconds::zero());

    start();  // reactor, waiter and shard workers inherit the mask
    ClassifyClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", srv_->port())) << client.error();
    ASSERT_TRUE(client.ping()) << client.error();
    std::vector<std::uint64_t> best;
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(client.classify(headers_, best)) << client.error();
      EXPECT_EQ(best, expected_best(headers_));
    }
    ASSERT_TRUE(client.insert_rule(0, rules_[kRules - 1])) << client.error();
    ASSERT_TRUE(client.erase_rule(0)) << client.error();
    stop();
  }
  if (cpus > 1) {
    EXPECT_EQ(util::spin_budget(), util::kSpinBudget);
  }
}

}  // namespace
}  // namespace rfipc::server
