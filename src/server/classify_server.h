// rfipcd's serving core: a ClassifyServer hosting the sharded runtime
// behind a TCP socket on the epoll reactor.
//
// One reactor thread owns every connection and the classification call
// itself (ShardedClassifier::classify_batch fans out internally and its
// lookups are lock-free, so the reactor never blocks on locks). Rule
// updates are the only asynchronous path: they are submitted to the
// runtime's UpdateQueue and a dedicated waiter thread blocks on the
// completion futures IN SUBMISSION ORDER, handing results back to the
// reactor through a Notifier — so a client's OK reply is written only
// after the snapshot containing its update has been published, and a
// classify issued after that reply can never see a pre-update decision.
//
// The reactor spins briefly before it parks (EventLoop: up to
// util::spin_budget(), 50 us, after each dispatch round, zero on a
// single allowed CPU), as do ClassifyClient's reply waits, so a loaded
// round trip avoids two sleep/wake hand-offs; an idle server still
// sleeps, spending at most one budget per maintenance tick.
//
// Production behaviors, all first-class:
//
// * Write backpressure — replies go into a bounded per-connection
//   outbound queue flushed opportunistically and re-armed on EPOLLOUT.
//   A client that stops reading stops being served: once its queue
//   passes `outbound_watermark` further CLASSIFY_BATCHes get a SHED
//   reply (a few bytes) instead of a result frame, and past
//   `outbound_hard_limit` the connection is dropped as overloaded.
// * Admission control / load shedding — at most `max_inflight_batches`
//   classify replies may be queued-but-unflushed across all
//   connections and at most `max_pending_updates` update futures
//   outstanding; over-limit requests receive an explicit SHED error
//   (never a timeout, never unbounded buffering) and the shed counter
//   in StatsSnapshot::server increments.
// * Idle reaping — connections silent for `idle_timeout_ms` are closed
//   by the maintenance timer.
// * Graceful drain — request_drain() (async-signal-safe; wire it to
//   SIGTERM) stops accepting, stops reading, flushes every outbound
//   queue, waits for in-flight updates to publish and reply, then
//   stops the loop; `drain_timeout_ms` bounds the wait.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "persist/durable_log.h"
#include "runtime/sharded_classifier.h"
#include "server/event_loop.h"
#include "server/wire.h"

namespace rfipc::server {

/// Threads the service layer itself runs: the epoll reactor plus the
/// update-future waiter. Embedders sizing a ShardedClassifier next to
/// a ClassifyServer must hand this to ShardedConfig::reserved_cores so
/// shard workers, reactor, and waiter all come out of ONE core budget
/// — otherwise a small machine oversubscribes and the shard fan-out
/// runs slower than serial (the BENCH_runtime.json inversion).
inline constexpr std::size_t kServiceThreads = 2;

struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back via port().
  std::uint16_t port = 0;
  std::size_t max_connections = 256;
  std::size_t max_frame_bytes = wire::kMaxFrameBytes;
  /// Admission control: classify replies queued-but-unflushed (global).
  std::size_t max_inflight_batches = 64;
  /// Admission control: update futures outstanding (global).
  std::size_t max_pending_updates = 1024;
  /// Per-connection outbound bytes above which classify requests shed.
  std::size_t outbound_watermark = 1u << 20;
  /// Per-connection outbound bytes above which the connection drops.
  std::size_t outbound_hard_limit = 4u << 20;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default. Tests
  /// shrink it so backpressure trips without megabytes of kernel
  /// buffering in the way.
  std::size_t so_sndbuf = 0;
  /// Idle-connection reaping; 0 disables.
  std::uint32_t idle_timeout_ms = 60'000;
  /// Maintenance timer period (reaping, drain watchdog).
  std::uint32_t tick_ms = 100;
  /// Upper bound on a graceful drain before the loop stops regardless.
  std::uint32_t drain_timeout_ms = 5'000;
  /// Write-ahead journal backing the ruleset, or nullptr for a
  /// memory-only server. NOT owned; must outlive the server. The owner
  /// (rfipcd) also installs the matching ShardedConfig durability_hook
  /// — the server only reads it: token dedupe for retried updates
  /// (seq_for_token) and the persist stats block. Must be the same log
  /// the hook appends to, or acked seqs will lie.
  persist::DurableLog* durable = nullptr;
  /// Capture-plane stats provider (rfipcd wires CaptureLoop::counters
  /// here when --capture is active), filled into the STATS reply. A
  /// std::function so the server never depends on src/capture/; empty
  /// = no capture block (enabled=false).
  std::function<runtime::CaptureCounters()> capture_stats;
};

class ClassifyServer {
 public:
  /// Binds and listens immediately (throws std::system_error on
  /// failure); serving starts with run(). `classifier` must outlive the
  /// server.
  ClassifyServer(runtime::ShardedClassifier& classifier, ServerConfig config);
  ~ClassifyServer();

  ClassifyServer(const ClassifyServer&) = delete;
  ClassifyServer& operator=(const ClassifyServer&) = delete;

  /// The actually-bound port (resolves port=0 ephemeral binds).
  std::uint16_t port() const { return port_; }

  /// Serves until a drain completes. Call from exactly one thread.
  void run();

  /// Starts a graceful drain. Safe from any thread and from signal
  /// handlers (eventfd-backed) — wire SIGTERM here.
  void request_drain();

  /// Runtime snapshot with the server block filled in (what STATS
  /// serves). Safe from any thread.
  runtime::StatsSnapshot stats_snapshot() const;
  runtime::ServerCounters counters() const;

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t serial = 0;  // guards fd reuse across update futures
    wire::FrameAssembler frames;
    std::vector<std::uint8_t> out;  // encoded-but-unsent reply bytes
    std::size_t out_pos = 0;
    std::size_t queued_classify = 0;  // classify replies inside `out`
    std::size_t pending_updates = 0;  // futures not yet replied
    bool want_write = false;          // EPOLLOUT armed
    bool draining = false;            // close once out + updates drain
    std::chrono::steady_clock::time_point last_activity;
  };

  /// An update handed to the waiter thread.
  struct PendingUpdate {
    std::future<bool> done;
    int fd = -1;
    std::uint64_t serial = 0;
    std::uint32_t request_id = 0;
    std::uint64_t token = 0;
    wire::Op op = wire::Op::kInsertRule;
    bool stop = false;  // sentinel: waiter exits
  };
  /// A resolved update travelling back to the reactor.
  struct CompletedUpdate {
    int fd = -1;
    std::uint64_t serial = 0;
    std::uint32_t request_id = 0;
    std::uint64_t token = 0;
    std::uint64_t seq = 0;  // journal seq (0 = no journal / rejected)
    wire::Op op = wire::Op::kInsertRule;
    bool applied = false;
  };

  void open_listener();
  void on_accept();
  void on_connection_event(int fd, std::uint32_t events);
  void on_readable(Connection& conn);
  void handle_frame(Connection& conn, const std::vector<std::uint8_t>& payload);
  void handle_classify(Connection& conn, const wire::Request& req);
  void handle_update(Connection& conn, const wire::Request& req);
  void shed(Connection& conn, const wire::Request& req, const char* why);

  void enqueue_response(Connection& conn, const wire::Response& rsp);
  void flush_out(Connection& conn);
  void update_write_interest(Connection& conn);
  void close_connection(int fd);

  void waiter_loop();
  void on_updates_completed();

  void on_tick();
  void begin_drain();
  void maybe_finish_drain();

  runtime::ShardedClassifier& classifier_;
  ServerConfig config_;
  EventLoop loop_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t next_serial_ = 1;
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;

  // Reactor-thread scratch, reused across requests (zero steady-state
  // allocation on the classify path).
  wire::Request req_;
  wire::Response rsp_;
  std::vector<engines::MatchResult> results_;
  std::vector<std::uint8_t> read_buf_;
  std::vector<std::uint8_t> payload_;  // the frame being handled

  std::size_t inflight_classify_ = 0;  // loop thread only
  /// Tokens of updates submitted but not yet acked (loop thread only).
  /// A duplicate token arriving while the original is still in flight
  /// is SHED (retryable) instead of double-applied; once the original
  /// lands, retries are answered from the journal's token map.
  std::unordered_set<std::uint64_t> inflight_tokens_;

  // Update plane hand-off.
  Notifier update_notifier_;
  Notifier drain_notifier_;
  std::mutex update_mu_;
  std::condition_variable update_cv_;
  std::deque<PendingUpdate> pending_updates_;
  std::deque<CompletedUpdate> completed_updates_;
  std::size_t outstanding_updates_ = 0;  // loop thread only
  std::thread waiter_;

  bool draining_ = false;
  std::chrono::steady_clock::time_point drain_deadline_;

  // Counters are atomics so counters()/stats_snapshot() may be called
  // from other threads while the reactor serves.
  mutable std::atomic<std::uint64_t> connections_{0};
  mutable std::atomic<std::uint64_t> connections_total_{0};
  mutable std::atomic<std::uint64_t> requests_{0};
  mutable std::atomic<std::uint64_t> shed_{0};
  mutable std::atomic<std::uint64_t> decode_errors_{0};
  mutable std::atomic<std::uint64_t> bytes_in_{0};
  mutable std::atomic<std::uint64_t> bytes_out_{0};
};

}  // namespace rfipc::server
