#include "server/classify_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

namespace rfipc::server {
namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

constexpr std::size_t kReadChunk = 16 * 1024;

}  // namespace

ClassifyServer::ClassifyServer(runtime::ShardedClassifier& classifier,
                               ServerConfig config)
    : classifier_(classifier), config_(std::move(config)) {
  read_buf_.resize(kReadChunk);
  open_listener();
  loop_.add(listen_fd_, EventLoop::kRead, [this](std::uint32_t) { on_accept(); });
  loop_.add_notifier(update_notifier_, [this] { on_updates_completed(); });
  loop_.add_notifier(drain_notifier_, [this] { begin_drain(); });
  loop_.add_timer(std::chrono::milliseconds(config_.tick_ms), [this] { on_tick(); });
  waiter_ = std::thread([this] { waiter_loop(); });
}

ClassifyServer::~ClassifyServer() {
  {
    std::lock_guard<std::mutex> lock(update_mu_);
    PendingUpdate stop;
    stop.stop = true;
    pending_updates_.push_back(std::move(stop));
  }
  update_cv_.notify_one();
  if (waiter_.joinable()) waiter_.join();
  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void ClassifyServer::open_listener() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (config_.host.empty()) {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = EINVAL;
    throw_errno("inet_pton");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("bind/listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

void ClassifyServer::run() { loop_.run(); }

void ClassifyServer::request_drain() { drain_notifier_.signal(); }

void ClassifyServer::on_accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays armed
    }
    if (draining_ || conns_.size() >= config_.max_connections) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (config_.so_sndbuf > 0) {
      const int sndbuf = static_cast<int>(config_.so_sndbuf);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->serial = next_serial_++;
    conn->frames = wire::FrameAssembler(config_.max_frame_bytes);
    conn->last_activity = std::chrono::steady_clock::now();
    conns_.emplace(fd, std::move(conn));
    loop_.add(fd, EventLoop::kRead,
              [this, fd](std::uint32_t events) { on_connection_event(fd, events); });
    connections_.fetch_add(1, std::memory_order_relaxed);
    connections_total_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ClassifyServer::on_connection_event(int fd, std::uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (events & EventLoop::kError) {
    close_connection(fd);
    return;
  }
  if (events & EventLoop::kRead) {
    on_readable(*it->second);
    it = conns_.find(fd);  // the handler may have closed it
    if (it == conns_.end()) return;
  }
  if (events & EventLoop::kWrite) flush_out(*it->second);
}

void ClassifyServer::on_readable(Connection& conn) {
  const int fd = conn.fd;
  conn.last_activity = std::chrono::steady_clock::now();
  for (;;) {
    const ssize_t n = ::read(fd, read_buf_.data(), read_buf_.size());
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
      std::string err;
      if (!conn.frames.feed({read_buf_.data(), static_cast<std::size_t>(n)}, err)) {
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
        close_connection(fd);
        return;
      }
      // A short read drained the socket; epoll is level-triggered, so
      // bytes landing after it are re-reported instead of costing an
      // EAGAIN read here.
      if (static_cast<std::size_t>(n) < read_buf_.size()) break;
      continue;
    }
    if (n == 0) {  // peer closed
      close_connection(fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(fd);
    return;
  }
  while (conn.frames.next(payload_)) {
    handle_frame(conn, payload_);
    if (conns_.count(fd) == 0) return;  // handler dropped the connection
  }
  if (conn.frames.failed()) {
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    close_connection(fd);
  }
}

void ClassifyServer::handle_frame(Connection& conn,
                                  const std::vector<std::uint8_t>& payload) {
  std::string err;
  if (!wire::decode_request(payload, req_, err)) {
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    rsp_.op = req_.op;
    rsp_.status = wire::Status::kBadRequest;
    rsp_.id = req_.id;
    rsp_.best.clear();
    rsp_.text = err;
    enqueue_response(conn, rsp_);
    return;
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  switch (req_.op) {
    case wire::Op::kPing:
      rsp_ = wire::Response{req_.op, wire::Status::kOk, req_.id, {}, 0, {}};
      enqueue_response(conn, rsp_);
      return;
    case wire::Op::kStats:
      rsp_ = wire::Response{req_.op, wire::Status::kOk, req_.id, {}, 0,
                            stats_snapshot().to_json()};
      enqueue_response(conn, rsp_);
      return;
    case wire::Op::kClassifyBatch:
      handle_classify(conn, req_);
      return;
    case wire::Op::kInsertRule:
    case wire::Op::kEraseRule:
      handle_update(conn, req_);
      return;
  }
}

void ClassifyServer::shed(Connection& conn, const wire::Request& req,
                          const char* why) {
  shed_.fetch_add(1, std::memory_order_relaxed);
  rsp_.op = req.op;
  rsp_.status = wire::Status::kShed;
  rsp_.id = req.id;
  rsp_.best.clear();
  rsp_.text = why;
  enqueue_response(conn, rsp_);
}

void ClassifyServer::handle_classify(Connection& conn, const wire::Request& req) {
  if (inflight_classify_ >= config_.max_inflight_batches) {
    shed(conn, req, "too many in-flight batches");
    return;
  }
  if (conn.out.size() - conn.out_pos > config_.outbound_watermark) {
    shed(conn, req, "outbound queue over watermark");
    return;
  }
  results_.resize(req.headers.size());
  classifier_.classify_batch(req.headers, results_,
                             engines::BatchOptions{.want_multi = false});
  rsp_.op = req.op;
  rsp_.status = wire::Status::kOk;
  rsp_.id = req.id;
  rsp_.text.clear();
  rsp_.best.resize(results_.size());
  for (std::size_t i = 0; i < results_.size(); ++i) {
    rsp_.best[i] = results_[i].has_match() ? results_[i].best : wire::kNoMatch;
  }
  enqueue_response(conn, rsp_);
}

void ClassifyServer::handle_update(Connection& conn, const wire::Request& req) {
  // Idempotent resubmission: a token the journal already remembers was
  // applied AND acked durable — answer with the original outcome
  // instead of applying it twice (the client lost the reply, not the
  // update).
  if (config_.durable != nullptr && req.token != 0) {
    if (const auto seq = config_.durable->seq_for_token(req.token)) {
      config_.durable->record_dedupe_hit();
      rsp_.op = req.op;
      rsp_.status = wire::Status::kOk;
      rsp_.id = req.id;
      rsp_.best.clear();
      rsp_.text.clear();
      rsp_.seq = *seq;
      enqueue_response(conn, rsp_);
      return;
    }
    // The original is still in flight (submitted, not yet published):
    // SHED the duplicate — retryable — rather than double-apply.
    if (inflight_tokens_.count(req.token) != 0) {
      shed(conn, req, "update with this token in flight");
      return;
    }
  }
  if (outstanding_updates_ >= config_.max_pending_updates) {
    shed(conn, req, "too many pending updates");
    return;
  }
  PendingUpdate p;
  p.fd = conn.fd;
  p.serial = conn.serial;
  p.request_id = req.id;
  p.token = req.token;
  p.op = req.op;
  p.done = req.op == wire::Op::kInsertRule
               ? classifier_.submit_insert(static_cast<std::size_t>(req.index),
                                           req.rule, req.token)
               : classifier_.submit_erase(static_cast<std::size_t>(req.index),
                                          req.token);
  ++outstanding_updates_;
  ++conn.pending_updates;
  if (req.token != 0) inflight_tokens_.insert(req.token);
  {
    std::lock_guard<std::mutex> lock(update_mu_);
    pending_updates_.push_back(std::move(p));
  }
  update_cv_.notify_one();
}

void ClassifyServer::enqueue_response(Connection& conn, const wire::Response& rsp) {
  if (conn.out_pos == conn.out.size()) {  // fully flushed: recycle the buffer
    conn.out.clear();
    conn.out_pos = 0;
  }
  wire::encode_response(rsp, conn.out);
  if (rsp.op == wire::Op::kClassifyBatch && rsp.status == wire::Status::kOk) {
    ++conn.queued_classify;
    ++inflight_classify_;
  }
  const int fd = conn.fd;
  flush_out(conn);
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (it->second->out.size() - it->second->out_pos > config_.outbound_hard_limit) {
    // The peer has stopped reading far past the shedding watermark:
    // drop it rather than buffer without bound.
    shed_.fetch_add(1, std::memory_order_relaxed);
    close_connection(fd);
  }
}

void ClassifyServer::flush_out(Connection& conn) {
  const int fd = conn.fd;
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = ::write(fd, conn.out.data() + conn.out_pos,
                              conn.out.size() - conn.out_pos);
    if (n > 0) {
      conn.out_pos += static_cast<std::size_t>(n);
      bytes_out_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(fd);
    return;
  }
  if (conn.out_pos == conn.out.size()) {
    conn.out.clear();
    conn.out_pos = 0;
    inflight_classify_ -= conn.queued_classify;
    conn.queued_classify = 0;
    update_write_interest(conn);
    if (conn.draining && conn.pending_updates == 0) {
      close_connection(fd);
      maybe_finish_drain();
    }
  } else {
    update_write_interest(conn);
  }
}

void ClassifyServer::update_write_interest(Connection& conn) {
  const bool want = conn.out_pos < conn.out.size();
  if (want == conn.want_write) return;
  conn.want_write = want;
  const std::uint32_t events =
      (conn.draining ? 0 : EventLoop::kRead) | (want ? EventLoop::kWrite : 0);
  loop_.modify(conn.fd, events);
}

void ClassifyServer::close_connection(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  inflight_classify_ -= it->second->queued_classify;
  loop_.remove(fd);
  ::close(fd);
  conns_.erase(it);
  connections_.fetch_sub(1, std::memory_order_relaxed);
  if (draining_) maybe_finish_drain();
}

void ClassifyServer::waiter_loop() {
  for (;;) {
    PendingUpdate p;
    {
      std::unique_lock<std::mutex> lock(update_mu_);
      update_cv_.wait(lock, [this] { return !pending_updates_.empty(); });
      p = std::move(pending_updates_.front());
      pending_updates_.pop_front();
    }
    if (p.stop) return;
    bool applied = false;
    try {
      // Futures resolve in submission order (the UpdateQueue publishes
      // coalesced batches in order), so one sequential waiter suffices.
      applied = p.done.get();
    } catch (...) {
      applied = false;
    }
    // The durability hook ran before the future resolved, so by now an
    // applied op's token is in the journal's map — its seq is what the
    // ack advertises (and what a retry will be answered with).
    std::uint64_t seq = 0;
    if (applied && p.token != 0 && config_.durable != nullptr) {
      seq = config_.durable->seq_for_token(p.token).value_or(0);
    }
    {
      std::lock_guard<std::mutex> lock(update_mu_);
      completed_updates_.push_back(
          {p.fd, p.serial, p.request_id, p.token, seq, p.op, applied});
    }
    update_notifier_.signal();
  }
}

void ClassifyServer::on_updates_completed() {
  std::deque<CompletedUpdate> done;
  {
    std::lock_guard<std::mutex> lock(update_mu_);
    done.swap(completed_updates_);
  }
  for (const CompletedUpdate& c : done) {
    --outstanding_updates_;
    if (c.token != 0) inflight_tokens_.erase(c.token);
    const auto it = conns_.find(c.fd);
    if (it == conns_.end() || it->second->serial != c.serial) continue;
    Connection& conn = *it->second;
    if (conn.pending_updates > 0) --conn.pending_updates;
    rsp_.op = c.op;
    rsp_.status = c.applied ? wire::Status::kOk : wire::Status::kError;
    rsp_.id = c.request_id;
    rsp_.best.clear();
    rsp_.seq = c.seq;
    rsp_.text = c.applied ? "" : "update rejected";
    enqueue_response(conn, rsp_);
  }
  if (draining_) maybe_finish_drain();
}

void ClassifyServer::on_tick() {
  const auto now = std::chrono::steady_clock::now();
  if (draining_) {
    if (now >= drain_deadline_) loop_.stop();
    return;
  }
  if (config_.idle_timeout_ms == 0) return;
  const auto limit = std::chrono::milliseconds(config_.idle_timeout_ms);
  std::vector<int> idle;
  for (const auto& [fd, conn] : conns_) {
    if (conn->pending_updates > 0 || conn->out_pos < conn->out.size()) continue;
    if (now - conn->last_activity > limit) idle.push_back(fd);
  }
  for (const int fd : idle) close_connection(fd);
}

void ClassifyServer::begin_drain() {
  if (draining_) return;
  draining_ = true;
  drain_deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(config_.drain_timeout_ms);
  if (listen_fd_ >= 0) {
    loop_.remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (const int fd : fds) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Connection& conn = *it->second;
    conn.draining = true;  // no more reads; flush and go
    const std::uint32_t events = conn.want_write ? EventLoop::kWrite : 0u;
    loop_.modify(fd, events);
    if (conn.out_pos == conn.out.size() && conn.pending_updates == 0) {
      close_connection(fd);
    }
  }
  maybe_finish_drain();
}

void ClassifyServer::maybe_finish_drain() {
  if (draining_ && conns_.empty() && outstanding_updates_ == 0) loop_.stop();
}

runtime::ServerCounters ClassifyServer::counters() const {
  runtime::ServerCounters c;
  c.connections = connections_.load(std::memory_order_relaxed);
  c.connections_total = connections_total_.load(std::memory_order_relaxed);
  c.requests = requests_.load(std::memory_order_relaxed);
  c.shed = shed_.load(std::memory_order_relaxed);
  c.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  c.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  c.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  return c;
}

runtime::StatsSnapshot ClassifyServer::stats_snapshot() const {
  runtime::StatsSnapshot snap = classifier_.stats_snapshot();
  snap.server = counters();
  if (config_.durable != nullptr) {
    const persist::PersistStats p = config_.durable->stats();
    snap.persist.enabled = true;
    snap.persist.last_seq = p.last_seq;
    snap.persist.last_checkpoint_seq = p.last_checkpoint_seq;
    snap.persist.records_appended = p.records_appended;
    snap.persist.bytes_appended = p.bytes_appended;
    snap.persist.fsyncs = p.fsyncs;
    snap.persist.checkpoints = p.checkpoints;
    snap.persist.checkpoint_failures = p.checkpoint_failures;
    snap.persist.append_failures = p.append_failures;
    snap.persist.segments_removed = p.segments_removed;
    snap.persist.dedupe_hits = p.dedupe_hits;
  }
  if (config_.capture_stats) snap.capture = config_.capture_stats();
  return snap;
}

}  // namespace rfipc::server
