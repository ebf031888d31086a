#include "server/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "util/spin.h"

namespace rfipc::server {
namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

std::uint32_t to_epoll(std::uint32_t events) {
  std::uint32_t e = 0;
  if (events & EventLoop::kRead) e |= EPOLLIN;
  if (events & EventLoop::kWrite) e |= EPOLLOUT;
  return e;  // level-triggered: no EPOLLET
}

std::uint32_t from_epoll(std::uint32_t e) {
  std::uint32_t events = 0;
  if (e & (EPOLLIN | EPOLLPRI)) events |= EventLoop::kRead;
  if (e & EPOLLOUT) events |= EventLoop::kWrite;
  if (e & (EPOLLERR | EPOLLHUP | EPOLLRDHUP)) events |= EventLoop::kError;
  return events;
}

}  // namespace

Notifier::Notifier() {
  fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (fd_ < 0) throw_errno("eventfd");
}

Notifier::~Notifier() {
  if (fd_ >= 0) ::close(fd_);
}

void Notifier::signal() {
  const std::uint64_t one = 1;
  // write(2) is async-signal-safe; a full counter (EAGAIN) already
  // guarantees a pending wakeup, so the result can be ignored.
  [[maybe_unused]] const auto rc = ::write(fd_, &one, sizeof(one));
}

void Notifier::drain() {
  std::uint64_t count = 0;
  while (::read(fd_, &count, sizeof(count)) == sizeof(count)) {
  }
}

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  stop_notifier_ = std::make_unique<Notifier>();
  add(stop_notifier_->fd(), kRead, [this](std::uint32_t) { stop_notifier_->drain(); });
}

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::add(int fd, std::uint32_t events, Callback cb) {
  epoll_event ev{};
  ev.events = to_epoll(events);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) throw_errno("epoll_ctl ADD");
  handlers_[fd] = std::move(cb);
}

void EventLoop::modify(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = to_epoll(events);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) throw_errno("epoll_ctl MOD");
}

void EventLoop::remove(int fd) {
  // The fd may already be implicitly dropped from the epoll set (e.g.
  // closed); ignore ENOENT/EBADF, they leave the set consistent.
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr) != 0 && errno != ENOENT &&
      errno != EBADF) {
    throw_errno("epoll_ctl DEL");
  }
  handlers_.erase(fd);
  if (in_dispatch_) removed_in_batch_.push_back(fd);
}

int EventLoop::add_timer(std::chrono::milliseconds interval,
                         std::function<void()> cb) {
  const int tfd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (tfd < 0) throw_errno("timerfd_create");
  itimerspec spec{};
  spec.it_interval.tv_sec = interval.count() / 1000;
  spec.it_interval.tv_nsec = (interval.count() % 1000) * 1000000;
  spec.it_value = spec.it_interval;
  if (::timerfd_settime(tfd, 0, &spec, nullptr) != 0) {
    ::close(tfd);
    throw_errno("timerfd_settime");
  }
  add(tfd, kRead, [tfd, fn = std::move(cb)](std::uint32_t) {
    std::uint64_t expirations = 0;
    while (::read(tfd, &expirations, sizeof(expirations)) == sizeof(expirations)) {
    }
    fn();
  });
  return tfd;
}

void EventLoop::add_notifier(Notifier& n, std::function<void()> cb) {
  add(n.fd(), kRead, [&n, fn = std::move(cb)](std::uint32_t) {
    n.drain();
    fn();
  });
}

void EventLoop::run() {
  using Clock = std::chrono::steady_clock;
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  const auto budget = util::spin_budget();
  // Spin-then-park: until `budget` has passed since the last dispatched
  // event, poll without blocking; after that, sleep in epoll_wait(-1).
  Clock::time_point spin_until{};
  while (!stopping()) {
    const bool spin = budget.count() > 0 && Clock::now() < spin_until;
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, spin ? 0 : -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("epoll_wait");
    }
    if (n == 0) {
      util::spin_pause();
      continue;
    }
    in_dispatch_ = true;
    removed_in_batch_.clear();
    for (int i = 0; i < n && !stopping(); ++i) {
      const int fd = events[i].data.fd;
      if (std::find(removed_in_batch_.begin(), removed_in_batch_.end(), fd) !=
          removed_in_batch_.end()) {
        continue;  // removed earlier this batch; drop the stale event
      }
      const auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      // Copy: the handler may remove itself (invalidating the map slot)
      // while it runs.
      const Callback cb = it->second;
      cb(from_epoll(events[i].events));
    }
    in_dispatch_ = false;
    if (budget.count() > 0) spin_until = Clock::now() + budget;
  }
}

void EventLoop::stop() {
  stop_requested_.store(true, std::memory_order_release);
  stop_notifier_->signal();
}

}  // namespace rfipc::server
