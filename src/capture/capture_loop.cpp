#include "capture/capture_loop.h"

#include <algorithm>

namespace rfipc::capture {

CaptureLoop::CaptureLoop(CaptureSource& source,
                         const engines::ClassifierEngine& engine,
                         const ruleset::RuleSet& rules, CaptureLoopConfig config)
    : source_(source), engine_(engine), config_(config) {
  if (config_.batch_size == 0) config_.batch_size = 1;
  verdict_table_ = std::make_shared<const std::vector<unsigned char>>(
      build_table(rules));
  counters_.reserve(source_.ring_count());
  for (std::size_t i = 0; i < source_.ring_count(); ++i) {
    counters_.push_back(std::make_unique<RingCounters>());
  }
}

CaptureLoop::~CaptureLoop() { stop(); }

std::vector<unsigned char> CaptureLoop::build_table(
    const ruleset::RuleSet& rules) const {
  std::vector<unsigned char> table(rules.size() + 1, 0);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    table[i] = rules[i].action.kind == ruleset::Action::Kind::kForward ? 1 : 0;
  }
  table[rules.size()] = config_.default_forward ? 1 : 0;
  return table;
}

void CaptureLoop::publish_verdicts(const ruleset::RuleSet& rules) {
  auto table =
      std::make_shared<const std::vector<unsigned char>>(build_table(rules));
  std::lock_guard<std::mutex> lock(verdict_mu_);
  verdict_table_ = std::move(table);
}

std::shared_ptr<const std::vector<unsigned char>> CaptureLoop::verdicts() const {
  std::lock_guard<std::mutex> lock(verdict_mu_);
  return verdict_table_;
}

std::size_t CaptureLoop::step(std::size_t ring, RingScratch& scratch) {
  scratch.views.resize(config_.batch_size);
  const std::size_t n = source_.next_batch(ring, scratch.views);
  if (n == 0) return 0;

  RingCounters& c = *counters_[ring];
  c.frames.fetch_add(n, std::memory_order_relaxed);
  c.batches.fetch_add(1, std::memory_order_relaxed);

  // Parse each frame straight into the next free key slot; a failure
  // leaves `parsed` where it is, so the next frame overwrites its slot
  // (an inline classifier drops what it cannot decode).
  const std::uint32_t link_type = source_.link_type();
  if (scratch.headers.size() < n) scratch.headers.resize(n);
  std::size_t parsed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    parsed += net::parse_key(scratch.views[i].bytes(), link_type,
                             scratch.headers[parsed]) == net::ParseStatus::kOk;
  }
  const std::uint64_t parse_failures = n - parsed;
  if (parse_failures > 0) {
    c.parse_failures.fetch_add(parse_failures, std::memory_order_relaxed);
    c.dropped.fetch_add(parse_failures, std::memory_order_relaxed);
  }
  if (parsed == 0) return n;

  // Classify the parsed sub-batch (best-only; results keep capacity).
  if (scratch.results.size() < parsed) scratch.results.resize(parsed);
  const std::span<engines::MatchResult> results{scratch.results.data(), parsed};
  engine_.classify_batch({scratch.headers.data(), parsed}, results,
                         engines::BatchOptions{.want_multi = false});

  // Apply verdicts under one table load per batch. The table's last
  // slot holds the default verdict and every winner beyond the rules
  // (kNoMatch included) is clamped onto it, so a forward/drop mix
  // steers no branch.
  const auto table = verdicts();
  const unsigned char* bits = table->data();
  const std::size_t fallback = table->size() - 1;
  std::uint64_t forwarded = 0;
  for (const engines::MatchResult& r : results) {
    forwarded += bits[std::min(r.best, fallback)];
  }
  c.forwarded.fetch_add(forwarded, std::memory_order_relaxed);
  c.dropped.fetch_add(parsed - forwarded, std::memory_order_relaxed);
  return n;
}

void CaptureLoop::drain_ring(std::size_t ring) {
  RingScratch scratch;
  scratch.views.reserve(config_.batch_size);
  scratch.headers.reserve(config_.batch_size);
  scratch.results.reserve(config_.batch_size);
  while (true) {
    if (step(ring, scratch) == 0 && source_.exhausted(ring)) break;
  }
}

std::uint64_t CaptureLoop::run() {
  for (std::size_t ring = 0; ring < source_.ring_count(); ++ring) {
    drain_ring(ring);
  }
  std::uint64_t total = 0;
  for (const auto& c : counters_) {
    total += c->frames.load(std::memory_order_relaxed);
  }
  return total;
}

void CaptureLoop::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) return;
  threads_.reserve(source_.ring_count());
  for (std::size_t ring = 0; ring < source_.ring_count(); ++ring) {
    threads_.emplace_back([this, ring] { drain_ring(ring); });
  }
}

void CaptureLoop::stop() {
  source_.stop();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

runtime::CaptureCounters CaptureLoop::counters() const {
  runtime::CaptureCounters out;
  out.enabled = true;
  out.rings.reserve(counters_.size());
  for (std::size_t ring = 0; ring < counters_.size(); ++ring) {
    const RingCounters& c = *counters_[ring];
    runtime::CaptureRing r;
    r.frames = c.frames.load(std::memory_order_relaxed);
    r.batches = c.batches.load(std::memory_order_relaxed);
    r.parse_failures = c.parse_failures.load(std::memory_order_relaxed);
    r.forwarded = c.forwarded.load(std::memory_order_relaxed);
    r.dropped = c.dropped.load(std::memory_order_relaxed);
    r.overruns = source_.overruns(ring);
    out.rings.push_back(r);
  }
  return out;
}

}  // namespace rfipc::capture
