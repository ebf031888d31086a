#include "flow/flow_cache.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace rfipc::flow {
namespace {

constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// A slot's value word: best + 1 (so kNoMatch packs as 0) above the
// has-multi bit.
constexpr std::uint64_t pack_value(std::size_t best, bool has_multi) {
  return (static_cast<std::uint64_t>(best + 1) << 1) | (has_multi ? 1u : 0u);
}
constexpr std::size_t unpack_best(std::uint64_t value) {
  return static_cast<std::size_t>((value >> 1) - 1);
}

}  // namespace

FlowCache::FlowCache(std::size_t capacity) {
  std::size_t slots = kSegmentSlots;
  while (slots < capacity) slots <<= 1;
  slots_ = slots;
  segments_ = slots_ / kSegmentSlots;
  entries_ = std::make_unique<Slot[]>(slots_);
  segs_ = std::make_unique<Segment[]>(segments_);
}

FlowCache::KeyWords FlowCache::key_words(const net::HeaderBits& key) {
  // 13 key bytes -> two words (overlapping load keeps it branchless).
  const auto& b = key.bytes();
  KeyWords w{};
  std::memcpy(&w.lo, b.data(), 8);
  std::memcpy(&w.hi, b.data() + 5, 8);
  return w;
}

std::uint64_t FlowCache::hash(KeyWords w) {
  return splitmix64(w.lo ^ splitmix64(w.hi));
}

bool FlowCache::holds(const Slot& s, KeyWords w, std::uint64_t epoch,
                      std::memory_order order) {
  return s.epoch.load(order) == epoch && s.key_lo.load(order) == w.lo &&
         s.key_hi.load(order) == w.hi;
}

void FlowCache::invalidate() {
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

bool FlowCache::lookup(const net::HeaderBits& key, engines::MatchResult& out) const {
  const KeyWords w = key_words(key);
  const bool hit = probe_one(w, hash(w), epoch_.load(std::memory_order_acquire),
                             tick_.load(std::memory_order_relaxed), Multi::kAsStored, out);
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return hit;
}

std::size_t FlowCache::lookup_batch(std::span<const net::HeaderBits> keys,
                                    std::span<engines::MatchResult> results,
                                    bool want_multi,
                                    std::vector<std::size_t>& misses) const {
  misses.clear();
  const std::size_t n = keys.size();
  if (n == 0) return 0;
  const Multi multi = want_multi ? Multi::kRequire : Multi::kDrop;
  // The batch is one read: one epoch, one LRU stamp for all its hits.
  const std::uint64_t current = epoch_.load(std::memory_order_acquire);
  const std::uint64_t now = tick_.load(std::memory_order_relaxed);
  KeyWords words[kChunk];
  std::uint64_t hashes[kChunk];
  for (std::size_t b = 0; b < n; b += kChunk) {
    const std::size_t m = std::min(kChunk, n - b);
    // Hash pass: put every home slot and segment version in flight
    // before the probe pass needs them.
    for (std::size_t i = 0; i < m; ++i) {
      words[i] = key_words(keys[b + i]);
      const std::uint64_t h = hash(words[i]);
      hashes[i] = h;
      const std::size_t seg = (h >> 32) & (segments_ - 1);
      const char* home = reinterpret_cast<const char*>(
          &entries_[seg * kSegmentSlots + (h & (kSegmentSlots - 1))]);
      __builtin_prefetch(home);
      __builtin_prefetch(home + sizeof(Slot) - 1);
      __builtin_prefetch(&segs_[seg]);
    }
    for (std::size_t i = 0; i < m; ++i) {
      if (!probe_one(words[i], hashes[i], current, now, multi, results[b + i])) {
        misses.push_back(b + i);
      }
    }
  }
  const std::size_t hits = n - misses.size();
  if (hits != 0) hits_.fetch_add(hits, std::memory_order_relaxed);
  if (hits != n) misses_.fetch_add(n - hits, std::memory_order_relaxed);
  return hits;
}

bool FlowCache::probe_one(KeyWords w, std::uint64_t h, std::uint64_t current,
                          std::uint64_t now, Multi multi,
                          engines::MatchResult& out) const {
  const std::size_t seg = (h >> 32) & (segments_ - 1);
  const Segment& sg = segs_[seg];
  const std::uint64_t version = sg.version.load(std::memory_order_acquire);
  if ((version & 1) != 0) return false;  // an insert is writing this segment
  Slot* const base = &entries_[seg * kSegmentSlots];
  for (std::size_t i = 0; i < kProbe; ++i) {
    const std::size_t j = (h + i) & (kSegmentSlots - 1);
    Slot& s = base[j];
    if (!holds(s, w, current, std::memory_order_acquire)) continue;
    const std::uint64_t value = s.value.load(std::memory_order_acquire);
    // Any field from an overlapping insert implies a moved version.
    if (sg.version.load(std::memory_order_relaxed) != version) return false;
    const bool has_multi = (value & 1) != 0;
    if (!has_multi && multi == Multi::kRequire) return false;
    s.last_used.store(now, std::memory_order_relaxed);
    if (has_multi && multi != Multi::kDrop) {
      return copy_locked(w, seg, j, current, multi, out);
    }
    out.best = unpack_best(value);
    if (!out.multi.empty()) out.multi.assign_zeros(0);
    return true;
  }
  return false;
}

bool FlowCache::copy_locked(KeyWords w, std::size_t seg, std::size_t slot,
                            std::uint64_t current, Multi multi,
                            engines::MatchResult& out) const {
  const Segment& sg = segs_[seg];
  std::lock_guard<std::mutex> lock(sg.mu);
  // The slot may have been rewritten since the lock-free probe.
  const Slot& s = entries_[seg * kSegmentSlots + slot];
  if (!holds(s, w, current, std::memory_order_relaxed)) return false;
  const std::uint64_t value = s.value.load(std::memory_order_relaxed);
  if ((value & 1) != 0) {
    out.multi = sg.multi[slot];  // copy-assign reuses out's buffer
  } else if (multi == Multi::kRequire) {
    return false;
  } else if (!out.multi.empty()) {
    out.multi.assign_zeros(0);
  }
  out.best = unpack_best(value);
  return true;
}

void FlowCache::insert(const net::HeaderBits& key, std::uint64_t epoch_seen,
                       const engines::MatchResult& result) {
  const KeyWords w = key_words(key);
  const std::uint64_t h = hash(w);
  const std::size_t seg = (h >> 32) & (segments_ - 1);
  Segment& sg = segs_[seg];
  Slot* const base = &entries_[seg * kSegmentSlots];
  std::lock_guard<std::mutex> lock(sg.mu);
  // A publication may have raced with the slow-path classification that
  // produced `result`; inserting it now could cache a decision from the
  // retired snapshot. Epochs only move forward, so comparing under the
  // segment lock is enough to reject every such straggler.
  if (epoch_seen != epoch_.load(std::memory_order_acquire)) return;
  // Victim preference: (1) the key's own entry (refresh in place),
  // (2) an empty or stale-epoch slot, (3) the LRU fresh entry of the
  // window — only case (3) is a real eviction.
  std::size_t victim = kSegmentSlots;  // none yet
  std::uint64_t victim_used = 0;
  bool victim_fresh = false;
  bool refresh = false;
  for (std::size_t i = 0; i < kProbe; ++i) {
    const std::size_t j = (h + i) & (kSegmentSlots - 1);
    const Slot& s = base[j];
    const bool fresh = s.epoch.load(std::memory_order_relaxed) == epoch_seen;
    if (fresh && holds(s, w, epoch_seen, std::memory_order_relaxed)) {
      victim = j;
      refresh = true;
      break;
    }
    if (!fresh) {
      if (victim == kSegmentSlots || victim_fresh) {
        victim = j;
        victim_fresh = false;
      }
    } else {
      const std::uint64_t used = s.last_used.load(std::memory_order_relaxed);
      if (victim == kSegmentSlots || (victim_fresh && used < victim_used)) {
        victim = j;
        victim_used = used;
        victim_fresh = true;
      }
    }
  }
  if (victim_fresh && !refresh) evictions_.fetch_add(1, std::memory_order_relaxed);
  const bool has_multi = !result.multi.empty();
  if (has_multi) {
    // Read only under this lock, so it needs no seqlock bracket.
    if (sg.multi == nullptr) sg.multi = std::make_unique<util::BitVector[]>(kSegmentSlots);
    sg.multi[victim] = result.multi;
  }
  // Seqlock write: the odd version is stored before, and the even one
  // after, every field (release stores keep the order).
  Slot& s = base[victim];
  const std::uint64_t version = sg.version.load(std::memory_order_relaxed);
  sg.version.store(version + 1, std::memory_order_relaxed);
  s.key_lo.store(w.lo, std::memory_order_release);
  s.key_hi.store(w.hi, std::memory_order_release);
  s.epoch.store(epoch_seen, std::memory_order_release);
  s.value.store(pack_value(result.best, has_multi), std::memory_order_release);
  s.last_used.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  sg.version.store(version + 2, std::memory_order_release);
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

FlowCache::Stats FlowCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.capacity = slots_;
  return s;
}

void FlowCache::reset_stats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  insertions_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  invalidations_.store(0, std::memory_order_relaxed);
}

std::string FlowCache::Stats::to_string() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f%%", hit_rate() * 100.0);
  return "hits=" + std::to_string(hits) + " misses=" + std::to_string(misses) +
         " (" + buf + ") evictions=" + std::to_string(evictions) +
         " invalidations=" + std::to_string(invalidations);
}

}  // namespace rfipc::flow
