// Exact-match 5-tuple flow cache — the fast path in front of the
// classifier pipeline.
//
// Real traffic is heavily skewed: a few elephant flows carry most
// packets (RVH, arXiv:1909.07159), and SDN flow tables exploit that by
// front-ending the wildcard classifier with an exact-match table
// (arXiv:1801.00840). This cache is that front end in software: the
// packed 104-bit header is the key, the MatchResult (best + multi,
// already rebased to global rule indices) is the value, and a hit skips
// the entire shard fan-out.
//
// Structure: open-addressing hash table over power-of-two slots, split
// into fixed 64-slot segments; probes wrap within a bounded 8-slot
// window of the segment. A slot is 40 bytes of atomics — the
// key as two words, the epoch, `best` plus a has-multi bit, and the
// LRU stamp. Multi-match vectors live off the hot path in a per-segment
// side store, allocated on the first multi insert into that segment and
// read and written only under the segment mutex.
//
// Writers (insert) serialize on the segment mutex and bracket every
// slot write with a per-segment seqlock version: odd while the write is
// in flight, +2 once it is done. Readers take no lock. They read the
// version, probe the window, and re-read the version; an odd or changed
// version means a write overlapped the probe, and the probe reports a
// MISS instead of retrying. A torn read therefore can never be served:
// the slot fields are loaded with acquire and stored with release, so a
// reader that saw any field of an in-flight write must see the version
// that write bumped. A miss is always safe — the caller takes the slow
// path and gets the same answer. Only a hit that must carry a multi
// vector takes the mutex, re-checks the slot, and copies the vector.
//
// LRU is approximate. The clock advances once per insert, and each
// lookup call reads it ONCE, so every hit of a batch gets the same
// stamp, as do all hits between two inserts (ties go to the first slot
// of the window). Only inserts evict, so that is the granularity that
// matters, and reading the clock keeps every read-modify-write except
// the hit/miss counters off the read path. A reader's stamp may also
// land on a slot a writer just replaced. All of this only changes which
// entry a later insert evicts, never what a hit returns.
//
// Coherence (the invalidation rule): the cache carries an epoch that
// the OWNER bumps via invalidate() immediately AFTER publishing any
// snapshot that changes classification results (rule insert/erase,
// shard rebuild) and BEFORE reporting the update complete. Entries are
// stamped with the epoch they were inserted under and are only served
// while that stamp equals the current epoch, so invalidation is O(1) —
// stale entries die in place and get recycled by later inserts.
// Readers capture the epoch BEFORE pinning the slow-path snapshot and
// pass it to insert(); a reader that captured the pre-update epoch may
// have classified against the retired snapshot, but its insert is then
// rejected under the segment mutex (or the entry is born stale), while
// a reader that captured the bumped epoch is guaranteed to pin the new
// snapshot. A lookup loads the epoch once per batch. That batch is one
// read concurrent with any update it overlaps, so serving the older
// epoch's entries to it is legal; a batch that starts after an update
// completed loads the bumped epoch (the bump happens-before the
// completion), so no pre-update decision is served once the update has
// completed. (The opposite order — bump before publish — would let a
// reader capture the NEW epoch, pin the OLD snapshot, and cache a stale
// decision that survives the update.) See DESIGN.md "Software data
// plane".
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "engines/common/match_result.h"
#include "net/header.h"
#include "util/bitvector.h"

namespace rfipc::flow {

class FlowCache {
 public:
  /// Creates a cache with at least `capacity` slots (rounded up to a
  /// power of two, minimum one 64-slot segment).
  explicit FlowCache(std::size_t capacity);

  FlowCache(const FlowCache&) = delete;
  FlowCache& operator=(const FlowCache&) = delete;

  std::size_t capacity() const { return slots_; }

  /// The current coherence epoch. Capture it BEFORE the slow-path
  /// classification whose result you intend to insert().
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Invalidates every cached decision in O(1) by bumping the epoch.
  /// Must be called before publishing a snapshot that changes results.
  void invalidate();

  /// Copies the cached decision for `key` into `out` (reusing out's
  /// buffers; multi is left empty when the entry has none) and returns
  /// true on a fresh-epoch hit. Counts hit/miss. The same lock-free
  /// probe as lookup_batch, for one key.
  bool lookup(const net::HeaderBits& key, engines::MatchResult& out) const;

  /// Probes every key, writing each hit's decision into `results[i]`
  /// and leaving misses untouched; `misses` is cleared and receives the
  /// missed indices in ascending order. With `want_multi` a hit carries
  /// the entry's multi vector, and an entry without one (inserted by a
  /// best-only caller) is a miss; without it hits return an empty
  /// multi. Returns the hit count. One epoch load, one LRU clock read
  /// and one hit/miss counter update per call.
  std::size_t lookup_batch(std::span<const net::HeaderBits> keys,
                           std::span<engines::MatchResult> results, bool want_multi,
                           std::vector<std::size_t>& misses) const;

  /// Installs `key` -> `result`, where `result` was computed after
  /// observing `epoch_seen` (from epoch()). Dropped when the epoch has
  /// moved on — the result may be stale. Evicts the LRU entry of the
  /// probe window when it is full of fresh entries.
  void insert(const net::HeaderBits& key, std::uint64_t epoch_seen,
              const engines::MatchResult& result);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;      // fresh entries displaced by LRU
    std::uint64_t invalidations = 0;  // epoch bumps
    std::size_t capacity = 0;

    double hit_rate() const {
      const auto total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
    std::string to_string() const;
  };
  Stats stats() const;
  void reset_stats();

 private:
  static constexpr std::size_t kSegmentSlots = 64;
  /// Bounded linear-probe window (wraps within the segment).
  static constexpr std::size_t kProbe = 8;
  /// Keys hashed and prefetched ahead of the probe pass.
  static constexpr std::size_t kChunk = 64;

  /// What a hit does with the entry's multi vector.
  enum class Multi { kDrop, kRequire, kAsStored };

  /// The 13 key bytes as two overlapping words (bytes 0-7 and 5-12):
  /// together they determine every byte, so comparing both is the full
  /// key compare.
  struct KeyWords {
    std::uint64_t lo;
    std::uint64_t hi;
  };

  struct Slot {
    std::atomic<std::uint64_t> key_lo{0};
    std::atomic<std::uint64_t> key_hi{0};
    std::atomic<std::uint64_t> epoch{0};  // 0 = never written; stale when != current
    std::atomic<std::uint64_t> value{0};  // (best + 1) << 1 | has_multi
    std::atomic<std::uint64_t> last_used{0};
  };

  struct alignas(64) Segment {
    /// Seqlock over the segment's slots: odd while insert() writes one.
    std::atomic<std::uint64_t> version{0};
    mutable std::mutex mu;
    /// Multi vectors by slot, guarded by `mu`; null until needed.
    std::unique_ptr<util::BitVector[]> multi;
  };

  static KeyWords key_words(const net::HeaderBits& key);
  static std::uint64_t hash(KeyWords w);
  /// True when `s` holds key `w` stamped with `epoch`.
  static bool holds(const Slot& s, KeyWords w, std::uint64_t epoch,
                    std::memory_order order);

  bool probe_one(KeyWords w, std::uint64_t h, std::uint64_t current, std::uint64_t now,
                 Multi multi, engines::MatchResult& out) const;
  bool copy_locked(KeyWords w, std::size_t seg, std::size_t slot, std::uint64_t current,
                   Multi multi, engines::MatchResult& out) const;

  std::size_t slots_;
  std::size_t segments_;
  std::unique_ptr<Slot[]> entries_;
  std::unique_ptr<Segment[]> segs_;

  std::atomic<std::uint64_t> epoch_{1};
  /// LRU clock: advanced by each insert, read once per lookup call.
  std::atomic<std::uint64_t> tick_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> invalidations_{0};
};

}  // namespace rfipc::flow
