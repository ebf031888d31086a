// Shared range-lowering pipeline: ONE place where arbitrary ranges
// become engine-storable entries.
//
// Every engine family consumes rules in one of two shapes:
//
//   * kPrefixExpand — ranges are decomposed into maximal prefix blocks
//     (range_to_prefixes: at most 2(w-1) per w-bit range) and the rule
//     becomes the CROSS PRODUCT of its port fields' blocks: up to
//     4(w-1)^2 ternary entries per rule (the TCAM / plain-StrideBV
//     blow-up the paper warns about in Section II-A).
//   * kIntervalNative — the range is stored as a closed interval set
//     and compared directly ([lo, hi] comparators); exactly ONE entry
//     per rule. Linear search, the tuple-space prefilter, and the
//     range-module StrideBV variant (stridebv-re:k) lower this way.
//
// Before this module, ternary.cpp, flow/generic.cpp, and the FSBV
// hybrid each hand-rolled the block decomposition + cross product.
// They now all call through here, and the interval-set representation
// (IntervalSet, a dependency-free RangeSet in the spirit of
// SNIPPETS.md §3) gives interval-capable engines a first-class way to
// skip the expansion entirely. expansion_report() turns the choice
// into a measured number (entries and bytes per lowering mode).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/port_range.h"
#include "ruleset/rule.h"
#include "ruleset/ruleset.h"
#include "ruleset/ternary.h"

namespace rfipc::ruleset {

/// One prefix block: the top `length` bits of `value` are significant.
/// Width is carried by the caller (16 for ports).
struct PrefixBlock {
  std::uint32_t value = 0;
  std::uint8_t length = 0;

  bool operator==(const PrefixBlock&) const = default;
};

/// Decomposes the closed interval [lo, hi] over w-bit values into the
/// minimal set of maximal prefix blocks, in ascending order (the
/// classic maximal-block decomposition). Requires lo <= hi < 2^w and
/// w <= 32; throws std::invalid_argument otherwise.
std::vector<PrefixBlock> range_to_prefixes(std::uint32_t lo, std::uint32_t hi,
                                           unsigned w);

/// Worst-case block count for a w-bit range: 2(w-1).
constexpr unsigned worst_case_prefixes(unsigned w) { return w <= 1 ? 1 : 2 * (w - 1); }

/// True when [lo, hi] is exactly one prefix block.
bool range_is_prefix(std::uint32_t lo, std::uint32_t hi, unsigned w);

}  // namespace rfipc::ruleset

namespace rfipc::ruleset::lowering {

/// How a range field is lowered into engine storage.
enum class RangeLowering {
  kPrefixExpand,    // maximal prefix blocks, cross-product entries
  kIntervalNative,  // [lo, hi] comparators, one entry per rule
};

/// A closed interval [lo, hi] over 32-bit values.
struct Interval {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;

  bool operator==(const Interval&) const = default;
  constexpr bool contains(std::uint32_t v) const { return v >= lo && v <= hi; }
};

/// A set of disjoint, coalesced, ascending closed intervals — the
/// interval-native representation of a range field. Unlike a prefix
/// decomposition its size is the number of CONTIGUOUS runs, not the
/// number of alignment-friendly blocks: a single arbitrary port range
/// is always one interval (vs up to 2(w-1) prefix blocks).
class IntervalSet {
 public:
  IntervalSet() = default;

  /// Adds [lo, hi], merging with any overlapping or adjacent runs.
  void insert(std::uint32_t lo, std::uint32_t hi);
  void insert(const Interval& iv) { insert(iv.lo, iv.hi); }

  bool contains(std::uint32_t v) const;
  bool empty() const { return runs_.empty(); }
  /// Number of disjoint runs (== stored comparator pairs).
  std::size_t size() const { return runs_.size(); }
  const std::vector<Interval>& runs() const { return runs_; }

  /// Total values covered (sum of run widths).
  std::uint64_t cardinality() const;

  /// True when the set is one run covering [0, 2^w - 1].
  bool is_universe(unsigned w) const;

  bool operator==(const IntervalSet&) const = default;

  /// "[80,443] [8080,8080]" rendering.
  std::string to_string() const;

  static IntervalSet from(const net::PortRange& r) {
    IntervalSet s;
    s.insert(r.lo, r.hi);
    return s;
  }

 private:
  std::vector<Interval> runs_;  // ascending, disjoint, non-adjacent
};

/// Prefix-block decomposition of every run in `set` over w-bit values,
/// ascending. An IntervalSet of one run reduces to range_to_prefixes.
std::vector<PrefixBlock> to_prefixes(const IntervalSet& set, unsigned w);

/// A (value, mask) alternative — the form bit-sliced engines (FSBV
/// planes) store a prefix block in. The top bits selected by `mask`
/// must equal `value`.
struct ValueMask {
  std::uint32_t value = 0;
  std::uint32_t mask = 0;

  bool operator==(const ValueMask&) const = default;
};

/// Prefix blocks of a w-bit range as (value, mask) pairs.
std::vector<ValueMask> to_value_masks(std::uint32_t lo, std::uint32_t hi, unsigned w);

/// Expands `items` across a range field's prefix blocks: each input
/// item is copied once per block and `write(item, block)` stamps the
/// block in. The canonical cross-product step — calling it once per
/// range field yields the full expansion. One block is stamped
/// in place (no copy storm for the common exact/wildcard case).
template <typename T, typename WriteFn>
std::vector<T> expand_blocks(std::vector<T> items, const std::vector<PrefixBlock>& blocks,
                             WriteFn&& write) {
  if (blocks.size() == 1) {
    for (auto& t : items) write(t, blocks.front());
    return items;
  }
  std::vector<T> out;
  out.reserve(items.size() * blocks.size());
  for (const auto& base : items) {
    for (const auto& blk : blocks) {
      T t = base;
      write(t, blk);
      out.push_back(std::move(t));
    }
  }
  return out;
}

/// Ternary encoding of a rule's SIP/DIP/PRT with both port fields
/// forced to don't-care — the shared slice used by engines that handle
/// ports out-of-band (FSBV planes, range-module StrideBV).
TernaryWord ternary_sans_ports(const Rule& rule);

/// Prefix-expanded entry count for one rule:
/// |blocks(SP)| * |blocks(DP)|. The interval-native count is always 1.
std::size_t prefix_expansion(const Rule& rule);

/// Aggregate expansion cost of a ruleset under the two lowerings.
struct ExpansionReport {
  std::size_t rules = 0;
  /// Rules whose SP or DP is an arbitrary range (non-trivial,
  /// non-prefix): the rules that actually pay the cross product.
  std::size_t range_rules = 0;
  double range_fraction = 0;

  /// kPrefixExpand: total ternary entries and the worst single rule.
  std::size_t expanded_entries = 0;
  std::size_t max_rule_entries = 1;
  double expansion_factor = 1.0;  // expanded_entries / rules

  /// kIntervalNative: one entry per rule.
  std::size_t native_entries = 0;

  /// Storage estimate at the canonical 104-bit key: ternary entries
  /// cost 2*104 bits (value + mask); interval entries cost 104 bits of
  /// ternary slice + 2*2*16 bits of port bounds.
  std::uint64_t expanded_bytes = 0;
  std::uint64_t native_bytes = 0;

  std::string summary() const;
};

ExpansionReport expansion_report(const RuleSet& rs);

}  // namespace rfipc::ruleset::lowering
