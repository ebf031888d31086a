#include "ruleset/lowering.h"

#include <algorithm>
#include <stdexcept>

#include "net/header.h"
#include "util/bitops.h"
#include "util/str.h"

namespace rfipc::ruleset {

std::vector<PrefixBlock> range_to_prefixes(std::uint32_t lo, std::uint32_t hi,
                                           unsigned w) {
  if (w == 0 || w > 32) throw std::invalid_argument("range_to_prefixes: bad width");
  const std::uint64_t limit = (w == 32) ? 0x100000000ULL : (1ULL << w);
  if (lo > hi || hi >= limit) throw std::invalid_argument("range_to_prefixes: bad range");

  std::vector<PrefixBlock> out;
  std::uint64_t cur = lo;
  const std::uint64_t end = hi;
  while (cur <= end) {
    // Largest block aligned at `cur`: limited by cur's lowest set bit and
    // by the remaining span.
    unsigned align = cur == 0 ? w : static_cast<unsigned>(util::lowest_set_bit(cur));
    if (align > w) align = w;
    std::uint64_t block = 1ULL << align;
    const std::uint64_t span = end - cur + 1;
    while (block > span) block >>= 1;
    const unsigned block_bits = util::floor_log2(block);
    out.push_back(PrefixBlock{static_cast<std::uint32_t>(cur),
                              static_cast<std::uint8_t>(w - block_bits)});
    cur += block;
    if (cur == 0) break;  // wrapped past 2^32 (w == 32, hi == 2^32-1)
  }
  return out;
}

bool range_is_prefix(std::uint32_t lo, std::uint32_t hi, unsigned w) {
  return range_to_prefixes(lo, hi, w).size() == 1;
}

}  // namespace rfipc::ruleset

namespace rfipc::ruleset::lowering {

void IntervalSet::insert(std::uint32_t lo, std::uint32_t hi) {
  if (lo > hi) std::swap(lo, hi);
  // First run that overlaps or is adjacent to [lo, hi]: skip runs that
  // end strictly before lo - 1. (r.hi < lo guards the r.hi + 1
  // increment against wrap, so the test is overflow-safe.)
  auto first = runs_.begin();
  while (first != runs_.end() && first->hi < lo && first->hi + 1 < lo) ++first;
  // Absorb every run that starts at or before hi + 1.
  auto last = first;
  while (last != runs_.end() && (hi == ~std::uint32_t{0} || last->lo <= hi + 1)) {
    lo = std::min(lo, last->lo);
    hi = std::max(hi, last->hi);
    ++last;
  }
  const auto pos = runs_.erase(first, last);
  runs_.insert(pos, Interval{lo, hi});
}

bool IntervalSet::contains(std::uint32_t v) const {
  const auto it = std::upper_bound(
      runs_.begin(), runs_.end(), v,
      [](std::uint32_t x, const Interval& r) { return x < r.lo; });
  return it != runs_.begin() && std::prev(it)->contains(v);
}

std::uint64_t IntervalSet::cardinality() const {
  std::uint64_t n = 0;
  for (const auto& r : runs_) n += std::uint64_t{r.hi} - r.lo + 1;
  return n;
}

bool IntervalSet::is_universe(unsigned w) const {
  const std::uint32_t top =
      w >= 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << w) - 1;
  return runs_.size() == 1 && runs_.front().lo == 0 && runs_.front().hi == top;
}

std::string IntervalSet::to_string() const {
  std::string s;
  for (const auto& r : runs_) {
    if (!s.empty()) s += ' ';
    s += '[' + std::to_string(r.lo) + ',' + std::to_string(r.hi) + ']';
  }
  return s.empty() ? "{}" : s;
}

std::vector<PrefixBlock> to_prefixes(const IntervalSet& set, unsigned w) {
  std::vector<PrefixBlock> out;
  for (const auto& r : set.runs()) {
    const auto blocks = range_to_prefixes(r.lo, r.hi, w);
    out.insert(out.end(), blocks.begin(), blocks.end());
  }
  return out;
}

std::vector<ValueMask> to_value_masks(std::uint32_t lo, std::uint32_t hi, unsigned w) {
  std::vector<ValueMask> out;
  for (const auto& blk : range_to_prefixes(lo, hi, w)) {
    const std::uint32_t mask =
        blk.length == 0 ? 0
        : blk.length >= w
            ? (w >= 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << w) - 1)
            : ((w >= 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << w) - 1) &
               ~((std::uint32_t{1} << (w - blk.length)) - 1));
    out.push_back(ValueMask{blk.value, mask});
  }
  return out;
}

TernaryWord ternary_sans_ports(const Rule& rule) {
  TernaryWord w;
  w.set_prefix_field(net::kSipField.offset, 32, rule.src_ip.lo(), rule.src_ip.length);
  w.set_prefix_field(net::kDipField.offset, 32, rule.dst_ip.lo(), rule.dst_ip.length);
  w.set_prefix_field(net::kSpField.offset, 16, 0, 0);
  w.set_prefix_field(net::kDpField.offset, 16, 0, 0);
  if (rule.protocol.wildcard) {
    w.set_prefix_field(net::kPrtField.offset, 8, 0, 0);
  } else {
    w.set_prefix_field(net::kPrtField.offset, 8, rule.protocol.value, 8);
  }
  return w;
}

std::size_t prefix_expansion(const Rule& rule) {
  return range_to_prefixes(rule.src_port.lo, rule.src_port.hi, 16).size() *
         range_to_prefixes(rule.dst_port.lo, rule.dst_port.hi, 16).size();
}

namespace {

bool is_arbitrary_range(const net::PortRange& r) {
  return !r.is_wildcard() && !r.is_exact() && !range_is_prefix(r.lo, r.hi, 16);
}

}  // namespace

ExpansionReport expansion_report(const RuleSet& rs) {
  ExpansionReport rep;
  rep.rules = rs.size();
  for (const auto& r : rs) {
    const std::size_t e = prefix_expansion(r);
    rep.expanded_entries += e;
    rep.max_rule_entries = std::max(rep.max_rule_entries, e);
    if (is_arbitrary_range(r.src_port) || is_arbitrary_range(r.dst_port)) {
      ++rep.range_rules;
    }
  }
  rep.native_entries = rs.size();
  if (rep.rules > 0) {
    rep.range_fraction =
        static_cast<double>(rep.range_rules) / static_cast<double>(rep.rules);
    rep.expansion_factor =
        static_cast<double>(rep.expanded_entries) / static_cast<double>(rep.rules);
  }
  // Ternary entry: value + mask over the 104-bit key. Interval entry:
  // one 104-bit slice plus two 16-bit bounds per port field.
  rep.expanded_bytes = rep.expanded_entries * ((2ull * net::kHeaderBits + 7) / 8);
  rep.native_bytes =
      rep.native_entries * ((net::kHeaderBits + 7) / 8 + 2ull * 2 * 2);
  return rep;
}

std::string ExpansionReport::summary() const {
  std::string s;
  s += "rules=" + std::to_string(rules);
  s += " range_rules=" + std::to_string(range_rules) + " (" +
       util::fmt_double(range_fraction * 100.0, 1) + "%)";
  s += " prefix_expanded=" + std::to_string(expanded_entries) + " entries (" +
       util::fmt_double(expansion_factor, 2) + "x, worst rule " +
       std::to_string(max_rule_entries) + ")";
  s += " interval_native=" + std::to_string(native_entries) + " entries";
  s += " bytes " + util::fmt_group(expanded_bytes) + " vs " +
       util::fmt_group(native_bytes);
  return s;
}

}  // namespace rfipc::ruleset::lowering
