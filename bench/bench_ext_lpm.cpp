// Extension: TCAM longest-prefix-match IP lookup (paper Section III-B).
//
// "In the case of IP lookup, the prefixes can be stored by their
// prefix length and this yields longest prefix match [20]." This bench
// validates the length-ordered TCAM against the binary trie and the
// linear reference on synthetic BGP-ish tables, and contrasts their
// memory profiles: the TCAM is flat per entry, the trie's per-level
// node counts are the non-uniform pipeline-stage profile the paper
// blames for tree-based engines' clock trouble (Section II-B).
#include <algorithm>
#include <cstdio>
#include <string>

#include "harness.h"
#include "lpm/route_table.h"
#include "lpm/tcam_lpm.h"
#include "lpm/trie_lpm.h"
#include "util/prng.h"
#include "util/str.h"

using namespace rfipc;

int main() {
  bench::print_banner(
      "Extension — TCAM-based IP lookup (LPM)",
      "length-ordered TCAM == longest prefix match; trie stages are non-uniform");

  util::TextTable table({"routes", "TCAM Kbit", "trie Kbit", "trie nodes",
                         "max-level / mean-level nodes"});
  bool all_agree = true;
  double worst_skew = 0;
  for (const std::size_t n : {1000u, 5000u, 20000u}) {
    const auto routes = lpm::RouteTable::synthetic(n, 2013);
    const lpm::TcamLpm tcam(routes);
    const lpm::TrieLpm trie(routes);

    util::Xoshiro256 rng(7);
    for (int probe = 0; probe < 5000; ++probe) {
      net::Ipv4Addr a{static_cast<std::uint32_t>(rng())};
      const auto want = routes.lookup(a);
      const auto via_tcam = tcam.lookup(a);
      const auto via_trie = trie.lookup(a);
      const bool agree =
          want.has_value() == via_tcam.has_value() &&
          want.has_value() == via_trie.has_value() &&
          (!want || (want->prefix.length == via_tcam->prefix.length &&
                     want->next_hop == via_tcam->next_hop &&
                     want->next_hop == via_trie->next_hop));
      all_agree = all_agree && agree;
    }

    const auto hist = trie.level_histogram();
    const std::size_t max_level = *std::max_element(hist.begin(), hist.end());
    const double mean_level = static_cast<double>(trie.node_count()) / 33.0;
    const double skew = static_cast<double>(max_level) / mean_level;
    worst_skew = std::max(worst_skew, skew);
    table.add_row(
        {std::to_string(n),
         util::fmt_double(static_cast<double>(tcam.memory_bits()) / 1024.0, 1),
         util::fmt_double(static_cast<double>(trie.memory_bits()) / 1024.0, 1),
         std::to_string(trie.node_count()),
         util::fmt_double(skew, 1) + "x"});
  }
  bench::emit(table, "ext_lpm.csv");

  bench::check("TCAM and trie agree with linear LPM reference", all_agree,
               "5000 random lookups per table size");
  bench::check("trie per-level memory is highly non-uniform (Section II-B)",
               worst_skew > 3.0,
               "largest level holds " + util::fmt_double(worst_skew, 1) +
                   "x the mean — the slowest-stage problem StrideBV avoids");

  // Incremental route updates keep the ordering invariant.
  auto routes = lpm::RouteTable::synthetic(1000, 5);
  lpm::TcamLpm tcam(routes);
  util::Xoshiro256 rng(17);
  for (int i = 0; i < 200; ++i) {
    const auto p = net::Ipv4Prefix{{static_cast<std::uint32_t>(rng())},
                                   static_cast<std::uint8_t>(rng.in_range(8, 28))}
                       .canonical();
    tcam.insert({p, static_cast<std::uint32_t>(i)});
  }
  bench::check("length ordering survives 200 inserts", tcam.length_ordered(),
               "first-match == longest-match invariant intact");
  return bench::exit_code();
}
