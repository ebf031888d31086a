// Extension: stage-memory uniformity (paper Sections II-B, III-A-3).
//
// "The performance will be dictated by the slowest stage and the
// slowest stage is generally the one with the highest memory usage ...
// with StrideBV, the memory consumption across the pipeline is uniform
// ... therefore the clock rate of the pipeline is not governed by a
// single stage."
//
// We run a REAL trie's per-level memory profile and StrideBV's uniform
// profile through the same stage-clock law and compare.
#include <cstdio>
#include <string>
#include <vector>

#include "fpga/tree_pipeline.h"
#include "harness.h"
#include "lpm/route_table.h"
#include "lpm/trie_lpm.h"
#include "util/str.h"

using namespace rfipc;

int main() {
  bench::print_banner(
      "Extension — stage-memory uniformity vs pipeline clock",
      "trees' exponential levels throttle the pipeline; StrideBV stays flat");

  util::TextTable table({"pipeline", "stages", "total Kbit", "skew (max/mean)",
                         "clock (MHz)", "throughput (Gbps, 1x issue)"});
  double worst_ratio = 1.0;
  for (const std::size_t routes : {5000u, 20000u, 50000u}) {
    const auto table_rt = lpm::RouteTable::synthetic(routes, 3);
    const lpm::TrieLpm trie(table_rt);
    const auto hist = trie.level_histogram();
    std::vector<std::uint64_t> stage_bits;
    std::uint64_t total = 0;
    std::size_t nonempty = 0;
    for (const auto nodes : hist) {
      stage_bits.push_back(nodes * 72ull);
      total += nodes * 72ull;
      nonempty += nodes > 0 ? 1 : 0;
    }
    const auto tree = fpga::estimate_tree_pipeline(stage_bits);
    const auto uniform =
        fpga::estimate_uniform_pipeline(static_cast<unsigned>(nonempty),
                                        total / nonempty);

    table.add_row({"trie (" + std::to_string(routes) + " routes)",
                   std::to_string(nonempty),
                   util::fmt_double(static_cast<double>(total) / 1024.0, 0),
                   util::fmt_double(tree.skew, 1) + "x",
                   util::fmt_double(tree.clock_mhz, 1),
                   util::fmt_double(tree.throughput_gbps, 1)});
    table.add_row({"uniform (same total memory)", std::to_string(nonempty),
                   util::fmt_double(static_cast<double>(total) / 1024.0, 0), "1.0x",
                   util::fmt_double(uniform.clock_mhz, 1),
                   util::fmt_double(uniform.throughput_gbps, 1)});
    worst_ratio = std::max(worst_ratio, uniform.clock_mhz / tree.clock_mhz);
  }
  bench::emit(table, "ext_stage_uniformity.csv");

  bench::check("non-uniform stages throttle the pipeline clock",
               worst_ratio > 1.1,
               "uniform layout clocks up to " + util::fmt_double(worst_ratio, 2) +
                   "x faster at equal total memory");
  return bench::exit_code();
}
