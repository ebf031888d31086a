// Figure 9: Block RAM consumption (% of RAMB36 blocks) vs rules,
// StrideBV with BRAM stage memory.
//
// Paper result: stride 3 at N=2048 exhausts the device's block RAM
// (the worst case "utilizes all the available block RAM fully");
// stride 4 stays under it. Each stage needs ceil(N/36) RAMB36 because
// true-dual-port limits the per-port width to 36 bits.
#include <cstdio>
#include <string>

#include "fpga/report.h"
#include "harness.h"
#include "util/str.h"

using namespace rfipc;

int main() {
  bench::print_banner(
      "Figure 9 — BRAM consumption (%) vs number of rules",
      "k=3 N=2048 saturates the 1880-block device; k=4 stays below");
  bench::functional_gate(128);

  const auto device = fpga::virtex7_xc7vx1140t();
  const auto sizes = fpga::paper_sizes();

  util::TextTable table({"N", "stride=3 (blocks)", "stride=3 (%)",
                         "stride=4 (blocks)", "stride=4 (%)"});
  bench::Series s3{"stride=3", {}};
  bench::Series s4{"stride=4", {}};
  double worst3 = 0;
  double worst4 = 0;
  for (const auto n : sizes) {
    const auto rep3 = fpga::analyze(
        {fpga::EngineKind::kStrideBVBlockRam, n, 3, true, true}, device);
    const auto rep4 = fpga::analyze(
        {fpga::EngineKind::kStrideBVBlockRam, n, 4, true, true}, device);
    const double p3 = rep3.resources.bram_percent(device);
    const double p4 = rep4.resources.bram_percent(device);
    table.add_row({std::to_string(n), std::to_string(rep3.resources.bram36),
                   util::fmt_double(p3, 1), std::to_string(rep4.resources.bram36),
                   util::fmt_double(p4, 1)});
    s3.values.push_back(p3);
    s4.values.push_back(p4);
    worst3 = p3 > worst3 ? p3 : worst3;
    worst4 = p4 > worst4 ? p4 : worst4;
  }
  bench::emit(table, "fig9_bram.csv");
  bench::print_chart(sizes, {s3, s4}, "% BRAM");

  bench::check("k=3 worst case saturates BRAM", worst3 >= 95,
               util::fmt_double(worst3, 1) +
                   "% at N=2048 (paper: fully utilized; >100% = unplaceable)");
  bench::check("k=4 stays within BRAM", worst4 < 95,
               util::fmt_double(worst4, 1) + "% at N=2048");
  return bench::exit_code();
}
