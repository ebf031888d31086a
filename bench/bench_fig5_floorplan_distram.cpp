// Figure 5: Throughput with vs without PlanAhead floorplanning —
// StrideBV, distributed RAM, stride 4.
//
// Paper result: careful chip floorplanning is worth a large clock gain;
// e.g. ~100 Gbps -> ~150 Gbps at N = 1024.
#include <cstdio>
#include <string>

#include "fpga/report.h"
#include "harness.h"
#include "util/str.h"

using namespace rfipc;

int main() {
  bench::print_banner(
      "Figure 5 — floorplanning gain, StrideBV distRAM stride 4",
      "PlanAhead mapping lifts ~100 Gbps to ~150 Gbps at N=1024");
  bench::functional_gate(256);

  const auto device = fpga::virtex7_xc7vx1140t();
  const auto sizes = fpga::paper_sizes();

  util::TextTable table({"N", "Without PlanAhead (Gbps)", "With PlanAhead (Gbps)",
                         "gain"});
  bench::Series no_fp{"without PlanAhead", {}};
  bench::Series fp{"with PlanAhead", {}};
  double n1024_without = 0;
  double n1024_with = 0;
  for (const auto n : sizes) {
    fpga::DesignPoint p{fpga::EngineKind::kStrideBVDistRam, n, 4, true, false};
    const auto rep_no = fpga::analyze(p, device);
    p.floorplanned = true;
    const auto rep_fp = fpga::analyze(p, device);
    table.add_row({std::to_string(n),
                   util::fmt_double(rep_no.timing.throughput_gbps, 1),
                   util::fmt_double(rep_fp.timing.throughput_gbps, 1),
                   util::fmt_double(rep_fp.timing.throughput_gbps /
                                        rep_no.timing.throughput_gbps,
                                    2) +
                       "x"});
    no_fp.values.push_back(rep_no.timing.throughput_gbps);
    fp.values.push_back(rep_fp.timing.throughput_gbps);
    if (n == 1024) {
      n1024_without = rep_no.timing.throughput_gbps;
      n1024_with = rep_fp.timing.throughput_gbps;
    }
  }
  bench::emit(table, "fig5_floorplan_distram.csv");
  bench::print_chart(sizes, {no_fp, fp}, "Gbps");

  bench::check("N=1024 without PlanAhead ~100 Gbps",
               n1024_without > 80 && n1024_without < 120,
               util::fmt_double(n1024_without, 1) + " Gbps (paper: ~100)");
  bench::check("N=1024 with PlanAhead ~150 Gbps",
               n1024_with > 130 && n1024_with < 175,
               util::fmt_double(n1024_with, 1) + " Gbps (paper: ~150)");
  return bench::exit_code();
}
