// Figure 6: Throughput with vs without PlanAhead floorplanning —
// StrideBV, block RAM, stride 3.
//
// Paper result: the gain is visible for BRAM too (fixed block columns
// limit what placement can do, but register/logic placement around the
// blocks still shortens the nets noticeably).
#include <cstdio>
#include <string>

#include "fpga/report.h"
#include "harness.h"
#include "util/str.h"

using namespace rfipc;

int main() {
  bench::print_banner(
      "Figure 6 — floorplanning gain, StrideBV BRAM stride 3",
      "notable throughput improvement from PlanAhead mapping at all N");
  bench::functional_gate(256);

  const auto device = fpga::virtex7_xc7vx1140t();
  const auto sizes = fpga::paper_sizes();

  util::TextTable table({"N", "Without PlanAhead (Gbps)", "With PlanAhead (Gbps)",
                         "gain"});
  bench::Series no_fp{"without PlanAhead", {}};
  bench::Series fp{"with PlanAhead", {}};
  bool all_gain = true;
  double min_gain = 1e9;
  double max_gain = 0;
  for (const auto n : sizes) {
    fpga::DesignPoint p{fpga::EngineKind::kStrideBVBlockRam, n, 3, true, false};
    const auto rep_no = fpga::analyze(p, device);
    p.floorplanned = true;
    const auto rep_fp = fpga::analyze(p, device);
    const double gain =
        rep_fp.timing.throughput_gbps / rep_no.timing.throughput_gbps;
    table.add_row({std::to_string(n),
                   util::fmt_double(rep_no.timing.throughput_gbps, 1),
                   util::fmt_double(rep_fp.timing.throughput_gbps, 1),
                   util::fmt_double(gain, 2) + "x"});
    no_fp.values.push_back(rep_no.timing.throughput_gbps);
    fp.values.push_back(rep_fp.timing.throughput_gbps);
    all_gain = all_gain && gain > 1.0;
    min_gain = gain < min_gain ? gain : min_gain;
    max_gain = gain > max_gain ? gain : max_gain;
  }
  bench::emit(table, "fig6_floorplan_bram.csv");
  bench::print_chart(sizes, {no_fp, fp}, "Gbps");

  bench::check("floorplanning improves throughput at every N", all_gain,
               "gain range " + util::fmt_double(min_gain, 2) + "x - " +
                   util::fmt_double(max_gain, 2) + "x");
  return bench::exit_code();
}
