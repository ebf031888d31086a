// Figure 8: Resource consumption (% slices) vs number of rules.
//
// Paper result: the five configurations consume broadly similar slice
// percentages until N=1024, after which BRAM-based StrideBV pulls ahead
// (bridging logic to the fixed BRAM columns); stride 4 uses ~1.3x fewer
// slices than stride 3 (fewer stages); distRAM at N=2048 sits around
// 40% of the device — everything fits.
#include <cstdio>
#include <string>
#include <vector>

#include "fpga/report.h"
#include "harness.h"
#include "util/str.h"

using namespace rfipc;

int main() {
  bench::print_banner(
      "Figure 8 — resource consumption (% slices) vs number of rules",
      "similar %% until N=1024, BRAM highest beyond; k=4 ~1.3x leaner than k=3");
  bench::functional_gate(128);

  const auto device = fpga::virtex7_xc7vx1140t();
  const auto sizes = fpga::paper_sizes();

  util::TextTable table({"N", "distRAM k=3 (%)", "distRAM k=4 (%)", "BRAM k=3 (%)",
                         "BRAM k=4 (%)", "TCAM (%)"});
  std::vector<bench::Series> series(5);
  const char* labels[5] = {"distRAM k=3", "distRAM k=4", "BRAM k=3", "BRAM k=4",
                           "TCAM on FPGA"};
  for (int i = 0; i < 5; ++i) series[i].label = labels[i];

  bool all_fit_dist = true;
  for (const auto n : sizes) {
    std::vector<std::string> row{std::to_string(n)};
    const auto pts = fpga::paper_sweep_points(n);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const auto rep = fpga::analyze(pts[i], device);
      const double pct = rep.resources.slice_percent(device);
      row.push_back(util::fmt_double(pct, 1));
      series[i].values.push_back(pct);
      if (i < 2 && !rep.fits) all_fit_dist = false;
    }
    table.add_row(row);
  }
  bench::emit(table, "fig8_resources.csv");
  bench::print_chart(sizes, series, "% slices");

  const double dist3_2048 = series[0].values.back();
  const double dist4_2048 = series[1].values.back();
  const double bram3_2048 = series[2].values.back();
  bench::check("distRAM N=2048 around 40% slices",
               dist4_2048 > 25 && dist3_2048 < 60,
               "k=4 " + util::fmt_double(dist4_2048, 1) + "%, k=3 " +
                   util::fmt_double(dist3_2048, 1) + "% (paper: ~40%)");
  bench::check("k=4 leaner than k=3 (~1.3x)",
               dist3_2048 / dist4_2048 > 1.15 && dist3_2048 / dist4_2048 < 1.55,
               util::fmt_double(dist3_2048 / dist4_2048, 2) + "x fewer slices");
  bench::check("BRAM consumes most slices at N=2048",
               bram3_2048 > dist3_2048 && bram3_2048 > series[4].values.back(),
               "BRAM k=3 " + util::fmt_double(bram3_2048, 1) + "% tops the chart");
  bench::check("distRAM designs fit the device at every N", all_fit_dist,
               "slices, distRAM capacity, and IOBs all within XC7VX1140T");
  return bench::exit_code();
}
