// Figure 4: Throughput (Gbps) vs number of rules.
//
// Paper result: StrideBV beats TCAM-on-FPGA by ~6x with distributed RAM
// and ~4x with block RAM; distRAM beats BRAM by ~1.3x; all series
// degrade slowly as N grows while TCAM degrades despite its O(1)
// lookup, because clock rate falls with resource footprint and routing.
#include <cstdio>
#include <string>
#include <vector>

#include "fpga/report.h"
#include "harness.h"
#include "util/str.h"

using namespace rfipc;

int main() {
  bench::print_banner(
      "Figure 4 — throughput vs number of rules",
      "StrideBV ~6x (distRAM) / ~4x (BRAM) over TCAM; distRAM ~1.3x BRAM");
  bench::functional_gate(512);

  const auto device = fpga::virtex7_xc7vx1140t();
  const auto sizes = fpga::paper_sizes();

  util::TextTable table({"N", "distRAM k=3", "distRAM k=4", "BRAM k=3", "BRAM k=4",
                         "TCAM on FPGA"});
  std::vector<bench::Series> series(5);
  const char* labels[5] = {"distRAM k=3", "distRAM k=4", "BRAM k=3", "BRAM k=4",
                           "TCAM on FPGA"};
  for (int i = 0; i < 5; ++i) series[i].label = labels[i];

  double sum_dist = 0;
  double sum_bram = 0;
  double sum_tcam = 0;
  for (const auto n : sizes) {
    std::vector<std::string> row{std::to_string(n)};
    const auto pts = fpga::paper_sweep_points(n);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const auto rep = fpga::analyze(pts[i], device);
      row.push_back(util::fmt_double(rep.timing.throughput_gbps, 1));
      series[i].values.push_back(rep.timing.throughput_gbps);
      if (i < 2) sum_dist += rep.timing.throughput_gbps;
      else if (i < 4) sum_bram += rep.timing.throughput_gbps;
      else sum_tcam += rep.timing.throughput_gbps;
    }
    table.add_row(row);
  }
  bench::emit(table, "fig4_throughput.csv");
  bench::print_chart(sizes, series, "Gbps");

  const double n_points = static_cast<double>(sizes.size());
  const double dist_ratio = (sum_dist / 2) / sum_tcam;
  const double bram_ratio = (sum_bram / 2) / sum_tcam;
  const double dist_vs_bram = sum_dist / sum_bram;
  (void)n_points;
  bench::check("StrideBV distRAM ~6x TCAM", dist_ratio > 4.5 && dist_ratio < 8.0,
               "measured " + util::fmt_double(dist_ratio, 2) + "x (paper: ~6x)");
  bench::check("StrideBV BRAM ~4x TCAM", bram_ratio > 3.0 && bram_ratio < 5.5,
               "measured " + util::fmt_double(bram_ratio, 2) + "x (paper: ~4x)");
  bench::check("distRAM ~1.3x BRAM", dist_vs_bram > 1.1 && dist_vs_bram < 1.6,
               "measured " + util::fmt_double(dist_vs_bram, 2) + "x (paper: ~1.3x)");

  // Monotone degradation with N for every series.
  bool degrade = true;
  for (const auto& s : series) {
    for (std::size_t i = 1; i < s.values.size(); ++i) {
      if (s.values[i] > s.values[i - 1] + 1e-9) degrade = false;
    }
  }
  bench::check("throughput degrades with ruleset size", degrade,
               "all five series non-increasing in N");
  return bench::exit_code();
}
