// Figure 10: Power per unit throughput (mW/Gbps) vs number of rules.
//
// Paper result: distributed RAM is the clear power-efficiency winner —
// StrideBV distRAM is ~4.5x better than TCAM; StrideBV BRAM k=4 ~3.5x
// better than TCAM; BRAM k=3 is ~4.5x WORSE than distRAM (whole-block
// power floor at tiny stride depths) and k=4 is ~1.3x better than k=3.
#include <cstdio>
#include <string>
#include <vector>

#include "fpga/report.h"
#include "harness.h"
#include "util/str.h"

using namespace rfipc;

int main() {
  bench::print_banner(
      "Figure 10 — power per unit throughput (mW/Gbps) vs number of rules",
      "distRAM ~4.5x better than TCAM; BRAM k=4 ~3.5x; BRAM k=3 ~ TCAM level");
  bench::functional_gate(128);

  const auto device = fpga::virtex7_xc7vx1140t();
  const auto sizes = fpga::paper_sizes();

  util::TextTable table({"N", "distRAM k=3", "distRAM k=4", "BRAM k=3", "BRAM k=4",
                         "TCAM on FPGA"});
  std::vector<bench::Series> series(5);
  const char* labels[5] = {"distRAM k=3", "distRAM k=4", "BRAM k=3", "BRAM k=4",
                           "TCAM on FPGA"};
  for (int i = 0; i < 5; ++i) series[i].label = labels[i];

  double sum[5] = {0, 0, 0, 0, 0};
  for (const auto n : sizes) {
    std::vector<std::string> row{std::to_string(n)};
    const auto pts = fpga::paper_sweep_points(n);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const auto rep = fpga::analyze(pts[i], device);
      row.push_back(util::fmt_double(rep.power.mw_per_gbps, 1));
      series[i].values.push_back(rep.power.mw_per_gbps);
      sum[i] += rep.power.mw_per_gbps;
    }
    table.add_row(row);
  }
  bench::emit(table, "fig10_power.csv");
  bench::print_chart(sizes, series, "mW/Gbps");

  // Section V-D ratios (the abstract's "3.5x better than TCAM with BRAM"
  // contradicts V-D's "BRAM k=3 is 4.5x worse than distRAM"; we follow
  // the detailed section and record the discrepancy in EXPERIMENTS.md).
  const double dist_avg = (sum[0] + sum[1]) / 2;
  const double tcam_avg = sum[4];
  const double dist_vs_tcam = tcam_avg / dist_avg;  // >1 = distRAM better
  const double bram3_vs_dist = sum[2] / dist_avg;
  const double bram4_vs_dist = sum[3] / dist_avg;
  const double k4_vs_k3_bram = sum[2] / sum[3];

  bench::check("StrideBV distRAM ~4.5x better power eff. than TCAM",
               dist_vs_tcam > 3.5 && dist_vs_tcam < 6.0,
               util::fmt_double(dist_vs_tcam, 2) + "x (paper: ~4.5x)");
  bench::check("BRAM k=3 ~4.5x worse than distRAM",
               bram3_vs_dist > 3.0 && bram3_vs_dist < 6.5,
               util::fmt_double(bram3_vs_dist, 2) + "x (paper: ~4.5x)");
  bench::check("BRAM k=4 ~3.5x worse than distRAM",
               bram4_vs_dist > 2.4 && bram4_vs_dist < 4.8,
               util::fmt_double(bram4_vs_dist, 2) + "x (paper: ~3.5x)");
  bench::check("BRAM k=4 ~1.3x better than BRAM k=3",
               k4_vs_k3_bram > 1.1 && k4_vs_k3_bram < 1.6,
               util::fmt_double(k4_vs_k3_bram, 2) + "x (paper: ~1.3x)");
  return bench::exit_code();
}
