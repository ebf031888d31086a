// Section IV-C: the ASIC TCAM power model.
//
// Paper: a commodity ASIC TCAM (8 Mbit, 250+ MHz, ~5 W full, ~0.8 W
// static at 70 nm) dissipates power proportional to the active entries:
//   P(N) = Ps + (Pt - Ps) * (2 * 104 * N) / capacity.
// ASIC TCAMs beat the FPGA engines on absolute power at these small N
// (the paper: "ASIC-based TCAMs have superior power performance"), but
// the comparison of record stays FPGA-vs-FPGA.
#include <cstdio>
#include <string>

#include "fpga/asic_tcam.h"
#include "fpga/report.h"
#include "harness.h"
#include "util/str.h"

using namespace rfipc;

int main() {
  bench::print_banner("Section IV-C — ASIC TCAM power model",
                      "P(N) = 0.8 + 4.2 * (208*N / 8 Mbit) W at 250 MHz");

  const auto device = fpga::virtex7_xc7vx1140t();
  const auto sizes = fpga::paper_sizes();

  util::TextTable table({"N", "occupancy (%)", "ASIC power (W)", "ASIC mW/Gbps",
                         "FPGA-TCAM mW/Gbps", "StrideBV distRAM k=4 mW/Gbps"});
  bool monotone = true;
  double prev = 0;
  for (const auto n : sizes) {
    const auto asic = fpga::estimate_asic_tcam(n);
    const auto ftcam =
        fpga::analyze({fpga::EngineKind::kTcamFpga, n, 4, false, true}, device);
    const auto sbv = fpga::analyze(
        {fpga::EngineKind::kStrideBVDistRam, n, 4, true, true}, device);
    table.add_row({std::to_string(n), util::fmt_double(asic.occupancy * 100, 2),
                   util::fmt_double(asic.power_w, 3),
                   util::fmt_double(asic.mw_per_gbps, 1),
                   util::fmt_double(ftcam.power.mw_per_gbps, 1),
                   util::fmt_double(sbv.power.mw_per_gbps, 1)});
    if (asic.power_w < prev) monotone = false;
    prev = asic.power_w;
  }
  bench::emit(table, "asic_tcam.csv");

  const auto asic_full = fpga::estimate_asic_tcam(8 * 1024 * 1024 / 208);
  bench::check("power grows linearly with active entries", monotone,
               "per-entry enable granularity (Section IV-C)");
  bench::check("fully populated chip dissipates ~5 W",
               asic_full.power_w > 4.9 && asic_full.power_w <= 5.0,
               util::fmt_double(asic_full.power_w, 2) + " W at 100% occupancy");
  const auto asic512 = fpga::estimate_asic_tcam(512);
  const auto ftcam512 =
      fpga::analyze({fpga::EngineKind::kTcamFpga, 512, 4, false, true}, device);
  bench::check("ASIC TCAM beats FPGA TCAM on power efficiency",
               asic512.mw_per_gbps < ftcam512.power.mw_per_gbps,
               util::fmt_double(asic512.mw_per_gbps, 1) + " vs " +
                   util::fmt_double(ftcam512.power.mw_per_gbps, 1) + " mW/Gbps at N=512");
  return bench::exit_code();
}
