// Extension: multi-pipeline StrideBV scaling (paper Sections IV-A, V-A).
//
// The paper's single-pipeline experiments leave most of the device
// idle; it notes that combining distRAM and BRAM pipelines "can be
// done to achieve 400G+ throughput". This bench packs pipelines onto
// the XC7VX1140T until a resource runs out and reports the aggregate,
// plus the Section V-B memory multiplication factor.
#include <cstdio>
#include <string>

#include "fpga/multipipeline.h"
#include "harness.h"
#include "util/str.h"

using namespace rfipc;

int main() {
  bench::print_banner(
      "Extension — multi-pipeline StrideBV packing",
      "distRAM+BRAM pipeline combination reaches 400G+ (Section IV-A)");
  bench::functional_gate(256);

  const auto device = fpga::virtex7_xc7vx1140t();
  util::TextTable table({"N", "k", "pipelines (dist+bram)", "aggregate (Gbps)",
                         "power (W)", "mW/Gbps", "memory (Kbit)"});
  double best512 = 0;
  for (const std::uint64_t n : {256ull, 512ull, 1024ull, 2048ull}) {
    for (const unsigned k : {3u, 4u}) {
      fpga::MultiPipelineConfig cfg;
      cfg.entries = n;
      cfg.stride = k;
      const auto plan = fpga::plan_multipipeline(cfg, device);
      table.add_row({std::to_string(n), std::to_string(k),
                     std::to_string(plan.dist_pipelines) + "+" +
                         std::to_string(plan.bram_pipelines),
                     util::fmt_double(plan.aggregate_gbps, 0),
                     util::fmt_double(plan.total_power_w, 1),
                     util::fmt_double(plan.mw_per_gbps, 1),
                     util::fmt_double(
                         static_cast<double>(plan.total.memory_bits) / 1024.0, 0)});
      if (n == 512 && k == 4) best512 = plan.aggregate_gbps;
    }
  }
  bench::emit(table, "ext_multipipeline.csv");

  bench::check("aggregate reaches 400G+ at N=512, k=4", best512 >= 400.0,
               util::fmt_double(best512, 0) + " Gbps (paper: 400G+ possible)");

  // Section V-B: memory multiplies with the pipeline count.
  fpga::MultiPipelineConfig cfg;
  cfg.entries = 512;
  cfg.stride = 4;
  cfg.max_pipelines = 6;
  const auto six = fpga::plan_multipipeline(cfg, device);
  cfg.max_pipelines = 1;
  const auto one = fpga::plan_multipipeline(cfg, device);
  bench::check("memory scales with pipeline count (Section V-B factor)",
               six.total.memory_bits == 6 * one.total.memory_bits,
               "6 pipelines use exactly 6x the stage memory of 1");
  std::printf("\n  %s\n", six.summary().c_str());
  return bench::exit_code();
}
