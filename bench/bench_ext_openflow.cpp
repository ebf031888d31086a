// Extension: OpenFlow-style 12-field classification (paper Section
// II-A: "other multi-field packet classification schemes such as
// OpenFlow also exist which consider 12+ number of fields").
//
// Both engines are width-agnostic: they only see a W-bit ternary
// string. This bench runs the generic (schema-driven) StrideBV and
// TCAM on the 253-bit OpenFlow-1.0-flavoured schema, verifies them
// against a generic linear search, and shows how the hardware costs
// scale from W=104 to W=253: StrideBV stage count and memory grow by
// W ratio while its clock (hence throughput) is width-independent —
// the TCAM pays the wider match word.
#include <cstdio>
#include <string>
#include <vector>

#include "flow/generic.h"
#include "fpga/report.h"
#include "harness.h"
#include "util/prng.h"
#include "util/str.h"

using namespace rfipc;

int main() {
  bench::print_banner(
      "Extension — OpenFlow-style 12-field classification",
      "ruleset-feature independence extends to field-layout independence");

  const auto of = flow::Schema::openflow10();
  const auto ft = flow::Schema::five_tuple();
  std::printf("schema: %s\n\n", of.to_string().c_str());

  // Functional gate on the wide schema: generic StrideBV and TCAM vs
  // generic linear search on random rules.
  util::Xoshiro256 rng(2013);
  std::vector<flow::GenericRule> rules;
  for (int i = 0; i < 128; ++i) rules.push_back(flow::random_rule(of, rng, 0.55));
  rules.push_back(flow::GenericRule::match_all(of));
  const flow::GenericLinearEngine golden(of, rules);
  const flow::GenericStrideBVEngine sbv(of, rules, 4);
  const flow::GenericTcamEngine tcam(of, rules);

  std::size_t mismatches = 0;
  for (int probe = 0; probe < 3000; ++probe) {
    const auto h = probe % 2 == 0
                       ? flow::random_header(of, rng)
                       : flow::header_for_rule(rules[rng.below(rules.size())], rng);
    const auto want = golden.classify(h);
    if (sbv.classify(h).best != want.best) ++mismatches;
    if (tcam.classify(h).best != want.best) ++mismatches;
  }
  bench::check("generic engines match linear search on 253-bit headers",
               mismatches == 0, "3000 probes, 129 rules, 12 fields");

  // Hardware scaling: same N, 104 vs 253 bits.
  const auto device = fpga::virtex7_xc7vx1140t();
  util::TextTable table({"design", "W (bits)", "stages", "memory (Kbit)",
                         "throughput (Gbps)", "% slices"});
  double thr104 = 0;
  double thr237 = 0;
  for (const unsigned w : {ft.total_bits(), of.total_bits()}) {
    for (const auto kind :
         {fpga::EngineKind::kStrideBVDistRam, fpga::EngineKind::kTcamFpga}) {
      fpga::DesignPoint dp;
      dp.kind = kind;
      dp.entries = 512;
      dp.stride = 4;
      dp.dual_port = kind != fpga::EngineKind::kTcamFpga;
      dp.header_bits = w;
      const auto rep = fpga::analyze(dp, device);
      table.add_row({dp.label(), std::to_string(w),
                     kind == fpga::EngineKind::kTcamFpga
                         ? "1"
                         : std::to_string(fpga::stridebv_stages(4, w)),
                     util::fmt_double(rep.memory_kbits(), 1),
                     util::fmt_double(rep.timing.throughput_gbps, 1),
                     util::fmt_double(rep.resources.slice_percent(device), 1)});
      if (kind == fpga::EngineKind::kStrideBVDistRam) {
        (w == ft.total_bits() ? thr104 : thr237) = rep.timing.throughput_gbps;
      }
    }
  }
  bench::emit(table, "ext_openflow.csv");

  bench::check("StrideBV clock (throughput) is width-independent",
               thr104 == thr237,
               util::fmt_double(thr237, 1) +
                   " Gbps at both widths — only depth and memory grow");
  const double mem_ratio =
      static_cast<double>(fpga::stridebv_stages(4, of.total_bits())) /
      static_cast<double>(fpga::stridebv_stages(4, ft.total_bits()));
  bench::check("StrideBV memory grows with ceil(W/k) stages",
               mem_ratio > 2.0 && mem_ratio < 2.5,
               util::fmt_double(mem_ratio, 2) + "x stages for 2.28x the bits");
  return bench::exit_code();
}
