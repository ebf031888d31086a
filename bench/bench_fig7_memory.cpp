// Figure 7: Memory requirement (Kbit) vs number of rules.
//
// Paper result: all series grow linearly in N. TCAM is the most memory
// efficient (2 bits per rule bit = 26 B/rule); StrideBV needs
// ceil(104/k) * 2^k * N bits (35 B/rule at k=3, 52 B/rule at k=4), with
// the worst case — stride 4, N = 2048 — still under 900 Kbit, well
// inside on-chip capacity. Memory does not depend on distRAM vs BRAM.
#include <cstdio>
#include <string>

#include "fpga/report.h"
#include "harness.h"
#include "util/str.h"

using namespace rfipc;

int main() {
  bench::print_banner("Figure 7 — memory (Kbit) vs number of rules",
                      "linear growth; TCAM lowest; StrideBV k=4 N=2048 < 900 Kbit");
  bench::functional_gate(128);

  const auto device = fpga::virtex7_xc7vx1140t();
  const auto sizes = fpga::paper_sizes();

  util::TextTable table(
      {"N", "StrideBV k=3 (Kbit)", "StrideBV k=4 (Kbit)", "TCAM (Kbit)"});
  bench::Series s3{"StrideBV k=3", {}};
  bench::Series s4{"StrideBV k=4", {}};
  bench::Series st{"TCAM on FPGA", {}};
  double worst_k4 = 0;
  for (const auto n : sizes) {
    const auto rep3 = fpga::analyze(
        {fpga::EngineKind::kStrideBVDistRam, n, 3, true, true}, device);
    const auto rep4 = fpga::analyze(
        {fpga::EngineKind::kStrideBVDistRam, n, 4, true, true}, device);
    const auto rept =
        fpga::analyze({fpga::EngineKind::kTcamFpga, n, 4, false, true}, device);
    table.add_row({std::to_string(n), util::fmt_double(rep3.memory_kbits(), 1),
                   util::fmt_double(rep4.memory_kbits(), 1),
                   util::fmt_double(rept.memory_kbits(), 1)});
    s3.values.push_back(rep3.memory_kbits());
    s4.values.push_back(rep4.memory_kbits());
    st.values.push_back(rept.memory_kbits());
    if (n == 2048) worst_k4 = rep4.memory_kbits();
  }
  bench::emit(table, "fig7_memory.csv");
  bench::print_chart(sizes, {s3, s4, st}, "Kbit");

  // Linearity: value(2N)/value(N) == 2 exactly for all series.
  bool linear = true;
  for (const auto* s : {&s3, &s4, &st}) {
    for (std::size_t i = 1; i < s->values.size(); ++i) {
      const double r = s->values[i] / s->values[i - 1];
      if (r < 1.99 || r > 2.01) linear = false;
    }
  }
  bench::check("memory grows linearly in N", linear, "doubling N doubles Kbit");
  bench::check("TCAM most memory efficient",
               st.values.back() < s3.values.back() &&
                   st.values.back() < s4.values.back(),
               "TCAM " + util::fmt_double(st.values.back(), 0) + " Kbit vs k=3 " +
                   util::fmt_double(s3.values.back(), 0) + " / k=4 " +
                   util::fmt_double(s4.values.back(), 0));
  bench::check("worst case (k=4, N=2048) < 900 Kbit", worst_k4 < 900,
               util::fmt_double(worst_k4, 0) + " Kbit (paper: <9xx Kbit)");
  return bench::exit_code();
}
