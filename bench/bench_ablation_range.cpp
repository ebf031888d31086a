// Ablation: arbitrary port ranges — prefix expansion vs explicit range
// modules.
//
// The paper (Section II-A) warns that one range rule can expand into up
// to 4(w-1)^2 TCAM entries. Plain StrideBV inherits the same lowering;
// the StrideBV-RE variant (reference [5]'s range-search modules) keeps
// the bit-vector width at N. This bench sweeps the fraction of
// range-bearing rules and reports entry inflation and memory for all
// three, plus a worst-case single-rule expansion probe.
#include <cstdio>
#include <string>

#include "engines/stridebv/range_engine.h"
#include "engines/stridebv/stridebv_engine.h"
#include "engines/tcam/tcam_engine.h"
#include "harness.h"
#include "ruleset/generator.h"
#include "ruleset/ternary.h"
#include "ruleset/trace.h"
#include "util/str.h"

using namespace rfipc;

int main() {
  bench::print_banner(
      "Ablation — range handling: prefix expansion vs range modules",
      "range expansion up to 4(w-1)^2 entries/rule; StrideBV-RE stays at N");

  constexpr std::size_t kN = 256;
  util::TextTable table({"range fraction", "rules", "TCAM entries",
                         "StrideBV entries", "StrideBV mem (KB)",
                         "StrideBV-RE mem (KB)"});
  double worst_inflation = 0;
  for (const double frac : {0.0, 0.2, 0.5, 0.8}) {
    ruleset::GeneratorConfig cfg;
    cfg.mode = ruleset::GeneratorMode::kFirewall;
    cfg.size = kN;
    cfg.seed = 7;
    cfg.range_fraction = frac;
    const auto rules = ruleset::generate(cfg);

    engines::tcam::TcamEngine tcam(rules);
    engines::stridebv::StrideBVEngine sbv(rules, {4});
    engines::stridebv::StrideBVRangeEngine sbvre(rules, {4});

    table.add_row({util::fmt_double(frac, 1), std::to_string(rules.size()),
                   std::to_string(tcam.entry_count()),
                   std::to_string(sbv.entry_count()),
                   util::fmt_double(static_cast<double>(sbv.memory_bits()) / 8192.0, 1),
                   util::fmt_double(static_cast<double>(sbvre.memory_bits()) / 8192.0, 1)});
    const double infl =
        static_cast<double>(tcam.entry_count()) / static_cast<double>(rules.size());
    worst_inflation = infl > worst_inflation ? infl : worst_inflation;
  }
  bench::emit(table, "ablation_range.csv");

  // Worst-case single rule: both ports [1, 65534] -> 30 prefixes each.
  ruleset::Rule worst = ruleset::Rule::any();
  worst.src_port = {1, 65534};
  worst.dst_port = {1, 65534};
  const std::size_t expansion = ruleset::ternary_expansion(worst);
  bench::check("worst-case rule expands to (2(w-1))^2 = 900 entries",
               expansion == 900,
               std::to_string(expansion) + " ternary entries for [1,65534]x[1,65534]");
  bench::check("range-bearing rulesets inflate TCAM/StrideBV entries",
               worst_inflation > 1.5,
               util::fmt_double(worst_inflation, 2) + "x at 80% range rules");

  // Functional equivalence of the two StrideBV variants on range rules.
  ruleset::GeneratorConfig cfg;
  cfg.mode = ruleset::GeneratorMode::kFirewall;
  cfg.size = 128;
  cfg.seed = 11;
  cfg.range_fraction = 0.6;
  const auto rules = ruleset::generate(cfg);
  engines::stridebv::StrideBVEngine a(rules, {4});
  engines::stridebv::StrideBVRangeEngine b(rules, {4});
  ruleset::TraceConfig tc;
  tc.size = 3000;
  bool equal = true;
  for (const auto& t : ruleset::generate_trace(rules, tc)) {
    if (a.classify_tuple(t).best != b.classify_tuple(t).best) equal = false;
  }
  bench::check("StrideBV and StrideBV-RE classify identically", equal,
               "3000-header trace, 60% range rules");
  return bench::exit_code();
}
