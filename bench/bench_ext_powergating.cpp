// Extension: partitioned TCAM power gating (paper Section II-B).
//
// "Partitioning so as to disable the TCAMs that are not relevant for a
// given search ... helps improving power efficiency [but] the cost and
// power requirements are still not justifiable compared with
// algorithmic solutions." This bench measures the active-entry
// fraction of the partitioned TCAM across bank counts and ruleset
// flavours, and shows the paper's caveat: the benefit is itself
// ruleset-feature dependent (wildcard DIPs land in the always-on
// overflow bank), and even the best case stays behind StrideBV.
#include <cstdio>
#include <string>

#include "engines/common/linear_engine.h"
#include "engines/tcam/partitioned_tcam.h"
#include "harness.h"
#include "ruleset/generator.h"
#include "ruleset/trace.h"
#include "util/str.h"

using namespace rfipc;

namespace {

double measured_active_fraction(const engines::tcam::PartitionedTcamEngine& e,
                                const ruleset::RuleSet& rules) {
  ruleset::TraceConfig cfg;
  cfg.size = 2000;
  double total = 0;
  for (const auto& t : ruleset::generate_trace(rules, cfg)) {
    total += static_cast<double>(e.active_entries(net::HeaderBits(t)));
  }
  return total / 2000.0 / static_cast<double>(e.total_entries());
}

}  // namespace

int main() {
  bench::print_banner(
      "Extension — partitioned TCAM power gating",
      "bank disabling cuts active entries, but wildcard DIPs defeat it");
  bench::functional_gate(256);

  util::TextTable table({"ruleset", "index bits", "banks", "overflow entries",
                         "expected active (%)", "measured active (%)"});
  double acl_best = 1.0;
  double fw_best = 1.0;
  for (const auto mode :
       {ruleset::GeneratorMode::kAcl, ruleset::GeneratorMode::kFirewall}) {
    ruleset::GeneratorConfig gcfg;
    gcfg.mode = mode;
    gcfg.size = 512;
    gcfg.seed = 13;
    gcfg.default_rule = false;
    const auto rules = ruleset::generate(gcfg);
    for (const unsigned bits : {1u, 3u, 5u}) {
      const engines::tcam::PartitionedTcamEngine e(rules, {bits});
      const double expected = e.expected_active_fraction();
      const double measured = measured_active_fraction(e, rules);
      table.add_row({ruleset::mode_name(mode), std::to_string(bits),
                     std::to_string(e.bank_count()),
                     std::to_string(e.overflow_entries()),
                     util::fmt_double(expected * 100, 1),
                     util::fmt_double(measured * 100, 1)});
      if (mode == ruleset::GeneratorMode::kAcl) {
        acl_best = std::min(acl_best, measured);
      } else {
        fw_best = std::min(fw_best, measured);
      }
    }
  }
  bench::emit(table, "ext_powergating.csv");

  bench::check("partitioning cuts active entries on indexable rulesets",
               acl_best < 0.35,
               util::fmt_double(acl_best * 100, 1) + "% of entries active (ACL)");
  bench::check("benefit shrinks on wildcard-heavy rulesets (feature reliance)",
               fw_best > acl_best,
               "firewall best " + util::fmt_double(fw_best * 100, 1) + "% vs ACL " +
                   util::fmt_double(acl_best * 100, 1) + "%");

  // Correctness: partitioning must never change classification.
  ruleset::GeneratorConfig gcfg;
  gcfg.size = 256;
  gcfg.seed = 31;
  const auto rules = ruleset::generate(gcfg);
  const engines::tcam::PartitionedTcamEngine part(rules, {4});
  const engines::LinearSearchEngine golden(rules);
  ruleset::TraceConfig tcfg;
  tcfg.size = 3000;
  bool ok = true;
  for (const auto& t : ruleset::generate_trace(rules, tcfg)) {
    if (part.classify_tuple(t).best != golden.classify_tuple(t).best) ok = false;
  }
  bench::check("partitioned TCAM classifies identically to golden", ok,
               "3000-header trace, 16 banks");
  return bench::exit_code();
}
