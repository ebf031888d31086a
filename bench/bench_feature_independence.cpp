// Section II motivation: ruleset-feature independence.
//
// The paper's premise: feature-reliant classifiers (decision trees,
// decomposition schemes) have costs that depend on ruleset *structure*
// — they are small when the expected features are present (specific,
// well-separated prefixes) and blow up when they are absent (wildcard-
// heavy, overlapping rules) — while TCAM and StrideBV costs depend on
// N alone. We build the HiCuts-lite decision tree and both
// ruleset-independent engines on three flavours of 512-rule classifier
// (ACL: long specific prefixes; firewall: wildcard-heavy; feature-free:
// uniform random) and compare memory behaviour.
#include <algorithm>
#include <cstdio>
#include <string>

#include "engines/baselines/hicuts_lite.h"
#include "engines/bv/decomposition.h"
#include "engines/stridebv/stridebv_engine.h"
#include "engines/tcam/tcam_engine.h"
#include "harness.h"
#include "ruleset/analyzer.h"
#include "ruleset/generator.h"
#include "util/str.h"

using namespace rfipc;

namespace {

struct Cost {
  double hicuts_kb;
  double hicuts_repl;
  double bv_kb;
  double stridebv_kb;
  double tcam_kb;
};

Cost measure(ruleset::GeneratorMode mode, std::size_t n) {
  ruleset::GeneratorConfig cfg;
  cfg.mode = mode;
  cfg.size = n;
  cfg.seed = 99;
  cfg.range_fraction = 0.0;  // keep TCAM expansion out of this story
  const auto rules = ruleset::generate(cfg);

  engines::baselines::HiCutsLiteEngine tree(rules);
  engines::bv::BvDecompositionEngine bv(rules);
  engines::stridebv::StrideBVEngine sbv(rules, {4});
  engines::tcam::TcamEngine tcam(rules);

  return {static_cast<double>(tree.stats().memory_bytes) / 1024.0,
          tree.stats().replication,
          static_cast<double>(bv.memory_bits()) / 8.0 / 1024.0,
          static_cast<double>(sbv.memory_bits()) / 8.0 / 1024.0,
          static_cast<double>(tcam.memory_bits()) / 8.0 / 1024.0};
}

}  // namespace

int main() {
  bench::print_banner(
      "Feature independence — tree cost tracks ruleset structure, "
      "TCAM/StrideBV track N only",
      "feature-reliant solutions 'may yield poor memory efficiency' "
      "without the exploited features (Section I)");

  util::TextTable table({"ruleset", "N", "HiCuts mem (KB)", "HiCuts replication",
                         "BV-decomp mem (KB)", "StrideBV mem (KB)", "TCAM mem (KB)"});
  const ruleset::GeneratorMode modes[] = {ruleset::GeneratorMode::kAcl,
                                          ruleset::GeneratorMode::kFirewall,
                                          ruleset::GeneratorMode::kFeatureFree};
  double tree_min = 1e18;
  double tree_max = 0;
  double acl_repl = 0;
  double worst_repl = 0;
  double sbv_min = 1e18;
  double sbv_max = 0;
  double tcam_min = 1e18;
  double tcam_max = 0;
  for (const std::size_t n : {128u, 256u, 512u}) {
    for (const auto mode : modes) {
      const auto c = measure(mode, n);
      table.add_row({ruleset::mode_name(mode), std::to_string(n),
                     util::fmt_double(c.hicuts_kb, 1),
                     util::fmt_double(c.hicuts_repl, 2) + "x",
                     util::fmt_double(c.bv_kb, 1),
                     util::fmt_double(c.stridebv_kb, 1),
                     util::fmt_double(c.tcam_kb, 1)});
      if (n == 512) {
        tree_min = std::min(tree_min, c.hicuts_kb);
        tree_max = std::max(tree_max, c.hicuts_kb);
        worst_repl = std::max(worst_repl, c.hicuts_repl);
        if (mode == ruleset::GeneratorMode::kAcl) acl_repl = c.hicuts_repl;
        sbv_min = std::min(sbv_min, c.stridebv_kb);
        sbv_max = std::max(sbv_max, c.stridebv_kb);
        tcam_min = std::min(tcam_min, c.tcam_kb);
        tcam_max = std::max(tcam_max, c.tcam_kb);
      }
    }
  }
  bench::emit(table, "feature_independence.csv");

  bench::check("decision-tree memory swings with ruleset structure (>3x)",
               tree_max / tree_min > 3.0,
               util::fmt_double(tree_min, 1) + " - " + util::fmt_double(tree_max, 1) +
                   " KB across flavours at N=512 (" +
                   util::fmt_double(tree_max / tree_min, 1) + "x spread)");
  bench::check("rule replication explodes without separable prefixes",
               worst_repl > 3.0 * acl_repl,
               "ACL " + util::fmt_double(acl_repl, 2) + "x -> worst " +
                   util::fmt_double(worst_repl, 2) + "x leaf replication");
  bench::check("StrideBV memory identical across all flavours", sbv_min == sbv_max,
               util::fmt_double(sbv_min, 1) + " KB regardless of structure");
  bench::check("TCAM memory identical across all flavours", tcam_min == tcam_max,
               util::fmt_double(tcam_min, 1) + " KB regardless of structure");
  return bench::exit_code();
}
