// Differential verification sweep — every engine vs the golden linear
// search across a broad randomized space of rulesets and traces. This
// is the bench-suite's built-in fuzzer: deterministic seeds so a
// failure reproduces, broad enough to catch regressions the unit tests
// miss. Also differential-checks the ruleset optimizer (action
// equivalence) and the generic (schema-driven) engines.
#include <cstdio>
#include <string>
#include <vector>

#include "engines/common/factory.h"
#include "engines/common/linear_engine.h"
#include "flow/generic.h"
#include "harness.h"
#include "ruleset/generator.h"
#include "ruleset/optimizer.h"
#include "ruleset/trace.h"
#include "util/prng.h"
#include "util/str.h"

using namespace rfipc;

int main() {
  bench::print_banner("Differential verification sweep",
                      "all engines vs golden over randomized rulesets");

  std::uint64_t comparisons = 0;
  std::uint64_t failures = 0;

  // 5-tuple engines.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    ruleset::GeneratorConfig gcfg;
    gcfg.mode = static_cast<ruleset::GeneratorMode>(seed % 3);
    gcfg.size = 16 + (seed * 13) % 150;
    gcfg.seed = seed * 7919;
    gcfg.range_fraction = static_cast<double>(seed % 6) / 6.0;
    gcfg.default_rule = seed % 4 != 0;
    const auto rules = ruleset::generate(gcfg);
    const engines::LinearSearchEngine golden(rules);

    std::vector<engines::EnginePtr> all;
    for (const auto& spec : engines::known_engine_specs()) {
      all.push_back(engines::make_engine(spec, rules));
    }
    ruleset::TraceConfig tcfg;
    tcfg.size = 200;
    tcfg.seed = seed;
    tcfg.match_fraction = 0.6;
    for (const auto& t : ruleset::generate_trace(rules, tcfg)) {
      const auto want = golden.classify_tuple(t);
      for (const auto& e : all) {
        ++comparisons;
        if (e->classify_tuple(t).best != want.best) {
          ++failures;
          std::printf("  MISMATCH: %s seed=%llu %s\n", e->name().c_str(),
                      static_cast<unsigned long long>(seed), t.to_string().c_str());
        }
      }
    }

    // Optimizer action equivalence on the same ruleset.
    ruleset::RuleSet optimized = rules;
    ruleset::optimize(optimized);
    const engines::LinearSearchEngine opt_golden(optimized);
    for (const auto& t : ruleset::generate_trace(rules, tcfg)) {
      ++comparisons;
      const auto a = golden.classify_tuple(t);
      const auto b = opt_golden.classify_tuple(t);
      const bool same =
          a.has_match() == b.has_match() &&
          (!a.has_match() || rules[a.best].action == optimized[b.best].action);
      if (!same) {
        ++failures;
        std::printf("  OPTIMIZER MISMATCH: seed=%llu %s\n",
                    static_cast<unsigned long long>(seed), t.to_string().c_str());
      }
    }
  }

  // Generic engines on the OpenFlow schema.
  const auto schema = flow::Schema::openflow10();
  util::Xoshiro256 rng(31337);
  for (int round = 0; round < 10; ++round) {
    std::vector<flow::GenericRule> rules;
    for (int i = 0; i < 40; ++i) rules.push_back(flow::random_rule(schema, rng, 0.5));
    rules.push_back(flow::GenericRule::match_all(schema));
    const flow::GenericLinearEngine golden(schema, rules);
    const flow::GenericStrideBVEngine sbv(schema, rules, 3 + round % 3);
    const flow::GenericTcamEngine tcam(schema, rules);
    for (int probe = 0; probe < 300; ++probe) {
      const auto h = probe % 2 == 0
                         ? flow::random_header(schema, rng)
                         : flow::header_for_rule(rules[rng.below(rules.size())], rng);
      const auto want = golden.classify(h).best;
      comparisons += 2;
      if (sbv.classify(h).best != want) ++failures;
      if (tcam.classify(h).best != want) ++failures;
    }
  }

  bench::check("differential sweep clean", failures == 0,
               util::fmt_group(comparisons) + " comparisons, " +
                   util::fmt_group(failures) + " mismatches");
  return bench::exit_code();
}
