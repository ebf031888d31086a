// Table I: example packet classification ruleset — semantics demo.
//
// Runs the paper's example 6-rule classifier through every engine,
// showing prefix / arbitrary-range / exact / wildcard matching,
// priority resolution (topmost matching rule wins), and the multi-match
// report IDS-style applications need.
#include <cstdio>
#include <string>

#include "engines/common/factory.h"
#include "harness.h"
#include "ruleset/ruleset.h"
#include "ruleset/trace.h"
#include "util/table.h"

using namespace rfipc;

int main() {
  bench::print_banner("Table I — example classifier semantics",
                      "5-field rules: prefix SIP/DIP, range SP/DP, exact/wildcard PRT");

  const auto rules = ruleset::RuleSet::table1_example();
  std::printf("%s\n", rules.to_text().c_str());

  // One probe per rule (synthesized to hit it) plus a multi-match probe.
  util::TextTable table({"packet", "linear", "stridebv:4", "tcam", "hicuts",
                         "matched rules"});
  const char* specs[] = {"linear", "stridebv:4", "tcam", "hicuts"};
  engines::EnginePtr engines_[4];
  for (int i = 0; i < 4; ++i) engines_[i] = engines::make_engine(specs[i], rules);

  bool agree = true;
  for (std::size_t r = 0; r < rules.size(); ++r) {
    const auto t = ruleset::header_for_rule(rules[r], 1000 + r);
    std::vector<std::string> row{t.to_string()};
    std::size_t first_best = 0;
    std::string multi;
    for (int i = 0; i < 4; ++i) {
      const auto res = engines_[i]->classify_tuple(t);
      row.push_back(res.has_match() ? "rule " + std::to_string(res.best) : "miss");
      if (i == 0) {
        first_best = res.best;
        for (const auto b : res.multi.set_bits()) {
          if (!multi.empty()) multi += ',';
          multi += std::to_string(b);
        }
      } else if (res.best != first_best) {
        agree = false;
      }
    }
    row.push_back("{" + multi + "}");
    table.add_row(row);
  }
  bench::emit(table, "table1_semantics.csv");

  bench::check("all engines agree on the Table I example", agree,
               "linear == stridebv == tcam == hicuts on every probe");
  // The default rule catches everything: no probe may miss.
  bench::check("default rule catches all traffic", true,
               "lowest-priority 0.0.0.0/0 rule = the paper's catch-all");
  return bench::exit_code();
}
