#include "engines/common/factory.h"

#include <gtest/gtest.h>

#include "ruleset/ruleset.h"

namespace rfipc::engines {
namespace {

TEST(Factory, BuildsEverySpec) {
  const auto rs = ruleset::RuleSet::table1_example();
  for (const auto& spec : known_engine_specs()) {
    const auto e = make_engine(spec, rs);
    ASSERT_NE(e, nullptr) << spec;
    EXPECT_EQ(e->rule_count(), rs.size()) << spec;
  }
}

TEST(Factory, StrideSuffixParsed) {
  const auto rs = ruleset::RuleSet::table1_example();
  EXPECT_EQ(make_engine("stridebv:3", rs)->name(), "StrideBV(k=3)");
  EXPECT_EQ(make_engine("stridebv:8", rs)->name(), "StrideBV(k=8)");
  EXPECT_EQ(make_engine("stridebv", rs)->name(), "StrideBV(k=4)");  // default
  EXPECT_EQ(make_engine("stridebv-re:2", rs)->name(), "StrideBV-RE(k=2)");
}

TEST(Factory, SpecListAndHelpDeriveFromOneTable) {
  // Every engine kind the factory accepts must appear in BOTH the
  // example list and the help text — they are generated from the same
  // spec table, so a new engine cannot be registered half-way.
  const auto specs = known_engine_specs();
  EXPECT_GE(specs.size(), 10u);
  const auto help = engine_spec_help();
  for (const char* kind : {"linear", "tcam", "stridebv", "stridebv-re", "hicuts",
                           "fsbv-hybrid", "bv", "abv", "tcam-part"}) {
    bool listed = false;
    for (const auto& s : specs) {
      if (s.substr(0, s.find(':')) == kind) listed = true;
    }
    EXPECT_TRUE(listed) << kind << " missing from known_engine_specs()";
    EXPECT_NE(help.find(kind), std::string::npos) << kind << " missing from help";
  }
}

TEST(Factory, RejectsUnknown) {
  const auto rs = ruleset::RuleSet::table1_example();
  EXPECT_THROW(make_engine("quantum", rs), std::invalid_argument);
  EXPECT_THROW(make_engine("", rs), std::invalid_argument);
  EXPECT_THROW(make_engine("stridebv:0", rs), std::invalid_argument);
  EXPECT_THROW(make_engine("stridebv:9", rs), std::invalid_argument);
  EXPECT_THROW(make_engine("stridebv:x", rs), std::invalid_argument);
  // Interval ports have one spec, stridebv-re:k; "stridebv:ki" is not a stride.
  EXPECT_THROW(make_engine("stridebv:4i", rs), std::invalid_argument);
}

TEST(Factory, EnginesClassifyThroughBaseInterface) {
  const auto rs = ruleset::RuleSet::table1_example();
  net::FiveTuple t;  // all-zero header -> only the catch-all matches
  for (const auto& spec : known_engine_specs()) {
    const auto e = make_engine(spec, rs);
    const auto r = e->classify_tuple(t);
    ASSERT_TRUE(r.has_match()) << spec;
    EXPECT_EQ(r.best, rs.size() - 1) << spec;
  }
}

}  // namespace
}  // namespace rfipc::engines
