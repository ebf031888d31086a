// Satellite: the price of range lowering, measured end to end through
// the text rule language.
//
// Section II-A of the paper warns that a single rule with arbitrary
// ranges on both port fields explodes into up to 4(w-1)^2 ternary
// entries under prefix expansion. This bench makes that cost a tracked
// number: a range-heavy ACL (>= 25% of rules carrying true port
// ranges) is exported through the ipfilter grammar, re-parsed, and
// lowered both ways via ruleset::lowering::expansion_report — then the
// REAL engines are built from the re-parsed rules and report what they
// actually stored (TCAM / plain StrideBV pay the cross product;
// linear, stridebv-re:4, and the tuple-space prefilter store one entry
// per rule). A differential pass over a generated trace pins every
// factory engine plus the sharded runtime to the golden linear answer,
// so the text round trip is proven lossless where it matters: the
// classification function itself.
//
// Entry counts are deterministic, so the gates run under sanitizers
// too; build times are informational only.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "engines/common/factory.h"
#include "engines/stridebv/range_engine.h"
#include "engines/stridebv/stridebv_engine.h"
#include "engines/tcam/tcam_engine.h"
#include "harness.h"
#include "runtime/sharded_classifier.h"
#include "ruleset/generator.h"
#include "ruleset/lang/format.h"
#include "ruleset/lowering.h"
#include "ruleset/trace.h"
#include "util/str.h"
#include "util/table.h"

using namespace rfipc;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

std::string fmt_kib(std::uint64_t bytes) {
  return util::fmt_double(static_cast<double>(bytes) / 1024.0, 1);
}

}  // namespace

int main() {
  bench::print_banner(
      "Satellite — range lowering: prefix expansion vs interval-native",
      "a rule with arbitrary ranges on both ports costs up to 4(w-1)^2 "
      "ternary entries expanded, exactly 1 stored interval-natively");

  // A range-heavy ACL: kAcl mode at range_fraction 0.7 lands well past
  // the >= 25% true-range floor after dedupe.
  ruleset::GeneratorConfig gen;
  gen.mode = ruleset::GeneratorMode::kAcl;
  gen.size = 2048;
  gen.seed = 7;
  gen.range_fraction = 0.7;
  const auto generated = ruleset::generate(gen);

  // Round-trip through the text grammar: the engines below are built
  // from the RE-PARSED rules, so every number in the table went
  // through the ipfilter importer/exporter.
  const std::string text = ruleset::lang::export_as("ipfilter", generated);
  const auto rules = ruleset::lang::parse_as("ipfilter", text);
  bench::check("ipfilter round trip preserves the ruleset",
               rules.size() == generated.size() && rules.rules() == generated.rules(),
               std::to_string(rules.size()) + " rules, " +
                   std::to_string(text.size()) + " bytes of grammar text");

  const auto report = ruleset::lowering::expansion_report(rules);
  std::printf("%s\n\n", report.summary().c_str());
  bench::check("ruleset is range-heavy (>= 25% true port ranges)",
               report.range_fraction >= 0.25,
               util::fmt_double(report.range_fraction * 100.0, 1) + "% of " +
                   std::to_string(report.rules) + " rules");

  util::TextTable table(
      {"configuration", "lowering", "entries", "entries/rule", "KiB", "build (ms)"});
  const double nrules = static_cast<double>(rules.size());
  table.add_row({"lowering model", "prefix-expand",
                 std::to_string(report.expanded_entries),
                 util::fmt_double(report.expansion_factor, 2),
                 fmt_kib(report.expanded_bytes), "-"});
  table.add_row({"lowering model", "interval-native",
                 std::to_string(report.native_entries),
                 util::fmt_double(1.0, 2), fmt_kib(report.native_bytes), "-"});

  // The real engines: what each one actually stored for the same rules.
  struct EngineRow {
    const char* spec;
    const char* lowering;
  };
  const EngineRow kRows[] = {
      {"tcam", "prefix-expand"},       {"stridebv:4", "prefix-expand"},
      {"linear", "interval-native"},   {"stridebv-re:4", "interval-native"},
      {"prefilter(linear)", "interval-native"},
  };
  std::size_t tcam_entries = 0;
  std::size_t native_engine_entries = 0;
  for (const auto& row : kRows) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto engine = engines::make_engine(row.spec, rules);
    const double build_ms = ms_since(t0);
    std::size_t entries = engine->rule_count();  // interval-native engines
    if (const auto* t = dynamic_cast<const engines::tcam::TcamEngine*>(engine.get())) {
      entries = t->entry_count();
      tcam_entries = entries;
    } else if (const auto* s = dynamic_cast<const engines::stridebv::StrideBVEngine*>(
                   engine.get())) {
      entries = s->entry_count();
    } else if (const auto* r =
                   dynamic_cast<const engines::stridebv::StrideBVRangeEngine*>(
                       engine.get())) {
      entries = r->entry_count();
      native_engine_entries = entries;
    }
    table.add_row({row.spec, row.lowering, std::to_string(entries),
                   util::fmt_double(static_cast<double>(entries) / nrules, 2),
                   fmt_kib(engine->memory_bytes()), util::fmt_double(build_ms, 1)});
  }

  bench::emit(table, "expansion.csv");

  // The headline gate: interval-native storage must beat the prefix
  // cross product by >= 4x on a range-heavy ruleset, both in the
  // lowering model and in the built engines (TCAM really stored the
  // expanded entries; stridebv-re:4 really stored one per rule).
  bench::check("interval-native stores >= 4x fewer entries than prefix expansion",
               report.expanded_entries >= 4 * report.native_entries,
               util::fmt_double(report.expansion_factor, 1) + "x per rule");
  bench::check("TCAM stored the full cross product, stridebv-re:4 one entry per rule",
               tcam_entries == report.expanded_entries &&
                   native_engine_entries == report.native_entries,
               std::to_string(tcam_entries) + " vs " +
                   std::to_string(native_engine_entries) + " stored entries");

  // Differential: every factory engine AND the sharded runtime answer
  // exactly like the golden linear search on the re-parsed rules.
  ruleset::TraceConfig tc;
  tc.size = 2000;
  tc.seed = 99;
  const auto trace = ruleset::generate_trace(rules, tc);
  const auto golden = engines::make_engine("linear", rules);
  bool engines_ok = true;
  std::string first_mismatch;
  for (const auto& spec : engines::known_engine_specs()) {
    const auto engine = engines::make_engine(spec, rules);
    for (const auto& t : trace) {
      if (engine->classify_tuple(t).best != golden->classify_tuple(t).best) {
        engines_ok = false;
        if (first_mismatch.empty()) first_mismatch = spec;
        break;
      }
    }
  }
  std::vector<net::HeaderBits> headers;
  headers.reserve(trace.size());
  for (const auto& t : trace) headers.emplace_back(t);
  runtime::ShardedClassifier sharded(rules, {});
  std::vector<engines::MatchResult> sharded_out(headers.size());
  sharded.classify_batch({headers.data(), headers.size()},
                         {sharded_out.data(), sharded_out.size()});
  bool sharded_ok = true;
  for (std::size_t i = 0; i < headers.size(); ++i) {
    if (sharded_out[i].best != golden->classify(headers[i]).best) sharded_ok = false;
  }
  bench::check("every factory engine matches golden linear on the re-parsed ACL",
               engines_ok,
               engines_ok ? std::to_string(trace.size()) + " headers x " +
                                std::to_string(engines::known_engine_specs().size()) +
                                " engines"
                          : "first mismatch: " + first_mismatch);
  bench::check("sharded runtime matches golden linear on the re-parsed ACL",
               sharded_ok, std::to_string(headers.size()) + " headers");
  return bench::exit_code();
}
