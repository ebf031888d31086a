// Shared harness for the figure/table reproduction benches.
//
// Every bench binary follows the same protocol:
//   1. Functional gate: build the real engines on a generated ruleset
//      and verify them against the golden linear search over a trace —
//      a figure is only emitted from models whose engines classify
//      correctly.
//   2. Sweep the paper's design points through the fpga models.
//   3. Print the figure's series as a table (and an ASCII chart), plus
//      the paper's qualitative expectation, and write a CSV next to the
//      binary's working directory.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fpga/report.h"
#include "ruleset/ruleset.h"
#include "util/table.h"

namespace rfipc::bench {

/// Builds a firewall ruleset of `size` rules (prefix-friendly ports so
/// entry count == rule count, matching the paper's N accounting) and
/// verifies StrideBV(k=3,4) and TCAM against LinearSearch over `trace`
/// headers. Aborts the process with a diagnostic on mismatch.
void functional_gate(std::size_t size, std::size_t trace = 2000);

/// Prints the standard bench header.
void print_banner(const std::string& experiment, const std::string& paper_claim);

/// Prints `table`, writes `csv_name` with its CSV form, and reports the
/// file name.
void emit(const util::TextTable& table, const std::string& csv_name);

/// A labeled series over the N sweep, for the ASCII chart.
struct Series {
  std::string label;
  std::vector<double> values;  // one per N in paper_sizes()
};

/// Renders simple ASCII bar charts, one row per (N, series) pair.
void print_chart(const std::vector<std::uint64_t>& sizes,
                 const std::vector<Series>& series, const std::string& unit,
                 bool log_scale = false);

/// Throughput of `pass`, which classifies `packets` headers per call:
/// one untimed warm-up pass, then the median rate (packets/second) of
/// five timed passes, so one preempted pass cannot move a gated ratio.
double median_rate(std::size_t packets, const std::function<void()>& pass);

/// PASS/FAIL line for a shape check recorded in EXPERIMENTS.md. A
/// failed check is remembered for exit_code().
void check(const std::string& what, bool ok, const std::string& detail);

/// 1 when any check() in this process failed, else 0. Every bench main
/// returns it, so a failed gate fails the process, not only its log.
int exit_code();

}  // namespace rfipc::bench
