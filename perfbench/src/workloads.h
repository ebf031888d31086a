// The four workloads. Each builds the deployment, drives it from this
// process for the requested time, checks every answer against
// RuleSet::first_match and returns its metrics: the end-to-end set when
// untraced, the per-layer set when traced (see perfbench/DESIGN.md).
#pragma once

#include <cstdint>
#include <string>

#include "inputs.h"
#include "measure.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the update_churn journal is created under.
  std::string workdir = ".";
  /// Build the deployment kSetupRepeats times, report setup_s and stop.
  bool setup_only = false;
};

/// Times the deployment is built per run; setup_s is their median.
inline constexpr int kSetupRepeats = 21;

Result run_inline(Traffic traffic, const RunOptions& opts);
/// wire_read (churn = false) or update_churn (churn = true).
Result run_wire(bool churn, const RunOptions& opts);

}  // namespace perfbench
