#include "harness.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "engines/common/factory.h"
#include "engines/common/linear_engine.h"
#include "ruleset/generator.h"
#include "ruleset/trace.h"
#include "util/str.h"

namespace rfipc::bench {

void functional_gate(std::size_t size, std::size_t trace_len) {
  const auto rules = ruleset::generate_firewall(size);
  ruleset::TraceConfig tc;
  tc.size = trace_len;
  const auto trace = ruleset::generate_trace(rules, tc);

  const engines::LinearSearchEngine golden(rules);
  const char* specs[] = {"stridebv:3", "stridebv:4", "tcam"};
  for (const auto* spec : specs) {
    const auto engine = engines::make_engine(spec, rules);
    for (const auto& t : trace) {
      const auto expect = golden.classify_tuple(t);
      const auto got = engine->classify_tuple(t);
      if (expect.best != got.best) {
        std::fprintf(stderr,
                     "FUNCTIONAL GATE FAILED: %s vs golden on %s "
                     "(expect rule %zu, got %zu)\n",
                     engine->name().c_str(), t.to_string().c_str(), expect.best,
                     got.best);
        std::exit(1);
      }
    }
  }
  std::printf("functional gate: StrideBV(k=3,4) and TCAM match LinearSearch on "
              "%zu rules x %zu headers\n\n",
              size, trace_len);
}

void print_banner(const std::string& experiment, const std::string& paper_claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("================================================================\n");
}

void emit(const util::TextTable& table, const std::string& csv_name) {
  std::printf("%s", table.render(2).c_str());
  if (util::write_file(csv_name, table.to_csv())) {
    std::printf("  [csv written: %s]\n\n", csv_name.c_str());
  } else {
    std::printf("  [csv NOT written: %s]\n\n", csv_name.c_str());
  }
}

void print_chart(const std::vector<std::uint64_t>& sizes,
                 const std::vector<Series>& series, const std::string& unit,
                 bool log_scale) {
  double max_v = 0;
  for (const auto& s : series) {
    for (const auto v : s.values) max_v = v > max_v ? v : max_v;
  }
  if (max_v <= 0) return;
  constexpr int kWidth = 48;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::printf("  N=%-5llu\n", static_cast<unsigned long long>(sizes[i]));
    for (const auto& s : series) {
      if (i >= s.values.size()) continue;
      const double v = s.values[i];
      double frac = v / max_v;
      if (log_scale && v > 0) {
        // Compress dynamic range so small series stay visible.
        frac = (1.0 + std::max(-4.0, std::log10(v / max_v)) / 4.0);
        if (frac < 0) frac = 0;
      }
      const int bars = static_cast<int>(frac * kWidth + 0.5);
      std::printf("    %-28s |%.*s %s %s\n", s.label.c_str(), bars,
                  "################################################",
                  util::fmt_double(v, 1).c_str(), unit.c_str());
    }
  }
  std::printf("\n");
}

double median_rate(std::size_t packets, const std::function<void()>& pass) {
  pass();  // warm-up: caches, scratch arenas, parked workers
  std::array<double, 5> rates{};
  for (double& rate : rates) {
    const auto t0 = std::chrono::steady_clock::now();
    pass();
    const std::chrono::duration<double> s = std::chrono::steady_clock::now() - t0;
    rate = static_cast<double>(packets) / s.count();
  }
  std::nth_element(rates.begin(), rates.begin() + rates.size() / 2, rates.end());
  return rates[rates.size() / 2];
}

namespace {
bool g_failed = false;
}  // namespace

void check(const std::string& what, bool ok, const std::string& detail) {
  std::printf("  [%s] %s — %s\n", ok ? "PASS" : "FAIL", what.c_str(), detail.c_str());
  if (!ok) g_failed = true;
}

int exit_code() { return g_failed ? 1 : 0; }

}  // namespace rfipc::bench
