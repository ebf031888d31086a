// Self-tests of the benchmark: input determinism, the percentile
// helper, the steal-based window filter, and each workload's defining
// property on generated inputs.
//
//   python3 perfbench/run.py --self-test
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "flow/flow_cache.h"
#include "inputs.h"
#include "measure.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  } else {
    std::printf("ok   %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  using perfbench::quantile;
  using perfbench::tail_q;
  const std::vector<double> five = {5, 1, 4, 2, 3};
  check(near(quantile(five, 0.5), 3.0), "median of 1..5 is 3");
  check(near(quantile(five, 0.0), 1.0) && near(quantile(five, 1.0), 5.0),
        "q=0 and q=1 are min and max");
  check(near(quantile({1, 2, 3, 4}, 0.5), 2.5), "median of 1..4 interpolates to 2.5");
  check(near(quantile({10, 20}, 0.25), 12.5), "q=0.25 of {10,20} is 12.5");
  check(quantile({}, 0.5) == 0.0, "empty sample gives 0");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(near(quantile(hundred, 0.99), 99.01), "p99 of 1..100 is 99.01");
  check(near(tail_q(100000), 0.99), "a large sample reports p99");
  check(near(tail_q(1000), 0.99), "1000 samples leave exactly 10 beyond p99");
  check(near(tail_q(500), 0.98), "500 samples report p98 (10 beyond)");
  check(near(tail_q(12), 0.5), "a tiny sample falls back to the median");
  const auto p = perfbench::tail_of(hundred);
  check(p.samples == 100 && near(p.q, 0.9) && near(p.value, 90.1),
        "tail_of(1..100) is p90 with its count");
}

void test_quiet_windows() {
  using perfbench::quiet_windows;
  using perfbench::WindowMask;
  const std::vector<double> shares = {0.0, 0.10, 0.02, 0.30, 0.01};
  check(quiet_windows(shares, 0.025, 2) == WindowMask({true, false, true, false, true}),
        "quiet windows: every window at or under the steal threshold");
  check(quiet_windows(shares, 0.005, 2) == WindowMask({true, false, false, false, true}),
        "quiet windows: too few quiet ones admit the least stolen");
  check(quiet_windows({0.2, 0.1, 0.1}, 0.0, 1) == WindowMask({false, true, false}),
        "quiet windows: the earliest of equally stolen windows first");

  // Two windows of 0.5 s from t0: values 1..100 in window 0, 1000 in window 1.
  const auto t0 = perfbench::Clock::now();
  perfbench::WindowedSamples ws(t0, 0.5);
  for (int i = 1; i <= 100; ++i) ws.add(t0 + std::chrono::milliseconds(100), i);
  for (int i = 0; i < 100; ++i) ws.add(t0 + std::chrono::milliseconds(600), 1000);
  ws.finish(t0 + std::chrono::milliseconds(1000));
  check(ws.windows() == 2, "a window that ends with the phase is kept");
  const auto all = ws.median_p50();
  const auto first = ws.median_p50({true, false});
  check(near(all.value, (50.5 + 1000) / 2) && all.samples == 200,
        "median over windows of the window medians");
  check(near(first.value, 50.5) && first.samples == 100,
        "a mask drops a window's value and its samples");
  check(near(ws.median_p90({true, false}).value, 90.1),
        "a window's p90 interpolates between closest ranks");
  check(near(ws.median_tail({false, true}).value, 1000.0),
        "the mask applies to the tail as well");

  // Three windows of 0.5 s whose medians are 10, 10 and 40.
  perfbench::WindowedSamples three(t0, 0.5);
  for (const int ms : {100, 600, 1100}) {
    const double v = ms == 1100 ? 40.0 : 10.0;
    for (int i = 0; i < 3; ++i) three.add(t0 + std::chrono::milliseconds(ms), v);
  }
  three.finish(t0 + std::chrono::milliseconds(1500));
  check(near(three.median_p50().value, 10.0) && near(three.mean_p50().value, 20.0) &&
            three.mean_p50().samples == 9,
        "mean over windows of the window medians");
  check(near(three.mean_p90().value, 20.0), "mean over windows of the window p90s");
}

void test_determinism() {
  const auto rules_a = perfbench::make_rules(7);
  const auto rules_b = perfbench::make_rules(7);
  const auto rules_c = perfbench::make_rules(8);
  check(rules_a.size() == perfbench::kRules, "ruleset has N = 2048 rules");
  for (const auto traffic : {perfbench::Traffic::kSkewed, perfbench::Traffic::kUnique}) {
    const std::string name = traffic == perfbench::Traffic::kSkewed ? "skewed" : "unique";
    const auto a = perfbench::input_bytes(rules_a,
                                          perfbench::make_trace(rules_a, traffic, 7));
    const auto b = perfbench::input_bytes(rules_b,
                                          perfbench::make_trace(rules_b, traffic, 7));
    const auto c = perfbench::input_bytes(rules_c,
                                          perfbench::make_trace(rules_c, traffic, 8));
    check(a == b, name + ": the same seed gives byte-identical inputs");
    check(a != c, name + ": another seed gives different inputs");
  }
}

/// Replays `passes` passes of the trace through a FlowCache of the
/// deployment's capacity, inserting on every miss as the runtime does,
/// and returns the hit ratio of the last pass.
double simulated_hit_ratio(const perfbench::Trace& trace, int passes) {
  rfipc::flow::FlowCache cache(perfbench::kCacheSlots);
  rfipc::engines::MatchResult out;
  for (int p = 0; p < passes; ++p) {
    if (p == passes - 1) cache.reset_stats();
    for (std::size_t i = 0; i < trace.headers.size(); ++i) {
      if (!cache.lookup(trace.headers[i], out)) {
        rfipc::engines::MatchResult r;
        r.best = trace.best[i];
        cache.insert(trace.headers[i], cache.epoch(), r);
      }
    }
  }
  return cache.stats().hit_rate();
}

void test_workload_properties() {
  const auto rules = perfbench::make_rules(11);
  const auto skewed = perfbench::make_trace(rules, perfbench::Traffic::kSkewed, 11);
  const auto unique = perfbench::make_trace(rules, perfbench::Traffic::kUnique, 11);

  check(skewed.flows.size() == perfbench::kSkewedFlows &&
            skewed.flows.size() * 2 < perfbench::kCacheSlots,
        "skewed: working set under half the cache");
  const double reuse = perfbench::flow_reuse_share(skewed);
  check(reuse >= 0.9, "skewed: flow-reuse share >= 0.9 (got " + std::to_string(reuse) + ")");
  const double skew_hits = simulated_hit_ratio(skewed, 2);
  check(skew_hits >= 0.9,
        "skewed: hit ratio >= 0.9 (got " + std::to_string(skew_hits) + ")");

  check(unique.flows.size() >= 8 * perfbench::kCacheSlots,
        "unique: distinct flows >= 8x the cache");
  check(perfbench::flow_reuse_share(unique) == 0.0, "unique: no flow repeats within a pass");
  const double unique_hits = simulated_hit_ratio(unique, 2);
  check(unique_hits <= 0.05,
        "unique: hit ratio <= 0.05 (got " + std::to_string(unique_hits) + ")");

  for (const auto* tr : {&skewed, &unique}) {
    bool frames_ok = true;
    for (const auto& rec : tr->pcap.records) frames_ok &= rec.frame.size() == perfbench::kFrameBytes;
    check(frames_ok, "every frame is 54 bytes");
    check(tr->forward + tr->drop == tr->order.size() && tr->drop > 0,
          "oracle verdicts cover every frame");
    bool l4_ok = true;
    for (const auto& f : tr->flows) l4_ok &= f.protocol == 6 || f.protocol == 17;
    check(l4_ok, "every flow is TCP or UDP");
  }
}

}  // namespace

int main() {
  test_percentiles();
  test_quiet_windows();
  test_determinism();
  test_workload_properties();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
