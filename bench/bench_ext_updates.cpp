// Extension: dynamic rule updates (paper Section IV-C's
// reconfigurability advantage, quantified).
//
// The FPGA TCAM reloads an entry's SRL16E chain in 16 cycles with
// lookups stalled; StrideBV rewrites a rule's bit column (2^k words
// per stage) while surrendering one of its two memory ports. This
// bench reports updates/sec and the classification throughput
// sustained under an aggressive update stream, and validates the
// functional update paths against the golden engine.
#include <chrono>
#include <cstdio>
#include <string>

#include "engines/common/factory.h"
#include "engines/common/linear_engine.h"
#include "engines/stridebv/stridebv_engine.h"
#include "fpga/update_model.h"
#include "harness.h"
#include "ruleset/generator.h"
#include "ruleset/trace.h"
#include "util/prng.h"
#include "util/str.h"

using namespace rfipc;

int main() {
  bench::print_banner(
      "Extension — dynamic update cost",
      "FPGA engines update in-place (no re-synthesis); TCAM pays 16-cycle "
      "SRL reloads, StrideBV 2^k-word column rewrites");
  bench::functional_gate(256);

  constexpr double kUpdateRate = 1e6;  // one million rule changes/sec
  util::TextTable table({"design", "cycles/update", "updates/sec (M)",
                         "idle Gbps", "Gbps @ 1M upd/s", "loss (%)"});
  const fpga::DesignPoint pts[] = {
      {fpga::EngineKind::kStrideBVDistRam, 512, 3, true, true},
      {fpga::EngineKind::kStrideBVDistRam, 512, 4, true, true},
      {fpga::EngineKind::kStrideBVBlockRam, 512, 4, true, true},
      {fpga::EngineKind::kTcamFpga, 512, 4, false, true},
  };
  double tcam_loss = 0;
  double sbv_loss = 1;
  for (const auto& p : pts) {
    const auto idle = fpga::estimate_timing(p);
    const auto upd = fpga::estimate_updates(p, kUpdateRate);
    const double loss =
        100.0 * (1.0 - upd.sustained_gbps / idle.throughput_gbps);
    table.add_row({p.label(), std::to_string(upd.cycles_per_update),
                   util::fmt_double(upd.updates_per_sec / 1e6, 2),
                   util::fmt_double(idle.throughput_gbps, 1),
                   util::fmt_double(upd.sustained_gbps, 1),
                   util::fmt_double(loss, 2)});
    if (p.kind == fpga::EngineKind::kTcamFpga) tcam_loss = loss;
    if (p.kind == fpga::EngineKind::kStrideBVDistRam && p.stride == 4) sbv_loss = loss;
  }
  bench::emit(table, "ext_updates.csv");

  bench::check("StrideBV absorbs updates more gracefully than TCAM",
               sbv_loss < tcam_loss,
               util::fmt_double(sbv_loss, 2) + "% vs " +
                   util::fmt_double(tcam_loss, 2) + "% throughput loss at 1M upd/s");

  // Functional: engines remain correct through an update storm.
  auto rules = ruleset::generate_firewall(128, 77);
  const auto engine = engines::make_engine("stridebv:4", rules);
  ruleset::GeneratorConfig ncfg;
  ncfg.size = 32;
  ncfg.seed = 99;
  ncfg.default_rule = false;
  const auto fresh = ruleset::generate(ncfg);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    engine->insert_rule(i, fresh[i]);
    rules.insert(i, fresh[i]);
  }
  const engines::LinearSearchEngine golden(rules);
  ruleset::TraceConfig tcfg;
  tcfg.size = 2000;
  bool ok = true;
  for (const auto& t : ruleset::generate_trace(rules, tcfg)) {
    if (engine->classify_tuple(t).best != golden.classify_tuple(t).best) ok = false;
  }
  bench::check("classification correct after 32 live insertions", ok,
               "StrideBV vs golden over 2000 headers");

  // Measured software update cost. The hardware model above prices a
  // column rewrite; this measures what the software engine actually
  // pays now that insert/erase patch the affected bit column in place
  // (plus O(N) integer retagging) instead of rebuilding all N columns.
  util::TextTable cost({"rules", "incremental (us/op)", "full rebuild (us)",
                        "rebuild/incremental"});
  double incr_small = 0;
  double incr_large = 0;
  double ratio_large = 0;
  for (const std::size_t n : {256u, 512u, 1024u, 2048u}) {
    const auto rs = ruleset::generate_firewall(n, 2013);
    engines::stridebv::StrideBVEngine e(rs, {.stride = 4});
    ruleset::GeneratorConfig gcfg;
    gcfg.size = 1;
    gcfg.seed = 4242;
    gcfg.default_rule = false;
    const auto extra = ruleset::generate(gcfg)[0];
    util::Xoshiro256 prng(n);
    constexpr std::size_t kOps = 128;
    // Min of three timed repetitions (after one warmup rep) filters
    // scheduler noise on this shared box.
    auto timed_ops = [&] {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kOps; ++i) {
        const std::size_t at = prng.below(e.rule_count() + 1);
        e.insert_rule(at, extra);
        e.erase_rule(at);
      }
      return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                       t0)
                 .count() /
             (2.0 * kOps);
    };
    timed_ops();  // warmup: populate the free list, fault in pages
    double incr_us = timed_ops();
    for (int rep = 0; rep < 2; ++rep) incr_us = std::min(incr_us, timed_ops());
    auto timed_build = [&] {
      const auto t1 = std::chrono::steady_clock::now();
      engines::stridebv::StrideBVEngine fresh(rs, {.stride = 4});
      if (fresh.rule_count() != n) std::abort();
      return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                       t1)
          .count();
    };
    timed_build();
    double rebuild_us = timed_build();
    for (int rep = 0; rep < 2; ++rep) rebuild_us = std::min(rebuild_us, timed_build());
    cost.add_row({std::to_string(n), util::fmt_double(incr_us, 2),
                  util::fmt_double(rebuild_us, 1),
                  util::fmt_double(rebuild_us / incr_us, 1) + "x"});
    if (n == 256) incr_small = incr_us;
    if (n == 2048) {
      incr_large = incr_us;
      ratio_large = rebuild_us / incr_us;
    }
  }
  bench::emit(cost, "ext_updates_measured.csv");

  bench::check("incremental update beats full rebuild 10x at N=2048",
               ratio_large >= 10.0, util::fmt_double(ratio_large, 1) + "x");
  // Rebuild relowers and rewrites all N columns — O(N*W). The patch
  // path touches one rule's columns plus integer retags, so growing N
  // 8x must not grow the per-op cost anywhere near 8x.
  bench::check("incremental update cost does not scale with N*W",
               incr_large < 4.0 * incr_small,
               util::fmt_double(incr_small, 2) + "us @256 -> " +
                   util::fmt_double(incr_large, 2) + "us @2048");
  return bench::exit_code();
}
