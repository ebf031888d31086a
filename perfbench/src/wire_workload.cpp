// wire_read and update_churn: ClassifyServer on loopback, driven by
// ClassifyClient connections on this process's threads.
//
// wire_read: two classify connections, closed loop, batches of 256
// packed headers from the skewed trace. update_churn: one such classify
// connection beside two update connections that alternate an insert
// and an erase at index kRules, just below the match-all default, so
// no classify answer ever changes; the ruleset is journaled through a
// DurableLog with fsync=batch. Clients never retry or reconnect, so
// every transport failure, SHED or timeout counts once as failed.
//
// Latency and throughput are reduced per window, and only windows in
// which the host stole little CPU time are reported (StealWindows).
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "layers.h"
#include "persist/durable_log.h"
#include "server/classify_server.h"
#include "server/client.h"
#include "server/wire.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rfipc::runtime::ShardedClassifier;
using rfipc::server::ClassifyClient;
using rfipc::server::ClassifyServer;

enum PhaseId : int { kWarm = 0, kUntraced = 1, kTraced = 2, kStop = 3 };

rfipc::server::ClientOptions load_client_options() {
  rfipc::server::ClientOptions o;
  o.max_retries = 0;
  o.auto_reconnect = false;
  return o;
}

/// One journal append as the benchmark's durability hook saw it.
struct HookRecord {
  std::uint64_t first_seq = 0;
  std::uint64_t last_seq = 0;
  Clock::time_point enter;
  Clock::time_point append_begin;
  Clock::time_point append_end;
  Clock::time_point exit;
};

/// State the durability hook shares with the benchmark.
struct HookLog {
  std::atomic<bool> spans{false};
  std::atomic<std::uint64_t> calls{0};
  std::mutex mu;
  std::vector<HookRecord> records;
};

/// rfipcd's journaling hook, plus span records while tracing.
std::function<void(std::span<const rfipc::runtime::UpdateOp>)> journal_hook(
    rfipc::persist::DurableLog* log, HookLog* hl) {
  return [log, hl](std::span<const rfipc::runtime::UpdateOp> ops) {
    const bool spans = hl->spans.load(std::memory_order_relaxed);
    HookRecord rec;
    if (spans) rec.enter = Clock::now();
    std::vector<rfipc::persist::RuleOp> journal_ops;
    journal_ops.reserve(ops.size());
    for (const auto& op : ops) {
      journal_ops.push_back(
          op.kind == rfipc::runtime::UpdateOp::Kind::kInsert
              ? rfipc::persist::RuleOp::insert(op.index, op.rule, op.token)
              : rfipc::persist::RuleOp::erase(op.index, op.token));
    }
    if (spans) rec.append_begin = Clock::now();
    std::string err;
    if (!log->append_ops(journal_ops, err)) {
      std::fprintf(stderr, "perfbench: journal append failed: %s\n", err.c_str());
    }
    hl->calls.fetch_add(1, std::memory_order_relaxed);
    if (!spans) return;
    rec.append_end = Clock::now();
    rec.last_seq = log->last_seq();
    rec.first_seq = rec.last_seq + 1 - ops.size();
    rec.exit = Clock::now();
    std::lock_guard<std::mutex> lock(hl->mu);
    hl->records.push_back(rec);
  };
}

/// The service as rfipcd runs it: journal (churn only), classifier and
/// server, with the reactor on its own thread once started.
struct Service {
  std::string journal_dir;
  std::unique_ptr<rfipc::persist::DurableLog> log;
  std::unique_ptr<HookLog> hook = std::make_unique<HookLog>();
  std::unique_ptr<ShardedClassifier> clf;
  std::unique_ptr<ClassifyServer> srv;
  std::thread serving;

  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  ~Service() {
    if (serving.joinable()) {
      srv->request_drain();
      serving.join();
    }
    srv.reset();
    clf.reset();
    log.reset();
    if (!journal_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(journal_dir, ec);
    }
  }
};

struct SetupTimes {
  double total_s = 0.0;
  double build_s = 0.0;
  double seed_s = 0.0;
};

std::unique_ptr<Service> build_service(const rfipc::ruleset::RuleSet& rules, bool churn,
                                       const std::string& journal_dir, SetupTimes& t,
                                       Result& r) {
  auto svc = std::make_unique<Service>();
  // rfipcd without --capture holds back its service threads only.
  auto cfg = deployment_config(rfipc::server::kServiceThreads);
  rfipc::server::ServerConfig scfg;
  scfg.host = "127.0.0.1";
  scfg.port = 0;

  const Clock::time_point t0 = Clock::now();
  if (churn) {
    svc->journal_dir = journal_dir;
    std::error_code ec;
    std::filesystem::remove_all(journal_dir, ec);
    rfipc::persist::DurableLogConfig pcfg;
    pcfg.dir = journal_dir;
    pcfg.fsync = rfipc::persist::FsyncPolicy::kBatch;  // rfipcd's default
    std::string err;
    svc->log = rfipc::persist::DurableLog::open(pcfg, err);
    if (svc->log == nullptr || !svc->log->seed(rules, err)) {
      r.fail_check("journal open/seed failed: " + err);
      return nullptr;
    }
    cfg.durability_hook = journal_hook(svc->log.get(), svc->hook.get());
    scfg.durable = svc->log.get();
  }
  const Clock::time_point t1 = Clock::now();
  svc->clf = std::make_unique<ShardedClassifier>(rules, cfg);
  const Clock::time_point t2 = Clock::now();
  svc->srv = std::make_unique<ClassifyServer>(*svc->clf, scfg);
  const Clock::time_point t3 = Clock::now();
  t.seed_s = seconds_between(t0, t1);
  t.build_s = seconds_between(t1, t2);
  t.total_s = seconds_between(t0, t3);
  return svc;
}

/// When each measured phase began and ended, and the length of its
/// windows. The main thread writes a phase's origin before publishing the
/// phase; workers read it after loading the phase.
struct PhaseClock {
  std::atomic<int> phase{kWarm};
  double window_s = WindowedSamples::kWindowSeconds;
  Clock::time_point origin[kStop]{};
  Clock::time_point end[kStop]{};

  void begin(int p) {
    origin[p] = Clock::now();
    phase.store(p, std::memory_order_release);
  }
  void stop(int p, int next) {
    end[p] = Clock::now();
    phase.store(next, std::memory_order_release);
  }
  double seconds(int p) const { return seconds_between(origin[p], end[p]); }
};

/// One connection's tallies for one phase: counts, and latencies and
/// completed packets per window of PhaseClock::window_s.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ok = 0;
  std::uint64_t packets = 0;
  bool started = false;
  WindowedSamples latency_us{Clock::time_point{}};
  std::vector<double> window_packets;

  void record(const PhaseClock& pc, int p, Clock::time_point done, double us,
              std::size_t pkts) {
    if (!started) {
      latency_us = WindowedSamples(pc.origin[p], pc.window_s);
      started = true;
    }
    ++ok;
    packets += pkts;
    latency_us.add(done, us);
    const auto w =
        static_cast<std::size_t>(seconds_between(pc.origin[p], done) / pc.window_s);
    if (window_packets.size() <= w) window_packets.resize(w + 1, 0.0);
    window_packets[w] += static_cast<double>(pkts);
  }
};

/// Sums one phase over connections: counts, every connection's finished
/// latency windows, and the median over the whole windows `keep` admits
/// of the packets all connections completed in it, per second.
struct PhaseTotals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ok = 0;
  std::uint64_t packets = 0;
  WindowedSamples latency_us{Clock::time_point{}};
  double window_mpps = 0.0;
};

PhaseTotals totals(std::vector<Tally*> tallies, const PhaseClock& pc, int p,
                   const WindowMask& keep) {
  PhaseTotals t;
  const auto full = static_cast<std::size_t>(pc.seconds(p) / pc.window_s);
  std::vector<double> per_window(full, 0.0);
  for (Tally* x : tallies) {
    t.attempted += x->attempted;
    t.failed += x->failed;
    t.ok += x->ok;
    t.packets += x->packets;
    x->latency_us.finish(pc.end[p]);
    t.latency_us.absorb(x->latency_us);
    for (std::size_t w = 0; w < full && w < x->window_packets.size(); ++w) {
      per_window[w] += x->window_packets[w];
    }
  }
  std::vector<double> kept;
  for (std::size_t w = 0; w < full; ++w) {
    if (keep.empty() || (w < keep.size() && keep[w])) kept.push_back(per_window[w]);
  }
  t.window_mpps = median(kept) / pc.window_s / 1e6;
  return t;
}

struct ClassifyLoad {
  Tally phase[kStop];
  std::uint64_t wrong = 0;
  std::string error;
};

void classify_worker(std::uint16_t port,
                     const std::vector<std::vector<rfipc::net::HeaderBits>>& batches,
                     const std::vector<std::vector<std::uint64_t>>& refs,
                     std::size_t start, const PhaseClock& pc, ClassifyLoad& out) {
  ClassifyClient client(load_client_options());
  if (!client.connect("127.0.0.1", port)) {
    out.error = "connect: " + client.error();
    out.phase[kUntraced].failed++;
    out.phase[kUntraced].attempted++;
    return;
  }
  std::vector<std::uint64_t> best;
  for (std::size_t i = start;; ++i) {
    const int p = pc.phase.load(std::memory_order_acquire);
    if (p == kStop) break;
    const std::size_t b = i % batches.size();
    const Clock::time_point t0 = Clock::now();
    const bool ok = client.classify(batches[b], best);
    const Clock::time_point t1 = Clock::now();
    Tally& tally = out.phase[p];
    ++tally.attempted;
    if (!ok) {
      ++tally.failed;
      if (!client.connected()) {
        out.error = "classify: " + client.error();
        break;
      }
      continue;
    }
    tally.record(pc, p, t1, ns_between(t0, t1) / 1e3, batches[b].size());
    if (best != refs[b]) ++out.wrong;
  }
}

/// One acked update as the client saw it.
struct UpdateStamp {
  std::uint64_t seq = 0;
  Clock::time_point sent;
  Clock::time_point acked;
};

/// Both updaters record into one tally per phase, so each window pools
/// both connections' acks: one connection alone leaves too few samples
/// in a window for its p99.
struct UpdateTallies {
  std::mutex mu;
  Tally phase[kStop];
};

struct UpdateLoad {
  std::vector<UpdateStamp> traced;
  std::uint64_t acked_total = 0;
  bool uncertain = false;  // an op failed: its effect on the ruleset is unknown
  std::string error;
};

/// Alternates insert(kRules, rule) and erase(kRules) until told to stop,
/// always finishing on an erase. Index kRules sits just below the
/// match-all default, so neither op changes any classify answer, and the
/// erase always finds a rule there: every updater erases only after its
/// own insert was acked.
void update_worker(std::uint16_t port, const rfipc::ruleset::Rule& rule,
                   const PhaseClock& pc, UpdateTallies& tallies, UpdateLoad& out) {
  ClassifyClient client(load_client_options());
  if (!client.connect("127.0.0.1", port)) {
    out.error = "connect: " + client.error();
    out.uncertain = true;
    std::lock_guard<std::mutex> lock(tallies.mu);
    tallies.phase[kUntraced].failed++;
    tallies.phase[kUntraced].attempted++;
    return;
  }
  bool inserted = false;
  while (true) {
    const int p = pc.phase.load(std::memory_order_acquire);
    if (p == kStop && !inserted) break;
    const int slot = p == kStop ? kWarm : p;  // the closing erase is not measured
    const Clock::time_point t0 = Clock::now();
    const bool ok = inserted ? client.erase_rule(kRules) : client.insert_rule(kRules, rule);
    const Clock::time_point t1 = Clock::now();
    {
      std::lock_guard<std::mutex> lock(tallies.mu);
      Tally& tally = tallies.phase[slot];
      ++tally.attempted;
      if (ok) {
        tally.record(pc, slot, t1, ns_between(t0, t1) / 1e3, 0);
      } else {
        ++tally.failed;
      }
    }
    if (!ok) {
      out.uncertain = true;
      out.error = std::string(inserted ? "erase: " : "insert: ") + client.error();
      break;
    }
    ++out.acked_total;
    if (p == kTraced) out.traced.push_back({client.last_seq(), t0, t1});
    inserted = !inserted;
  }
}

struct PhaseWindow {
  double seconds = 0.0;
  rfipc::runtime::StatsSnapshot before;
  rfipc::runtime::StatsSnapshot after;
  rfipc::runtime::ServerCounters srv_before;
  rfipc::runtime::ServerCounters srv_after;
  rfipc::persist::PersistStats log_before;
  rfipc::persist::PersistStats log_after;
  std::uint64_t hook_calls_before = 0;
  std::uint64_t hook_calls_after = 0;
};

void open_window(const Service& svc, PhaseWindow& w) {
  w.before = svc.clf->stats_snapshot();
  w.srv_before = svc.srv->counters();
  if (svc.log) w.log_before = svc.log->stats();
  w.hook_calls_before = svc.hook->calls.load();
}

void close_window(const Service& svc, PhaseWindow& w) {
  w.after = svc.clf->stats_snapshot();
  w.srv_after = svc.srv->counters();
  if (svc.log) w.log_after = svc.log->stats();
  w.hook_calls_after = svc.hook->calls.load();
}

void sleep_s(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Prices the persist layer alone, with no server in front of it: seeds a
/// scratch journal with the ruleset, then appends single-op batches that
/// alternate an insert and an erase at the tail index, as the churn
/// updaters do. Journal policy and thresholds are rfipcd's defaults.
void isolate_persist(const rfipc::ruleset::RuleSet& rules, const std::string& dir,
                     Result& r) {
  constexpr int kAppends = 400;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  rfipc::persist::DurableLogConfig cfg;
  cfg.dir = dir;
  cfg.fsync = rfipc::persist::FsyncPolicy::kBatch;
  std::string err;
  std::vector<double> append_us;
  {
    const Clock::time_point t0 = Clock::now();
    auto log = rfipc::persist::DurableLog::open(cfg, err);
    if (log == nullptr || !log->seed(rules, err)) {
      r.fail_check("persist isolation: journal open/seed failed: " + err);
      std::filesystem::remove_all(dir, ec);
      return;
    }
    r.set("persist.seed_s", seconds_between(t0, Clock::now()), "s");
    const rfipc::persist::PersistStats before = log->stats();
    for (int i = 0; i < kAppends; ++i) {
      const rfipc::persist::RuleOp op =
          i % 2 == 0 ? rfipc::persist::RuleOp::insert(kRules, rules[0])
                     : rfipc::persist::RuleOp::erase(kRules);
      const Clock::time_point a0 = Clock::now();
      if (!log->append_ops({&op, 1}, err)) {
        r.fail_check("persist isolation: append failed: " + err);
        break;
      }
      append_us.push_back(ns_between(a0, Clock::now()) / 1e3);
    }
    const rfipc::persist::PersistStats after = log->stats();
    const double records =
        static_cast<double>(after.records_appended - before.records_appended);
    r.set("persist.append_us", median(append_us), "us");
    r.set("persist.ops_per_append", per(records, static_cast<double>(append_us.size())),
          "count");
    r.set("persist.fsyncs_per_op",
          per(static_cast<double>(after.fsyncs - before.fsyncs), records), "count");
    r.set("persist.bytes_per_op",
          per(static_cast<double>(after.bytes_appended - before.bytes_appended), records),
          "B");
    if (log->last_seq() != static_cast<std::uint64_t>(append_us.size()) ||
        log->rules_snapshot().size() != kRules) {
      r.fail_check("persist isolation: journal holds " +
                   std::to_string(log->last_seq()) + " records and " +
                   std::to_string(log->rules_snapshot().size()) + " rules");
    }
  }
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

Result run_wire(bool churn, const RunOptions& opts) {
  Result r;
  const rfipc::ruleset::RuleSet rules = make_rules(opts.seed);
  const Trace trace = make_trace(rules, Traffic::kSkewed, opts.seed);

  std::vector<std::vector<rfipc::net::HeaderBits>> batches;
  std::vector<std::vector<std::uint64_t>> refs;
  for (std::size_t b = 0; b < trace.headers.size(); b += kBatch) {
    const std::size_t e = std::min(trace.headers.size(), b + kBatch);
    batches.emplace_back(trace.headers.begin() + static_cast<std::ptrdiff_t>(b),
                         trace.headers.begin() + static_cast<std::ptrdiff_t>(e));
    refs.emplace_back(trace.best.begin() + static_cast<std::ptrdiff_t>(b),
                      trace.best.begin() + static_cast<std::ptrdiff_t>(e));
  }

  // Set up kSetupRepeats times in fresh journal directories; keep the last.
  std::vector<double> setup_s;
  std::vector<double> build_s;
  std::vector<double> seed_s;
  std::unique_ptr<Service> svc;
  for (int i = 0; i < kSetupRepeats; ++i) {
    svc.reset();
    SetupTimes t;
    const std::string dir = opts.workdir + "/perfbench-journal-" +
                            std::to_string(::getpid()) + "-" + std::to_string(i);
    svc = build_service(rules, churn, dir, t, r);
    if (svc == nullptr) return r;
    setup_s.push_back(t.total_s);
    build_s.push_back(t.build_s);
    seed_s.push_back(t.seed_s);
  }
  if (opts.setup_only) {
    r.set("setup_s", median(setup_s), "s");
    return r;
  }
  ClassifyServer* srv = svc->srv.get();
  svc->serving = std::thread([srv] { srv->run(); });
  const std::uint16_t port = srv->port();

  PhaseClock pc;
  // Short windows on wire_read, so that quiet ones are common; update
  // acks are fewer, and a 2 s window still holds enough for a p99.
  pc.window_s = churn ? WindowedSamples::kWindowSeconds : 0.5;
  pc.origin[kWarm] = Clock::now();
  const std::size_t classify_conns = churn ? 1 : 2;
  std::vector<ClassifyLoad> cload(classify_conns);
  std::vector<UpdateLoad> uload(churn ? 2 : 0);
  UpdateTallies utallies;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < classify_conns; ++c) {
    threads.emplace_back(classify_worker, port, std::cref(batches), std::cref(refs),
                         c * batches.size() / classify_conns, std::cref(pc),
                         std::ref(cload[c]));
  }
  // Each updater inserts its own rule; both sit below the default.
  for (std::size_t u = 0; u < uload.size(); ++u) {
    threads.emplace_back(update_worker, port, std::cref(rules[u]), std::cref(pc),
                         std::ref(utallies),
                         std::ref(uload[u]));
  }

  sleep_s(2.0);  // warm-up: connections open, caches and workers warm
  // Only update_churn has in-situ spans (the durability hook's), so only
  // it splits a traced run into an untraced and a traced half.
  const bool traced_half = opts.trace && churn;
  const double measured = traced_half ? opts.seconds / 2 : opts.seconds;
  PhaseWindow u;
  open_window(*svc, u);
  pc.begin(kUntraced);
  StealWindows steal(pc.origin[kUntraced], pc.window_s);
  steal.pace_until(pc.origin[kUntraced] +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(measured)));
  pc.stop(kUntraced, traced_half ? kTraced : kStop);
  const WindowMask quiet = steal.quiet();
  r.note("host_steal_frac", steal.total_share());
  r.note("steal_windows", steal.summary());
  u.seconds = pc.seconds(kUntraced);
  close_window(*svc, u);

  if (traced_half) {
    svc->hook->spans.store(true);
    pc.begin(kTraced);
    sleep_s(measured);
    pc.stop(kTraced, kStop);
  }
  for (auto& th : threads) th.join();
  svc->clf->flush_updates();

  // Oracle.
  std::uint64_t wrong = 0;
  for (const auto& c : cload) {
    wrong += c.wrong;
    if (!c.error.empty()) r.note("classify_error", c.error);
  }
  if (wrong != 0) {
    r.fail_check(std::to_string(wrong) + " classify replies disagree with first_match");
  }
  bool uncertain = false;
  std::uint64_t acked_total = 0;
  for (const auto& ul : uload) {
    uncertain = uncertain || ul.uncertain;
    acked_total += ul.acked_total;
    if (!ul.error.empty()) r.note("update_error", ul.error);
  }
  if (churn && !uncertain) {
    if (svc->log->last_seq() != acked_total) {
      r.fail_check("journal last_seq " + std::to_string(svc->log->last_seq()) +
                   " != acked updates " + std::to_string(acked_total));
    }
    if (svc->clf->rule_count() != kRules || svc->log->rules_snapshot().size() != kRules) {
      r.fail_check("final rule count " + std::to_string(svc->clf->rule_count()) +
                   " (journal " + std::to_string(svc->log->rules_snapshot().size()) +
                   "), expected " + std::to_string(kRules));
    }
  }
  r.note("acked_updates_total", static_cast<double>(acked_total));

  // Untraced-phase tallies.
  std::vector<Tally*> cu_parts;
  std::vector<Tally*> uu_parts;
  for (auto& c : cload) cu_parts.push_back(&c.phase[kUntraced]);
  if (churn) uu_parts.push_back(&utallies.phase[kUntraced]);
  const PhaseTotals cu = totals(cu_parts, pc, kUntraced, quiet);
  const PhaseTotals uu = totals(uu_parts, pc, kUntraced, quiet);
  r.attempted = cu.attempted + uu.attempted;
  r.failed = cu.failed + uu.failed;
  const double wire_mpps = cu.window_mpps;
  const Percentile rtt50 = cu.latency_us.median_p50(quiet);
  const Percentile rtt90 = cu.latency_us.median_p90(quiet);
  const Percentile rtt99 = cu.latency_us.median_tail(quiet);
  const Percentile ack50 = uu.latency_us.median_p50(quiet);
  const Percentile ack90 = uu.latency_us.median_p90(quiet);
  const Percentile ack99 = uu.latency_us.median_tail(quiet);
  const double hits = hit_ratio(u.before, u.after);
  r.note("flow.hit_ratio", hits);
  r.note("wire_rtt_p50_us", rtt50);
  r.note("wire_rtt_p99_us", rtt99);
  r.note("latency_windows", static_cast<double>(churn ? uu.latency_us.windows()
                                                      : cu.latency_us.windows()));
  if (churn) {
    r.note("update_ack_p50_us", ack50);
    r.note("update_ack_p99_us", ack99);
  }
  r.note("lanes", static_cast<double>(u.after.workers.size() + 1));

  if (!opts.trace) {
    // update_churn's latency is the durable update's ack; wire_read's is
    // the classify round trip.
    add_end_to_end(r, wire_mpps, churn ? ack50 : rtt50, churn ? ack90 : rtt90,
                   churn ? ack99 : rtt99, median(setup_s));
    return r;
  }

  // The update-path attribution (update_churn's traced half).
  std::size_t traced_updates = 0;
  std::vector<double> publish_us;
  std::vector<double> append_us;
  std::vector<double> tail_us;
  double unattributed_us = 0.0;
  double ack_total_us = 0.0;
  {
    std::lock_guard<std::mutex> lock(svc->hook->mu);
    const auto& recs = svc->hook->records;
    for (const auto& ul : uload) {
      for (const UpdateStamp& s : ul.traced) {
        const double us = ns_between(s.sent, s.acked) / 1e3;
        ++traced_updates;
        ack_total_us += us;
        const HookRecord* hit = nullptr;
        // Records are in seq order: binary search by last_seq.
        auto it = std::lower_bound(recs.begin(), recs.end(), s.seq,
                                   [](const HookRecord& h, std::uint64_t seq) {
                                     return h.last_seq < seq;
                                   });
        if (it != recs.end() && it->first_seq <= s.seq && s.seq <= it->last_seq) {
          hit = &*it;
        }
        if (hit == nullptr || s.seq == 0) {
          unattributed_us += us;
          continue;
        }
        publish_us.push_back(ns_between(s.sent, hit->enter) / 1e3);
        append_us.push_back(ns_between(hit->append_begin, hit->append_end) / 1e3);
        tail_us.push_back(ns_between(hit->exit, s.acked) / 1e3);
      }
    }
  }

  // Isolation passes, with the load stopped: codec, in-process classify
  // of the same batches, a bare round trip, cache probe and bands.
  std::vector<double> codec_ns;
  std::vector<double> classify_us;
  std::vector<rfipc::engines::MatchResult> results(kBatch);
  std::size_t iso_wrong = 0;
  const rfipc::runtime::StatsSnapshot iso_before = svc->clf->stats_snapshot();
  {
    rfipc::server::wire::Request req;
    req.op = rfipc::server::wire::Op::kClassifyBatch;
    rfipc::server::wire::Response rsp;
    rsp.op = rfipc::server::wire::Op::kClassifyBatch;
    std::vector<std::uint8_t> req_bytes;
    std::vector<std::uint8_t> rsp_bytes;
    rfipc::server::wire::Response decoded;
    std::string err;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      req.id = static_cast<std::uint32_t>(b + 1);
      req.headers = batches[b];
      rsp.id = req.id;
      rsp.best = refs[b];
      rsp_bytes.clear();
      rfipc::server::wire::encode_response(rsp, rsp_bytes);
      const std::span<const std::uint8_t> payload(
          rsp_bytes.data() + rfipc::server::wire::kLenPrefixBytes,
          rsp_bytes.size() - rfipc::server::wire::kLenPrefixBytes);
      req_bytes.clear();
      const Clock::time_point c0 = Clock::now();
      rfipc::server::wire::encode_request(req, req_bytes);
      const bool ok = rfipc::server::wire::decode_response(payload, decoded, err);
      codec_ns.push_back(ns_between(c0, Clock::now()));
      if (!ok || decoded.best != refs[b]) ++iso_wrong;

      const std::span<rfipc::engines::MatchResult> out(results.data(), batches[b].size());
      const Clock::time_point k0 = Clock::now();
      svc->clf->classify_batch(batches[b], out,
                               rfipc::engines::BatchOptions{.want_multi = false});
      classify_us.push_back(ns_between(k0, Clock::now()) / 1e3);
      for (std::size_t i = 0; i < out.size(); ++i) iso_wrong += out[i].best != refs[b][i];
    }
  }
  const rfipc::runtime::StatsSnapshot iso_after = svc->clf->stats_snapshot();
  if (iso_wrong != 0) {
    r.fail_check(std::to_string(iso_wrong) + " isolation-pass answers disagree");
  }
  std::vector<double> ping_us;
  {
    ClassifyClient client(load_client_options());
    if (client.connect("127.0.0.1", port)) {
      for (int i = 0; i < 2000; ++i) {
        const Clock::time_point p0 = Clock::now();
        if (client.ping()) ping_us.push_back(ns_between(p0, Clock::now()) / 1e3);
      }
    }
  }
  const EngineIsolation eng = isolate_engines(trace.headers, *svc->clf);

  const double pkts_per_req = static_cast<double>(kBatch);
  const double codec_us = median(codec_ns) / 1e3;
  const double classify_med_us = median(classify_us);
  const double ping_med_us = median(ping_us);
  const double rtt_u = rtt50.value;
  const double classify_pkt_ns = classify_med_us * 1e3 / pkts_per_req;
  // The share of the isolation pass's packets that reached the engines.
  const double miss_share = 1.0 - hit_ratio(iso_before, iso_after);
  const double batches_u = static_cast<double>(u.after.batches - u.before.batches);
  double parks = 0.0;
  double stalls = 0.0;
  worker_deltas(u.before, u.after, parks, stalls);
  const double packets_u = static_cast<double>(cu.packets);
  const double acked_u = static_cast<double>(uu.ok);
  const double req_u = static_cast<double>(u.srv_after.requests - u.srv_before.requests);

  add_layer_defaults(r);
  r.set("wire_mpps", wire_mpps, "Mpkt/s");
  r.set("wire_rtt_p50_us", rtt50.value, "us");
  r.set("wire_rtt_p99_us", rtt99.value, "us");
  r.set("failed_frac", per(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
        "frac");
  r.set("flow.probe_ns_per_pkt", eng.probe_ns, "ns");
  r.set("flow.hit_ratio", hits, "frac");
  r.set("flow.evictions_per_kpkt",
        per(static_cast<double>(u.after.cache_evictions - u.before.cache_evictions),
            packets_u / 1e3),
        "count");
  r.set("engines.bands_ns_per_pkt", eng.bands_ns, "ns");
  r.set("engines.slowest_band_ns_per_pkt", eng.slowest_band_ns, "ns");
  r.set("runtime.classify_ns_per_pkt", classify_pkt_ns, "ns");
  r.set("runtime.batch_p99_us", tail_of(classify_us).value, "us");
  r.note("runtime.batch_p99_us", tail_of(classify_us));
  r.set("runtime.fanout_ns_per_pkt",
        classify_pkt_ns - eng.probe_ns - eng.bands_ns * miss_share, "ns");
  r.set("runtime.parks_per_batch", per(parks, batches_u), "count");
  r.set("runtime.ring_stalls_per_batch", per(stalls, batches_u), "count");
  r.set("server.codec_ns_per_req", codec_us * 1e3, "ns");
  r.set("server.transport_us_per_req", rtt_u - classify_med_us - codec_us, "us");
  r.set("server.bytes_per_pkt",
        per(static_cast<double>((u.srv_after.bytes_in - u.srv_before.bytes_in) +
                                (u.srv_after.bytes_out - u.srv_before.bytes_out)),
            packets_u),
        "B");
  r.set("server.shed_frac",
        per(static_cast<double>(u.srv_after.shed - u.srv_before.shed), req_u), "frac");
  r.set("engines.build_s", median(build_s), "s");
  r.set("engines.bytes_per_rule",
        static_cast<double>(svc->clf->memory_bytes()) /
            static_cast<double>(svc->clf->rule_count()),
        "B");
  r.note("ping_rtt_us", ping_med_us);
  r.note("classify_iso_us", classify_med_us);

  if (!churn) {
    // No spans run beside wire_read's load: every layer figure above
    // comes from the untraced load or from isolation passes after it.
    r.set("trace.overhead_frac", 0.0, "frac");
    r.set("trace.unattributed_frac",
          (rtt_u - classify_med_us - codec_us - ping_med_us) / rtt_u, "frac");
    isolate_persist(rules, opts.workdir + "/perfbench-journal-" +
                               std::to_string(::getpid()) + "-isolation",
                    r);
    return r;
  }

  const double records =
      static_cast<double>(u.log_after.records_appended - u.log_before.records_appended);
  r.set("update_kups", acked_u / u.seconds / 1e3, "kupd/s");
  r.set("update_ack_p50_us", ack50.value, "us");
  r.set("update_ack_p99_us", ack99.value, "us");
  r.set("flow.invalidations_per_kupd",
        per(static_cast<double>(u.after.cache_invalidations - u.before.cache_invalidations),
            acked_u / 1e3),
        "count");
  r.set("runtime.publish_us", median(publish_us), "us");
  r.set("persist.append_us", median(append_us), "us");
  r.set("server.ack_tail_us", median(tail_us), "us");
  r.set("runtime.ops_per_swap",
        per(static_cast<double>(u.after.coalesced_ops - u.before.coalesced_ops),
            static_cast<double>(u.after.snapshot_swaps - u.before.snapshot_swaps)),
        "count");
  r.set("persist.ops_per_append",
        per(records, static_cast<double>(u.hook_calls_after - u.hook_calls_before)),
        "count");
  r.set("persist.fsyncs_per_op",
        per(static_cast<double>(u.log_after.fsyncs - u.log_before.fsyncs), records),
        "count");
  r.set("persist.bytes_per_op",
        per(static_cast<double>(u.log_after.bytes_appended - u.log_before.bytes_appended),
            records),
        "B");
  r.set("persist.seed_s", median(seed_s), "s");
  // Both halves over all their windows: the traced half reads no steal.
  const PhaseTotals ut = totals({&utallies.phase[kTraced]}, pc, kTraced, {});
  const double ack_tr = ut.latency_us.median_p50().value;
  const double ack_u = uu.latency_us.median_p50().value;
  r.set("trace.overhead_frac", (ack_tr - ack_u) / ack_u, "frac");
  r.set("trace.unattributed_frac", per(unattributed_us, ack_total_us), "frac");
  r.note("attributed_updates", static_cast<double>(publish_us.size()));
  r.note("traced_updates", static_cast<double>(traced_updates));
  return r;
}

}  // namespace perfbench
