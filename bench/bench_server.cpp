// Extension: the classification service over its binary wire protocol.
//
// bench_runtime_batch prices the in-process batch path; this bench adds
// the wire tax on top — framing, the epoll reactor, kernel sockets —
// by standing a ClassifyServer up on loopback and driving it with
// concurrent blocking clients (one request in flight per connection,
// concurrency comes from connection count). Reported per configuration:
// aggregate Mpkt/s and the client-observed request RTT p50/p99, each the
// median of kReps timed repetitions after one warm-up repetition, with
// the throughput's min-max beside it (repetitions interleave the rows,
// so slow spells of a shared host spread over all of them). The
// functional check replays one client batch against the in-process
// classifier and requires identical best indices — the wire path must
// not change a single decision.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "persist/durable_log.h"
#include "runtime/sharded_classifier.h"
#include "ruleset/generator.h"
#include "ruleset/trace.h"
#include "server/classify_server.h"
#include "server/client.h"
#include "util/table.h"

using namespace rfipc;

namespace {

struct LoadResult {
  double mpkts = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
};

/// Median and range of one row's repetitions.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

Spread spread(std::vector<double> v) {
  Spread s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.min = v.front();
  s.max = v.back();
  const std::size_t mid = v.size() / 2;
  s.median = v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
  return s;
}

std::string fixed(double v, int digits) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

/// Drives `connections` blocking clients against the server for
/// `seconds`, each cycling batch-sized windows through the trace.
LoadResult drive(std::uint16_t port, std::span<const net::HeaderBits> headers,
                 std::size_t connections, std::size_t batch, double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> packets{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::vector<double>> rtts(connections);
  std::vector<std::thread> clients;
  clients.reserve(connections);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      server::ClassifyClient client;
      if (!client.connect("127.0.0.1", port)) {
        failures.fetch_add(1);
        return;
      }
      std::vector<std::uint64_t> best;
      std::size_t off = c * batch;  // stagger the windows across clients
      while (!stop.load(std::memory_order_relaxed)) {
        if (off + batch > headers.size()) off = 0;
        const auto s0 = std::chrono::steady_clock::now();
        if (!client.classify(headers.subspan(off, batch), best)) {
          failures.fetch_add(1);
          return;
        }
        rtts[c].push_back(
            std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                      s0)
                .count());
        packets.fetch_add(batch, std::memory_order_relaxed);
        requests.fetch_add(1, std::memory_order_relaxed);
        off += batch;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : clients) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  LoadResult r;
  std::vector<double> all;
  for (auto& v : rtts) all.insert(all.end(), v.begin(), v.end());
  r.mpkts = static_cast<double>(packets.load()) / elapsed / 1e6;
  r.p50_us = percentile(all, 0.50);
  r.p99_us = percentile(all, 0.99);
  r.requests = requests.load();
  r.failures = failures.load();
  return r;
}

struct UpdateResult {
  double kupd_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t ops = 0;
  std::uint64_t failures = 0;
  std::uint64_t last_seq = 0;
};

/// One synchronous client alternating an insert/erase pair at the tail
/// index — each acked reply implies the journal append (and fsync, per
/// policy) already happened, so the RTT prices durability end to end.
UpdateResult drive_updates(std::uint16_t port, const ruleset::Rule& extra,
                           std::uint64_t base_size, double seconds) {
  UpdateResult r;
  server::ClassifyClient client;
  if (!client.connect("127.0.0.1", port)) {
    r.failures = 1;
    return r;
  }
  std::vector<double> rtts;
  bool inserted = false;
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 <
         std::chrono::duration<double>(seconds)) {
    const auto s0 = std::chrono::steady_clock::now();
    const bool ok = inserted ? client.erase_rule(base_size)
                             : client.insert_rule(base_size, extra);
    if (!ok) {
      r.failures += 1;
      break;
    }
    rtts.push_back(
        std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                  s0)
            .count());
    inserted = !inserted;
    r.ops += 1;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  r.kupd_s = static_cast<double>(r.ops) / elapsed / 1e3;
  r.p50_us = percentile(rtts, 0.50);
  r.p99_us = percentile(rtts, 0.99);
  r.last_seq = client.last_seq();
  return r;
}

}  // namespace

int main() {
  bench::print_banner(
      "Extension — classification service over the wire",
      "the epoll service adds framing + socket cost on top of the in-process "
      "batch path; concurrent connections keep the reactor busy");
  bench::functional_gate(256);

  constexpr std::size_t kRules = 512;
  constexpr std::size_t kPackets = 8192;
  constexpr std::size_t kBatch = 512;
  constexpr double kSeconds = 0.5;  // per row and repetition
  constexpr int kReps = 5;          // timed repetitions, after one warm-up
  constexpr std::size_t kConns[] = {1, 2, 4};

  const auto rules = ruleset::generate_firewall(kRules, 2013);
  ruleset::TraceConfig tcfg;
  tcfg.size = kPackets;
  tcfg.seed = 7;
  std::vector<net::HeaderBits> headers;
  headers.reserve(kPackets);
  for (const auto& t : ruleset::generate_trace(rules, tcfg)) headers.emplace_back(t);

  runtime::ShardedConfig rcfg;
  rcfg.shards = 2;
  // The bench co-hosts reactor, waiter, AND the client driver threads
  // in one process: budget the shard workers accordingly.
  rcfg.reserved_cores = server::kServiceThreads + 1;
  runtime::ShardedClassifier classifier(rules, rcfg);

  // In-process baseline: what the runtime does before any socket.
  std::vector<engines::MatchResult> results(kPackets);
  const auto inproc_pass = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t done = 0;
    while (std::chrono::steady_clock::now() - t0 <
           std::chrono::duration<double>(kSeconds)) {
      for (std::size_t off = 0; off + kBatch <= kPackets; off += kBatch) {
        classifier.classify_batch(
            std::span<const net::HeaderBits>(headers).subspan(off, kBatch),
            std::span<engines::MatchResult>(results).subspan(off, kBatch),
            engines::BatchOptions{.want_multi = false});
        done += kBatch;
      }
    }
    return static_cast<double>(done) /
           std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count() /
           1e6;
  };

  server::ClassifyServer srv(classifier, server::ServerConfig{});
  std::thread serving([&srv] { srv.run(); });

  // Functional check: the wire replies must mirror the in-process path.
  bool decisions_match = false;
  {
    server::ClassifyClient client;
    std::vector<std::uint64_t> best;
    if (client.connect("127.0.0.1", srv.port()) &&
        client.classify(std::span<const net::HeaderBits>(headers).first(kBatch), best)) {
      classifier.classify_batch(
          std::span<const net::HeaderBits>(headers).first(kBatch),
          std::span<engines::MatchResult>(results).first(kBatch),
          engines::BatchOptions{.want_multi = false});
      decisions_match = best.size() == kBatch;
      for (std::size_t i = 0; i < kBatch && decisions_match; ++i) {
        const std::uint64_t expect =
            results[i].has_match() ? results[i].best : server::wire::kNoMatch;
        decisions_match = best[i] == expect;
      }
    }
  }

  // Repetition 0 warms caches, workers and connections and is dropped.
  std::vector<double> inproc_rates;
  std::vector<double> wire_rates[std::size(kConns)];
  std::vector<double> wire_p50[std::size(kConns)];
  std::vector<double> wire_p99[std::size(kConns)];
  std::uint64_t total_failures = 0;
  for (int rep = 0; rep <= kReps; ++rep) {
    const double inproc = inproc_pass();
    if (rep > 0) inproc_rates.push_back(inproc);
    for (std::size_t i = 0; i < std::size(kConns); ++i) {
      const LoadResult r = drive(srv.port(), headers, kConns[i], kBatch, kSeconds);
      total_failures += r.failures;
      if (rep == 0) continue;
      wire_rates[i].push_back(r.mpkts);
      wire_p50[i].push_back(r.p50_us);
      wire_p99[i].push_back(r.p99_us);
    }
  }

  util::TextTable table({"configuration", "Mpkt/s | Kupd/s", "wire tax", "p50 RTT (us)",
                         "p99 RTT (us)", "Mpkt/s min-max"});
  const Spread inproc = spread(inproc_rates);
  table.add_row({"in-process batch " + std::to_string(kBatch), fixed(inproc.median, 2),
                 "1.00x", "-", "-",
                 fixed(inproc.min, 2) + "-" + fixed(inproc.max, 2)});
  double best_wire_rate = 0;
  for (std::size_t i = 0; i < std::size(kConns); ++i) {
    const Spread rate = spread(wire_rates[i]);
    best_wire_rate = std::max(best_wire_rate, rate.median);
    table.add_row({"wire " + std::to_string(kConns[i]) + " conn x batch " +
                       std::to_string(kBatch),
                   fixed(rate.median, 2),
                   fixed(inproc.median > 0 ? rate.median / inproc.median : 0.0, 2) + "x",
                   fixed(spread(wire_p50[i]).median, 0),
                   fixed(spread(wire_p99[i]).median, 0),
                   fixed(rate.min, 2) + "-" + fixed(rate.max, 2)});
  }

  srv.request_drain();
  serving.join();

  // Durable update latency: one fresh journaled server per fsync
  // policy, a single synchronous client hammering insert/erase pairs.
  // The acked RTT is the full durability price — publish + journal
  // append + fsync-per-policy — since OK replies are withheld until
  // the record is on disk.
  constexpr double kUpdateSeconds = 0.6;
  bool updates_clean = true;
  for (const auto policy :
       {persist::FsyncPolicy::kNone, persist::FsyncPolicy::kBatch,
        persist::FsyncPolicy::kAlways}) {
    const char* name = policy == persist::FsyncPolicy::kNone     ? "none"
                       : policy == persist::FsyncPolicy::kBatch ? "batch"
                                                                : "always";
    const std::filesystem::path dir =
        std::filesystem::path("bench-journal-") += name;
    std::filesystem::remove_all(dir);

    persist::DurableLogConfig pcfg;
    pcfg.dir = dir.string();
    pcfg.fsync = policy;
    std::string err;
    auto log = persist::DurableLog::open(pcfg, err);
    if (log == nullptr || !log->seed(rules, err)) {
      std::fprintf(stderr, "bench_server: journal setup (%s) failed: %s\n", name,
                   err.c_str());
      updates_clean = false;
      continue;
    }

    runtime::ShardedConfig ucfg = rcfg;
    persist::DurableLog* raw = log.get();
    ucfg.durability_hook = [raw](std::span<const runtime::UpdateOp> ops) {
      std::vector<persist::RuleOp> jops;
      jops.reserve(ops.size());
      for (const auto& op : ops) {
        jops.push_back(op.kind == runtime::UpdateOp::Kind::kInsert
                           ? persist::RuleOp::insert(op.index, op.rule, op.token)
                           : persist::RuleOp::erase(op.index, op.token));
      }
      std::string hook_err;
      if (!raw->append_ops(jops, hook_err)) {
        std::fprintf(stderr, "bench_server: journal append failed: %s\n",
                     hook_err.c_str());
      }
    };
    runtime::ShardedClassifier uclassifier(rules, ucfg);
    server::ServerConfig uscfg;
    uscfg.durable = raw;
    server::ClassifyServer usrv(uclassifier, uscfg);
    std::thread userving([&usrv] { usrv.run(); });

    const UpdateResult u =
        drive_updates(usrv.port(), rules[0], rules.size(), kUpdateSeconds);
    usrv.request_drain();
    userving.join();

    updates_clean = updates_clean && u.failures == 0 && u.ops > 0 &&
                    u.last_seq == u.ops;
    table.add_row({std::string("update fsync=") + name, fixed(u.kupd_s, 2), "-",
                   fixed(u.p50_us, 0), fixed(u.p99_us, 0), "-"});

    log.reset();
    std::filesystem::remove_all(dir);
  }

  bench::emit(table, "server.csv");
  const auto c = srv.counters();
  std::printf("\nserver counters: %llu requests, %llu B in, %llu B out, "
              "%llu shed, %llu decode errors\n",
              static_cast<unsigned long long>(c.requests),
              static_cast<unsigned long long>(c.bytes_in),
              static_cast<unsigned long long>(c.bytes_out),
              static_cast<unsigned long long>(c.shed),
              static_cast<unsigned long long>(c.decode_errors));

  bench::check("wire decisions identical to the in-process path", decisions_match,
               "first batch compared element-wise");
  bench::check("no client observed a transport or protocol failure",
               total_failures == 0, std::to_string(total_failures) + " failures");
  bench::check("the wire path sustains measurable throughput", best_wire_rate > 0.01,
               "best " + std::to_string(best_wire_rate) + " Mpkt/s");
  bench::check("durable updates acked cleanly under every fsync policy",
               updates_clean, "ack seq == op count, zero failures");
  return bench::exit_code();
}
