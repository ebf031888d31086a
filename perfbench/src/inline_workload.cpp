// inline_skewed and inline_unique: pcap replay -> CaptureLoop ->
// ShardedClassifier, one ring, batch 256, on the calling thread.
//
// Each repetition replays the pass `passes` times through a fresh
// PcapReplaySource and CaptureLoop over the one long-lived classifier
// (so its flow cache stays warm, as in a running daemon) and checks the
// loop's counters against the oracle. The untimed warm-up repetition
// also checks every frame's winning rule index. The source is wrapped
// so the benchmark sees every next_batch() call: the gap between two
// calls is one batch's service time, which gives the latency
// percentiles.
#include <sched.h>

#include <algorithm>
#include <memory>

#include "capture/capture_loop.h"
#include "capture/pcap_source.h"
#include "net/packet_parser.h"
#include "server/classify_server.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rfipc::capture::CaptureLoop;
using rfipc::capture::FrameView;
using rfipc::capture::PcapReplaySource;
using rfipc::engines::BatchOptions;
using rfipc::engines::MatchResult;
using rfipc::runtime::ShardedClassifier;

/// Passes over the trace per repetition: enough frames that one
/// repetition is tens of milliseconds on either traffic.
std::uint64_t passes_for(Traffic t) { return t == Traffic::kSkewed ? 8 : 1; }

/// Latency windows: about 40 000 batches each, and several per process
/// when run.py splits a run into processes of a few seconds.
constexpr double kLatencyWindowSeconds = 1.0;

/// Delegating source that stamps each next_batch() call. With spans on
/// it also accumulates the time spent inside the replay source.
class StampedSource final : public rfipc::capture::CaptureSource {
 public:
  StampedSource(PcapReplaySource& inner, bool spans, WindowedSamples& batch_us)
      : inner_(inner), spans_(spans), batch_us_(batch_us) {}

  std::string describe() const override { return inner_.describe(); }
  std::size_t ring_count() const override { return inner_.ring_count(); }
  std::uint32_t link_type() const override { return inner_.link_type(); }
  bool exhausted(std::size_t ring) const override { return inner_.exhausted(ring); }
  std::uint64_t overruns(std::size_t ring) const override { return inner_.overruns(ring); }
  void stop() override { inner_.stop(); }

  std::size_t next_batch(std::size_t ring, std::span<FrameView> out) override {
    const Clock::time_point t0 = Clock::now();
    if (open_) batch_us_.add(t0, ns_between(last_, t0) / 1e3);
    const std::size_t n = inner_.next_batch(ring, out);
    if (spans_) source_ns_ += ns_between(t0, Clock::now());
    open_ = n > 0;
    last_ = t0;
    return n;
  }

  double source_ns() const { return source_ns_; }

 private:
  PcapReplaySource& inner_;
  bool spans_;
  WindowedSamples& batch_us_;
  bool open_ = false;
  Clock::time_point last_{};
  double source_ns_ = 0.0;
};

/// Delegating engine that times every classify_batch() the loop makes.
/// Given the oracle's answers, it also checks each result's best index
/// against them. With one ring and no parse failures the loop hands the
/// frames over in trace order, so a cursor over `expect` lines them up.
class SpannedEngine final : public rfipc::engines::ClassifierEngine {
 public:
  explicit SpannedEngine(const ShardedClassifier& inner,
                         const std::vector<std::uint64_t>* expect = nullptr)
      : inner_(inner), expect_(expect) {}

  std::string name() const override { return inner_.name(); }
  std::size_t rule_count() const override { return inner_.rule_count(); }
  bool supports_multi_match() const override { return inner_.supports_multi_match(); }
  MatchResult classify(const rfipc::net::HeaderBits& h) const override {
    return inner_.classify(h);
  }
  void classify_batch(std::span<const rfipc::net::HeaderBits> headers,
                      std::span<MatchResult> results,
                      const BatchOptions& opts) const override {
    const Clock::time_point t0 = Clock::now();
    inner_.classify_batch(headers, results, opts);
    const double ns = ns_between(t0, Clock::now());
    total_ns_ += ns;
    spans_us_.push_back(ns / 1e3);
    if (expect_ == nullptr) return;
    for (const MatchResult& m : results) {
      mismatches_ += m.best != (*expect_)[cursor_];
      cursor_ = (cursor_ + 1) % expect_->size();
      ++checked_;
    }
  }
  using rfipc::engines::ClassifierEngine::classify_batch;

  double total_ns() const { return total_ns_; }
  const std::vector<double>& spans_us() const { return spans_us_; }
  std::uint64_t checked() const { return checked_; }
  std::uint64_t mismatches() const { return mismatches_; }

 private:
  const ShardedClassifier& inner_;
  const std::vector<std::uint64_t>* expect_;
  mutable double total_ns_ = 0.0;
  mutable std::vector<double> spans_us_;
  mutable std::size_t cursor_ = 0;
  mutable std::uint64_t checked_ = 0;
  mutable std::uint64_t mismatches_ = 0;
};

/// Moves the calling thread to the next CPU it may run on, between
/// repetitions and at most once per kPeriod, and back to its own CPU set
/// when it goes out of scope. On a shared host one vCPU can run markedly
/// slower than the others for a while, and a single-threaded loop left
/// alone stays on one vCPU; rotating makes every run sample all of them
/// alike. Each move leaves the caches of the last CPU behind, so moves
/// are kept rare.
class CpuRotation {
 public:
  static constexpr std::chrono::milliseconds kPeriod{250};

  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Called between repetitions.
  void tick() {
    const Clock::time_point now = Clock::now();
    if (cpus_.size() < 2 || now < due_) return;
    due_ = now + kPeriod;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  Clock::time_point due_{};
};

struct Deployment {
  std::unique_ptr<ShardedClassifier> classifier;
  double setup_s = 0.0;
  double build_s = 0.0;
  double partition_s = 0.0;
};

/// Builds classifier, source and loop kSetupRepeats times; keeps the
/// last classifier. setup_s and its parts are medians.
Deployment build(const rfipc::ruleset::RuleSet& rules, const Trace& trace,
                 std::uint64_t passes) {
  // rfipcd with --capture holds back its service threads plus one core
  // per capture ring.
  const auto cfg = deployment_config(rfipc::server::kServiceThreads + 1);
  std::vector<double> total;
  std::vector<double> build_s;
  std::vector<double> partition_s;
  Deployment d;
  for (int i = 0; i < kSetupRepeats; ++i) {
    d.classifier.reset();
    rfipc::net::PcapFile copy = trace.pcap;  // input synthesis: untimed
    const Clock::time_point t0 = Clock::now();
    auto clf = std::make_unique<ShardedClassifier>(rules, cfg);
    const Clock::time_point t1 = Clock::now();
    PcapReplaySource src(std::move(copy), {.rings = 1, .loops = passes});
    const Clock::time_point t2 = Clock::now();
    CaptureLoop loop(src, *clf, rules, {.batch_size = kBatch});
    const Clock::time_point t3 = Clock::now();
    build_s.push_back(seconds_between(t0, t1));
    partition_s.push_back(seconds_between(t1, t2));
    total.push_back(seconds_between(t0, t3));
    d.classifier = std::move(clf);
  }
  d.setup_s = median(total);
  d.build_s = median(build_s);
  d.partition_s = median(partition_s);
  return d;
}

struct Phase {
  std::vector<double> rep_ns_per_frame;
  WindowedSamples batch_us{Clock::now()};
  std::uint64_t frames = 0;
  double run_ns = 0.0;
  double source_ns = 0.0;
  double classify_ns = 0.0;
  std::vector<double> classify_us;
  rfipc::runtime::StatsSnapshot before;
  rfipc::runtime::StatsSnapshot after;
};

/// One repetition: `passes` passes through a fresh source and loop.
/// Returns false (and records why) when the loop's verdict counters
/// disagree with the oracle.
bool run_rep(const rfipc::ruleset::RuleSet& rules, const Trace& trace,
             std::uint64_t passes, const rfipc::engines::ClassifierEngine& engine,
             bool spans, Phase& phase, Result& r) {
  rfipc::net::PcapFile copy = trace.pcap;
  PcapReplaySource src(std::move(copy), {.rings = 1, .loops = passes});
  StampedSource stamped(src, spans, phase.batch_us);
  CaptureLoop loop(stamped, engine, rules, {.batch_size = kBatch});
  const Clock::time_point t0 = Clock::now();
  const std::uint64_t frames = loop.run();
  const double ns = ns_between(t0, Clock::now());
  phase.frames += frames;
  phase.run_ns += ns;
  phase.source_ns += stamped.source_ns();
  phase.rep_ns_per_frame.push_back(ns / static_cast<double>(frames));

  const auto t = loop.counters().total();
  const std::uint64_t want_frames = passes * trace.order.size();
  if (t.frames != want_frames || t.forwarded != passes * trace.forward ||
      t.dropped != passes * trace.drop || t.parse_failures != 0 || t.overruns != 0) {
    r.fail_check("inline verdict counters: frames " + std::to_string(t.frames) + "/" +
                 std::to_string(want_frames) + " forwarded " +
                 std::to_string(t.forwarded) + "/" +
                 std::to_string(passes * trace.forward) + " dropped " +
                 std::to_string(t.dropped) + "/" + std::to_string(passes * trace.drop) +
                 " parse failures " + std::to_string(t.parse_failures));
    return false;
  }
  return true;
}

/// Runs repetitions for `seconds` (at least one). `spans` times the
/// classifier in situ; `check_frames` compares every frame's answer with
/// the oracle's, which only the untimed warm-up does.
/// The repetitions rotate over the thread's CPUs (CpuRotation).
void run_phase(const rfipc::ruleset::RuleSet& rules, const Trace& trace,
               std::uint64_t passes, const ShardedClassifier& clf, bool spans,
               bool check_frames, double seconds, Phase& phase, Result& r) {
  SpannedEngine spanned(clf, check_frames ? &trace.best : nullptr);
  const rfipc::engines::ClassifierEngine& engine =
      spans || check_frames ? static_cast<const rfipc::engines::ClassifierEngine&>(spanned)
                            : clf;
  phase.before = clf.stats_snapshot();
  const Clock::time_point start = Clock::now();
  phase.batch_us = WindowedSamples(start, kLatencyWindowSeconds);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  CpuRotation rotation;
  do {
    rotation.tick();
    if (!run_rep(rules, trace, passes, engine, spans, phase, r)) break;
  } while (Clock::now() < end);
  phase.batch_us.finish(Clock::now());
  phase.after = clf.stats_snapshot();
  phase.classify_ns = spanned.total_ns();
  phase.classify_us = spanned.spans_us();
  if (!check_frames) return;
  r.note("frames_checked", static_cast<double>(spanned.checked()));
  if (spanned.checked() != phase.frames || spanned.mismatches() != 0) {
    r.fail_check("inline per-frame oracle: " + std::to_string(spanned.mismatches()) +
                 " of " + std::to_string(spanned.checked()) +
                 " answers disagree with first_match (" + std::to_string(phase.frames) +
                 " frames replayed)");
  }
}

/// Parse and pack alone over one pass of the trace, batch by batch;
/// returns the packed headers for the engine isolation passes.
std::vector<rfipc::net::HeaderBits> isolate_parse_pack(const Trace& trace,
                                                      double& parse_ns,
                                                      double& pack_ns, Result& r) {
  const std::size_t n = trace.pcap.records.size();
  std::vector<rfipc::net::ParsedPacket> parsed(n);
  std::vector<rfipc::net::HeaderBits> packed(n);
  parse_ns = 0.0;
  pack_ns = 0.0;
  for (std::size_t b = 0; b < n; b += kBatch) {
    const std::size_t e = std::min(n, b + kBatch);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = b; i < e; ++i) {
      parsed[i] = rfipc::net::parse_frame(trace.pcap.records[i].frame,
                                          trace.pcap.link_type);
    }
    const Clock::time_point t1 = Clock::now();
    for (std::size_t i = b; i < e; ++i) packed[i] = rfipc::net::HeaderBits(parsed[i].tuple);
    const Clock::time_point t2 = Clock::now();
    parse_ns += ns_between(t0, t1);
    pack_ns += ns_between(t1, t2);
  }
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < n; ++i) wrong += !(packed[i] == trace.headers[i]);
  if (wrong != 0) {
    r.fail_check("parse/pack isolation: " + std::to_string(wrong) +
                 " frames decoded to the wrong header");
  }
  parse_ns /= static_cast<double>(n);
  pack_ns /= static_cast<double>(n);
  return packed;
}

void check_hit_band(Traffic traffic, double ratio, Result& r) {
  const bool ok = traffic == Traffic::kSkewed ? ratio >= 0.9 : ratio <= 0.05;
  r.note("flow.hit_ratio_band", ok ? "ok" : "violated");
  r.note("flow.hit_ratio", ratio);
}

}  // namespace

Result run_inline(Traffic traffic, const RunOptions& opts) {
  Result r;
  const rfipc::ruleset::RuleSet rules = make_rules(opts.seed);
  const Trace trace = make_trace(rules, traffic, opts.seed);
  const std::uint64_t passes = passes_for(traffic);
  Deployment d = build(rules, trace, passes);
  if (opts.setup_only) {
    r.set("setup_s", d.setup_s, "s");
    return r;
  }
  const ShardedClassifier& clf = *d.classifier;

  Phase warm;  // one repetition, every frame checked
  run_phase(rules, trace, passes, clf, false, true, 0.0, warm, r);

  const double measured = opts.trace ? opts.seconds / 2 : opts.seconds;
  Phase u;
  const CpuTicks ticks0 = cpu_ticks();
  run_phase(rules, trace, passes, clf, false, false, measured, u, r);
  r.note("host_steal_frac", steal_share(ticks0, cpu_ticks()));
  r.attempted = u.frames;
  r.failed = 0;  // replay never overruns; a wrong verdict fails the run instead
  // Frames over the whole measured time: when the host's speed changes
  // during the run, this moves in proportion, where the median over
  // repetitions would jump between the speeds.
  const double mpps = 1e3 * static_cast<double>(u.frames) / u.run_ns;
  r.note("measured_s", u.run_ns / 1e9);
  r.note("rep_median_mpps", 1e3 / median(u.rep_ns_per_frame));
  const double ratio = hit_ratio(u.before, u.after);
  check_hit_band(traffic, ratio, r);
  r.note("repetitions", static_cast<double>(u.rep_ns_per_frame.size()));
  r.note("frames_per_repetition", static_cast<double>(passes * trace.order.size()));
  r.note("classifier", clf.name());
  r.note("lanes", static_cast<double>(clf.stats_snapshot().workers.size() + 1));

  if (!opts.trace) {
    add_end_to_end(r, mpps, u.batch_us.mean_p50(), u.batch_us.mean_p90(),
                   u.batch_us.median_tail(), d.setup_s);
    return r;
  }

  Phase t;
  run_phase(rules, trace, passes, clf, true, false, measured, t, r);
  double parse_ns = 0.0;
  double pack_ns = 0.0;
  const auto packed = isolate_parse_pack(trace, parse_ns, pack_ns, r);
  const EngineIsolation iso = isolate_engines(packed, clf);

  // The decomposition works on means, so that the parts add up.
  const double frames = static_cast<double>(t.frames);
  const double t_ns = t.run_ns / frames;
  const double u_mean_ns = u.run_ns / static_cast<double>(u.frames);
  const double source = t.source_ns / frames;
  const double classify = t.classify_ns / frames;
  // The share of the traced phase's packets that reached the engines.
  const double miss_share = 1.0 - hit_ratio(t.before, t.after);
  const double batches = static_cast<double>(u.after.batches - u.before.batches);
  double parks = 0.0;
  double stalls = 0.0;
  worker_deltas(u.before, u.after, parks, stalls);
  const double residual = t_ns - source - classify - parse_ns - pack_ns;

  add_layer_defaults(r);
  r.set("verdict_mpps", mpps, "Mpkt/s");
  r.set("failed_frac", 0.0, "frac");
  r.set("capture.source_ns_per_pkt", source, "ns");
  r.set("net.parse_ns_per_pkt", parse_ns, "ns");
  r.set("net.pack_ns_per_pkt", pack_ns, "ns");
  r.set("flow.probe_ns_per_pkt", iso.probe_ns, "ns");
  r.set("flow.hit_ratio", ratio, "frac");
  r.set("flow.evictions_per_kpkt",
        static_cast<double>(u.after.cache_evictions - u.before.cache_evictions) /
            (static_cast<double>(u.frames) / 1e3),
        "count");
  r.set("engines.bands_ns_per_pkt", iso.bands_ns, "ns");
  r.set("engines.slowest_band_ns_per_pkt", iso.slowest_band_ns, "ns");
  r.set("runtime.classify_ns_per_pkt", classify, "ns");
  r.set("runtime.batch_p99_us", tail_of(t.classify_us).value, "us");
  r.note("runtime.batch_p99_us", tail_of(t.classify_us));
  r.set("runtime.fanout_ns_per_pkt", classify - iso.probe_ns - iso.bands_ns * miss_share,
        "ns");
  r.set("runtime.parks_per_batch", batches > 0 ? parks / batches : 0.0, "count");
  r.set("runtime.ring_stalls_per_batch", batches > 0 ? stalls / batches : 0.0, "count");
  r.set("capture.residual_ns_per_pkt", residual, "ns");
  r.set("engines.build_s", d.build_s, "s");
  r.set("capture.partition_s", d.partition_s, "s");
  r.set("engines.bytes_per_rule",
        static_cast<double>(clf.memory_bytes()) / static_cast<double>(clf.rule_count()),
        "B");
  r.set("trace.overhead_frac", (t_ns - u_mean_ns) / u_mean_ns, "frac");
  r.set("trace.unattributed_frac", residual / t_ns, "frac");
  r.note("untraced_ns_per_pkt", u_mean_ns);
  r.note("traced_ns_per_pkt", t_ns);
  r.note("miss_share", miss_share);
  return r;
}

}  // namespace perfbench
