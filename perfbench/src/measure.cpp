#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "util/simd.h"

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  if (q <= 0.0) return samples.front();
  if (q >= 1.0) return samples.back();
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = lo + 1 < samples.size() ? lo + 1 : lo;
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double tail_q(std::size_t n) {
  if (n == 0) return 0.5;
  const double q = 1.0 - 10.0 / static_cast<double>(n);
  return std::clamp(q, 0.5, 0.99);
}

Percentile tail_of(const std::vector<double>& samples) {
  const double q = tail_q(samples.size());
  return Percentile{quantile(samples, q), q, samples.size()};
}

double median(const std::vector<double>& samples) { return quantile(samples, 0.5); }

void WindowedSamples::add(Clock::time_point t, double value) {
  // A sample a concurrent recorder stamped just before the window turned
  // joins the current window.
  const long idx = static_cast<long>(seconds_between(origin_, t) / window_s_);
  if (idx > index_) {
    close_window();
    index_ = idx;
  }
  current_.push_back(value);
}

void WindowedSamples::finish(Clock::time_point end) {
  if (static_cast<double>(index_ + 1) * window_s_ <= seconds_between(origin_, end)) {
    close_window();
  }
  current_.clear();
  index_ = -1;
}

void WindowedSamples::close_window() {
  if (current_.empty() || index_ < 0) {
    current_.clear();
    return;
  }
  const Percentile tail = tail_of(current_);
  indices_.push_back(index_);
  p50s_.push_back(quantile(current_, 0.5));
  p90s_.push_back(quantile(current_, 0.9));
  tails_.push_back(tail.value);
  qs_.push_back(tail.q);
  counts_.push_back(current_.size());
  current_.clear();
}

Percentile WindowedSamples::reduce(const std::vector<double>& per_window,
                                   const WindowMask& keep, double q, bool mean) const {
  const bool tail = q < 0.0;
  Percentile p{0.0, tail ? 1.0 : q, 0};
  std::vector<double> kept;
  for (std::size_t i = 0; i < per_window.size(); ++i) {
    const auto w = static_cast<std::size_t>(indices_[i]);
    if (!keep.empty() && (w >= keep.size() || !keep[w])) continue;
    kept.push_back(per_window[i]);
    p.samples += counts_[i];
    if (tail) p.q = std::min(p.q, qs_[i]);
  }
  if (kept.empty()) p.q = 0.0;
  if (!mean) {
    p.value = median(kept);
  } else if (!kept.empty()) {
    double sum = 0.0;
    for (const double v : kept) sum += v;
    p.value = sum / static_cast<double>(kept.size());
  }
  return p;
}

Percentile WindowedSamples::median_p50(const WindowMask& keep) const {
  return reduce(p50s_, keep, 0.5);
}

Percentile WindowedSamples::median_p90(const WindowMask& keep) const {
  return reduce(p90s_, keep, 0.9);
}

Percentile WindowedSamples::median_tail(const WindowMask& keep) const {
  return reduce(tails_, keep, -1.0);
}

Percentile WindowedSamples::mean_p50() const { return reduce(p50s_, {}, 0.5, true); }

Percentile WindowedSamples::mean_p90() const { return reduce(p90s_, {}, 0.9, true); }

void WindowedSamples::absorb(const WindowedSamples& other) {
  indices_.insert(indices_.end(), other.indices_.begin(), other.indices_.end());
  p50s_.insert(p50s_.end(), other.p50s_.begin(), other.p50s_.end());
  p90s_.insert(p90s_.end(), other.p90s_.begin(), other.p90s_.end());
  tails_.insert(tails_.end(), other.tails_.begin(), other.tails_.end());
  qs_.insert(qs_.end(), other.qs_.begin(), other.qs_.end());
  counts_.insert(counts_.end(), other.counts_.begin(), other.counts_.end());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuTicks cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double steal_share(const CpuTicks& a, const CpuTicks& b) {
  if (b.total <= a.total || b.steal < a.steal) return 0.0;
  return static_cast<double>(b.steal - a.steal) / static_cast<double>(b.total - a.total);
}

void StealWindows::pace_until(Clock::time_point end) {
  if (shares_.empty()) first_ = last_ = cpu_ticks();
  for (;;) {
    const auto boundary =
        origin_ + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                      window_s_ * static_cast<double>(shares_.size() + 1)));
    if (boundary > end) break;
    std::this_thread::sleep_until(boundary);
    const CpuTicks now = cpu_ticks();
    shares_.push_back(steal_share(last_, now));
    last_ = now;
  }
  std::this_thread::sleep_until(end);
}

WindowMask quiet_windows(const std::vector<double>& shares, double quiet_share,
                         std::size_t min_kept) {
  WindowMask keep(shares.size(), false);
  std::size_t kept = 0;
  for (std::size_t w = 0; w < shares.size(); ++w) {
    keep[w] = shares[w] <= quiet_share;
    kept += keep[w];
  }
  if (kept >= min_kept) return keep;
  std::vector<std::size_t> order(shares.size());
  for (std::size_t w = 0; w < order.size(); ++w) order[w] = w;
  std::stable_sort(order.begin(), order.end(),
                   [&shares](std::size_t a, std::size_t b) { return shares[a] < shares[b]; });
  for (std::size_t i = 0; i < order.size() && i < min_kept; ++i) keep[order[i]] = true;
  return keep;
}

double StealWindows::total_share() const { return steal_share(first_, last_); }

std::string StealWindows::summary() const {
  const WindowMask keep = quiet();
  std::size_t kept = 0;
  double worst = 0.0;
  for (std::size_t w = 0; w < keep.size(); ++w) {
    if (!keep[w]) continue;
    ++kept;
    worst = std::max(worst, shares_[w]);
  }
  char buf[128];
  std::snprintf(buf, sizeof buf, "kept %zu of %zu windows, max steal %.4f%s", kept,
                keep.size(), worst, worst > kQuietShare ? ", floor admitted stolen windows" : "");
  return buf;
}

namespace {

std::string fmt_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string string_map_json(const std::map<std::string, std::string>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ", ";
    first = false;
    out += quoted(k) + ": " + quoted(v);
  }
  return out + "}";
}

}  // namespace

void Result::note(const std::string& key, double value) {
  detail[key] = fmt_number(value);
}

void Result::note(const std::string& key, const Percentile& p) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "q=%.4f n=%zu", p.q, p.samples);
  detail[key] = buf;
}

void add_layer_defaults(Result& r) {
  static const char* const kLayers[][2] = {
      // The workload's own end-to-end figures under their specific names.
      {"verdict_mpps", "Mpkt/s"},
      {"wire_mpps", "Mpkt/s"},
      {"wire_rtt_p50_us", "us"},
      {"wire_rtt_p99_us", "us"},
      {"update_kups", "kupd/s"},
      {"update_ack_p50_us", "us"},
      {"update_ack_p99_us", "us"},
      {"failed_frac", "frac"},
      // Packet path.
      {"capture.source_ns_per_pkt", "ns"},
      {"net.parse_ns_per_pkt", "ns"},
      {"net.pack_ns_per_pkt", "ns"},
      {"flow.probe_ns_per_pkt", "ns"},
      {"flow.hit_ratio", "frac"},
      {"flow.evictions_per_kpkt", "count"},
      {"flow.invalidations_per_kupd", "count"},
      {"engines.bands_ns_per_pkt", "ns"},
      {"engines.slowest_band_ns_per_pkt", "ns"},
      {"runtime.classify_ns_per_pkt", "ns"},
      {"runtime.batch_p99_us", "us"},
      {"runtime.fanout_ns_per_pkt", "ns"},
      {"runtime.parks_per_batch", "count"},
      {"runtime.ring_stalls_per_batch", "count"},
      {"capture.residual_ns_per_pkt", "ns"},
      // Wire path.
      {"server.codec_ns_per_req", "ns"},
      {"server.transport_us_per_req", "us"},
      {"server.bytes_per_pkt", "B"},
      {"server.shed_frac", "frac"},
      // Update path.
      {"runtime.publish_us", "us"},
      {"persist.append_us", "us"},
      {"server.ack_tail_us", "us"},
      {"runtime.ops_per_swap", "count"},
      {"persist.ops_per_append", "count"},
      {"persist.fsyncs_per_op", "count"},
      {"persist.bytes_per_op", "B"},
      // Set-up and footprint.
      {"engines.build_s", "s"},
      {"persist.seed_s", "s"},
      {"capture.partition_s", "s"},
      {"engines.bytes_per_rule", "B"},
      // Trace quality.
      {"trace.overhead_frac", "frac"},
      {"trace.unattributed_frac", "frac"},
  };
  for (const auto& [name, unit] : kLayers) r.set(name, 0.0, unit);
}

void add_end_to_end(Result& r, double throughput_mpps, const Percentile& p50,
                    const Percentile& p90, const Percentile& tail, double setup_s) {
  r.set("throughput_mpps", throughput_mpps, "Mpkt/s");
  r.set("latency_p50_us", p50.value, "us");
  r.set("latency_p90_us", p90.value, "us");
  r.set("setup_s", setup_s, "s");
  r.set("peak_rss_mib", peak_rss_mib(), "MiB");
  r.note("latency_p50_us", p50);
  r.note("latency_p90_us", p90);
  r.note("latency_tail_us", tail);
  r.note("latency_tail_us_value", tail.value);
}

std::string sanitizer_name() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#elif __has_feature(undefined_behavior_sanitizer)
  return "undefined";
#else
  return "";
#endif
#else
  return "";
#endif
}

std::map<std::string, std::string> host_stamp() {
  std::map<std::string, std::string> m;
  m["nproc"] = std::to_string(std::thread::hardware_concurrency());
  m["simd"] = rfipc::util::simd::active_name();
  m["build_type"] = PERFBENCH_BUILD_TYPE;
  m["compiler"] = __VERSION__;
  const std::string san = sanitizer_name();
  m["sanitizer"] = san.empty() ? "none" : san;
  return m;
}

std::string result_json(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted < 1 ? 1 : r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) out += ", ";
    first = false;
    out += quoted(name) + ": {\"value\": " + fmt_number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}}";
}

std::string detail_json(const std::string& workload, std::uint64_t seed,
                        const Result& r) {
  std::string out = "{\"workload\": " + quoted(workload) +
                    ", \"seed\": " + std::to_string(seed) +
                    ", \"host\": " + string_map_json(host_stamp()) +
                    ", \"detail\": " + string_map_json(r.detail) + ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(r.errors[i]);
  }
  return out + "]}";
}

}  // namespace perfbench
