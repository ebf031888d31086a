// Measurement primitives of the benchmark: the clock, percentiles from
// raw samples, the metric record every workload fills, and the host and
// build stamp printed beside every result.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// q-quantile (q in [0, 1]) of `samples` by linear interpolation
/// between closest ranks (numpy's default). Sorts a copy; 0 when empty.
double quantile(std::vector<double> samples, double q);

/// The tail quantile a sample of `n` supports: 0.99 when at least ten
/// samples lie beyond it, otherwise the highest q with ten beyond
/// (q = 1 - 10/n), never below the median.
double tail_q(std::size_t n);

/// A percentile as reported: its value, the quantile actually used and
/// the sample count behind it.
struct Percentile {
  double value = 0.0;
  double q = 0.0;
  std::size_t samples = 0;
};
Percentile tail_of(const std::vector<double>& samples);

double median(const std::vector<double>& samples);

/// Which measurement windows to report, by window index (see
/// StealWindows). An empty mask keeps every window.
using WindowMask = std::vector<bool>;

/// Streams timed samples into fixed windows of `window_s` seconds from
/// `origin`. Each finished window is reduced to its median and tail
/// percentile and its samples are dropped, so memory stays bounded and
/// a burst of interference moves one window, not the reported median
/// over windows. A window the phase ended inside is discarded.
class WindowedSamples {
 public:
  static constexpr double kWindowSeconds = 2.0;

  explicit WindowedSamples(Clock::time_point origin, double window_s = kWindowSeconds)
      : origin_(origin), window_s_(window_s) {}

  /// A sample completed at `t`.
  void add(Clock::time_point t, double value);
  /// Closes the window in progress if it lies wholly before `end`.
  void finish(Clock::time_point end);

  /// Median over the windows `keep` admits of each window's median,
  /// p90 or tail percentile; q and samples describe the quantile (the
  /// smallest tail quantile) and the sample count of those windows.
  Percentile median_p50(const WindowMask& keep = {}) const;
  Percentile median_p90(const WindowMask& keep = {}) const;
  Percentile median_tail(const WindowMask& keep = {}) const;
  /// Mean over every finished window of each window's median or p90.
  /// When the host alternates between two speeds, the mean moves in
  /// proportion to the time spent in each; the median over windows
  /// jumps from one speed to the other.
  Percentile mean_p50() const;
  Percentile mean_p90() const;
  std::size_t windows() const { return p50s_.size(); }
  /// Merges another stream's finished windows (e.g. one per connection).
  void absorb(const WindowedSamples& other);

 private:
  void close_window();
  /// `q` < 0 reduces the tails, reporting the smallest tail quantile.
  /// `mean` averages the kept windows instead of taking their median.
  Percentile reduce(const std::vector<double>& per_window, const WindowMask& keep,
                    double q, bool mean = false) const;

  Clock::time_point origin_;
  double window_s_;
  long index_ = -1;
  std::vector<double> current_;
  // Per finished window: its index, median, p90, tail, tail quantile,
  // samples.
  std::vector<long> indices_;
  std::vector<double> p50s_;
  std::vector<double> p90s_;
  std::vector<double> tails_;
  std::vector<double> qs_;
  std::vector<std::size_t> counts_;
};

/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// Host CPU time as /proc/stat counts it, all CPUs, in clock ticks.
/// `steal` is time the hypervisor ran something else on our vCPUs.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks cpu_ticks();
/// Share of CPU time stolen between two readings (0 when unknown).
double steal_share(const CpuTicks& a, const CpuTicks& b);

/// The windows to report given each window's steal share: those with at
/// most `quiet_share` stolen, or the `min_kept` least stolen (earliest
/// first among equals) when fewer qualify.
WindowMask quiet_windows(const std::vector<double>& shares, double quiet_share,
                         std::size_t min_kept);

/// Host CPU steal per measurement window. On a shared guest the
/// hypervisor deschedules vCPUs; a round trip that needs a descheduled
/// vCPU lands milliseconds late, so a window's tail latency and
/// throughput track its steal. The thread that paces a phase reads
/// /proc/stat at every window boundary; the report then keeps only the
/// quiet windows.
class StealWindows {
 public:
  /// A window is quiet when at most this share of its CPU time was stolen.
  static constexpr double kQuietShare = 0.025;
  /// Fewer quiet windows than this: keep this many least-stolen ones.
  static constexpr std::size_t kMinKept = 8;

  StealWindows(Clock::time_point origin, double window_s)
      : origin_(origin), window_s_(window_s) {}

  /// Sleeps until `end`, reading the steal of every window that closes
  /// before it.
  void pace_until(Clock::time_point end);

  /// quiet_windows() over the windows read so far; a window never read
  /// is dropped.
  WindowMask quiet() const { return quiet_windows(shares_, kQuietShare, kMinKept); }
  std::size_t windows() const { return shares_.size(); }
  /// The whole paced span's steal share.
  double total_share() const;
  /// Kept windows, the largest steal share among them, and whether the
  /// kMinKept floor had to admit windows above kQuietShare.
  std::string summary() const;

 private:
  Clock::time_point origin_;
  double window_s_;
  std::vector<double> shares_;
  CpuTicks first_{};
  CpuTicks last_{};
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run of one workload reports.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Printed in the contract line (end-to-end, or per-layer when traced).
  std::map<std::string, Metric> metrics;
  /// Printed on the detail line: sample counts, quantiles used, the
  /// oracle's findings, anything that explains the metrics.
  std::map<std::string, std::string> detail;
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& key, const std::string& value) { detail[key] = value; }
  void note(const std::string& key, double value);
  /// Records a percentile's quantile and sample count under `key`.
  void note(const std::string& key, const Percentile& p);
  void fail_check(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
};

/// Sets every per-layer metric to 0 with its unit: a traced run emits
/// all of them, and a layer the workload never touches reads 0.
void add_layer_defaults(Result& r);

/// The end-to-end set of one untraced run. The tail percentile goes on
/// the detail line; the gated tail is the p90 (see perfbench/DESIGN.md).
void add_end_to_end(Result& r, double throughput_mpps, const Percentile& p50,
                    const Percentile& p90, const Percentile& tail, double setup_s);

/// nproc, the active SIMD kernel, build type, compiler and sanitizer.
std::map<std::string, std::string> host_stamp();
/// Non-empty when this binary was built with a sanitizer.
std::string sanitizer_name();

/// The single-line JSON objects scripts and readers consume.
std::string result_json(const Result& r);
std::string detail_json(const std::string& workload, std::uint64_t seed,
                        const Result& r);

}  // namespace perfbench
