#pragma once
// Shared machinery of the repository benchmark: arguments, timing and
// percentile helpers, the span recorder behind the traced run, host
// stamping and the report every workload fills in.
//
// Spans are recorded here, in the benchmark's own files, around calls
// into the library's public functions — the library itself carries no
// benchmark tracing.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "frontier/cache.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< traces, reports and scratch files go here
};

/// Linear-interpolated percentile, q in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Engine pool size of every workload. The run is pinned to one CPU
/// (pin_to_one_cpu), so more workers would only take turns on it.
constexpr std::size_t kEngineThreads = 1;

/// Pins the process, and every thread it starts later, to one CPU of its
/// affinity mask: on a shared host the share of several cores a process
/// gets swings from run to run, while one core's speed holds steady.
/// Returns the CPU, or -1 when pinning failed.
int pin_to_one_cpu();

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// Host-speed calibration. The speed a shared VM gives the run drifts by
/// tens of percent over minutes (neighbours on the host's cores), and no
/// median inside a run removes that. So every workload also runs a fixed
/// reference computation — benchmark code only, nothing from the library —
/// between its ops, and the end-to-end times are reported at the
/// reference speed: divided by the median reference time over
/// kReferenceMs, rates multiplied by it. A change to the library moves the
/// ops, never the reference; the raw figures are printed as notes.
class HostSpeed {
 public:
  /// Fixed scale: about the reference's median on the host the benchmark
  /// was tuned on (Intel Xeon, 4-vCPU VM, GCC 12 Release; 3.1 to 4.6 ms
  /// from run to run), so calibrated figures read close to raw ones there.
  static constexpr double kReferenceMs = 4.0;
  /// Calibration cadence inside a measured phase.
  static constexpr double kEverySeconds = 0.25;
  /// Samples taken before each set-up and after the last one.
  static constexpr int kSetupSamples = 3;

  /// Runs the reference `times` times, now, and records each time.
  void sample(int times = 1);
  /// Samples when kEverySeconds have passed since the last sample; call
  /// it between ops.
  void maybe_sample();
  /// Ends the set-up phase: later samples describe the measured phase.
  void end_setup();

  /// Median reference time over kReferenceMs (above 1: a slower host)
  /// in the set-up phase and in the measured phase.
  double setup_slowdown() const;
  double run_slowdown() const;
  /// Seconds spent sampling in the measured phase, so far.
  double run_spent_s() const noexcept { return run_spent_s_; }
  std::size_t run_samples() const noexcept { return ms_.size() - setup_n_; }

 private:
  std::vector<double> ms_;
  std::size_t setup_n_ = 0;
  bool in_setup_ = true;
  double run_spent_s_ = 0.0;
  Clock::time_point last_{};
};

/// Share of the cache lookups between two stats snapshots that were
/// served without a solver (memory or store hits); 0 with no lookups.
double cache_hit_ratio(const easched::frontier::CacheStats& before,
                       const easched::frontier::CacheStats& after);

/// The median of a histogram's observations made between two snapshots
/// of the same series (the engine's histograms are lifetime-cumulative).
double histogram_delta_median(const easched::obs::Histogram::Snapshot& before,
                              const easched::obs::Histogram::Snapshot& after);

/// A timed interval in the traced run. `parent` is the index of the span
/// that caused it (-1 for an op's root); spans of one op share `op`.
struct Span {
  std::string name;
  int parent = -1;
  std::uint64_t op = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span store, written out as Chrome trace_event JSON when the
/// run ends. Disabled tracers record nothing and cost one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }

  /// Records a finished span; returns its index (or -1 when disabled).
  int add(std::string name, int parent, std::uint64_t op, Clock::time_point start,
          Clock::time_point end);
  /// Opens a span now; close it with end(). Returns -1 when disabled.
  int begin(std::string name, int parent, std::uint64_t op);
  void end(int span);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Per span name: the self time (duration minus the part covered by its
  /// children) of every span with that name, in microseconds.
  std::map<std::string, std::vector<double>> self_us() const;
  /// Per span name: durations in microseconds.
  std::map<std::string, std::vector<double>> duration_us() const;

  void write_chrome_json(std::ostream& os) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `metrics` holds the end-to-end set
/// (untraced run) or the per-layer set (traced run).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;     ///< human-readable detail lines
  std::vector<std::string> mismatch;  ///< first output-check failures

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts a failed output check: the op fails and the run is incorrect.
  void check_failed(const std::string& what);
};

/// Latency summary: the median of every sample, and the tail — the fixed
/// percentile `tail_q` of each window's samples, median over the windows
/// (one window: just the percentile). `beyond_tail` is the fewest samples
/// any window has above its tail.
struct LatencySummary {
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double tail_q = 0.0;
  std::size_t samples = 0;
  std::size_t windows = 0;
  std::size_t beyond_tail = 0;
};
/// Consecutive windows of `size` samples, in order; a shorter remainder
/// joins the last window.
std::vector<std::vector<double>> windows_of(const std::vector<double>& samples,
                                            std::size_t size);
LatencySummary summarize_latency(const std::vector<std::vector<double>>& windows_ms,
                                 double tail_q);
/// Sets latency_p50_ms / latency_tail_ms and notes the percentile used.
void report_latency(Report& report, const LatencySummary& s);

/// Sets the per-layer metrics every traced run reports, for the layers
/// the workload does not exercise, to 0 (no work in that layer); a
/// workload overwrites the ones it measures.
void zero_layer_metrics(Report& report);

/// Self-time summary lines of a traced run, one per span name.
void note_self_times(Report& report, const Tracer& tracer);

/// Reports the end-to-end times at the reference speed (see HostSpeed):
/// setup_s by the set-up phase's slowdown, every other "ms" metric by the
/// measured phase's, "1/s" rates multiplied by it. Notes the raw values.
void calibrate_times(Report& report, const HostSpeed& host);

Report run_serve_warm(const Args& args, Tracer& tracer, HostSpeed& host);
Report run_sweep_cold(const Args& args, Tracer& tracer, HostSpeed& host);
Report run_sim_corpus(const Args& args, Tracer& tracer, HostSpeed& host);

}  // namespace perfbench
