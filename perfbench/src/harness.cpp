#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <iomanip>
#include <numeric>
#include <ostream>
#include <queue>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;  // the last one: CPU 0 takes most interrupts
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---- host-speed calibration -------------------------------------------------

namespace {

/// The reference computation: a fixed mix of the kinds of work the library
/// does — dense elimination, sorting, hashing, number formatting and
/// parsing, an event heap — on inputs that never change. Returns a value
/// derived from every part so none of it is optimised away.
double reference_work() {
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  double sink = 0.0;

  constexpr int n = 64;
  std::vector<double> a(n * n);
  for (auto& v : a) v = static_cast<double>(next() % 1000) / 1000.0;
  for (int i = 0; i < n; ++i) a[i * n + i] += n;
  for (int k = 0; k < n; ++k) {
    for (int i = k + 1; i < n; ++i) {
      const double f = a[i * n + k] / a[k * n + k];
      for (int j = k; j < n; ++j) a[i * n + j] -= f * a[k * n + j];
    }
  }
  sink += a[n * n - 1];

  std::vector<double> keys(1 << 13);
  for (auto& v : keys) v = static_cast<double>(next() % 1000000);
  std::sort(keys.begin(), keys.end());
  sink += keys[keys.size() / 2];

  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  for (std::uint64_t i = 0; i < 8192; ++i) counts[next() % 12288] += i;
  for (int i = 0; i < 8192; ++i) {
    const auto it = counts.find(next() % 12288);
    if (it != counts.end()) sink += static_cast<double>(it->second);
  }

  std::string text;
  for (int i = 0; i < 1024; ++i) {
    text += "task " + std::to_string(i) + " " +
            std::to_string(static_cast<double>(next() % 10000) / 7.0) + "\n";
  }
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t end = text.find('\n', pos);
    const std::size_t space = text.rfind(' ', end);
    sink += std::strtod(text.c_str() + space + 1, nullptr);
    pos = end + 1;
  }

  using Event = std::pair<double, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  for (std::uint32_t i = 0; i < 4096; ++i) {
    events.emplace(static_cast<double>(next() % 100000), i);
  }
  for (int i = 0; i < 8192; ++i) {
    const Event e = events.top();
    events.pop();
    events.emplace(e.first + static_cast<double>(next() % 1000), e.second);
  }
  sink += events.top().first;
  return sink;
}

}  // namespace

void HostSpeed::sample(int times) {
  static volatile double sink = 0.0;
  for (int i = 0; i < times; ++i) {
    const auto t0 = Clock::now();
    sink = sink + reference_work();
    const auto t1 = Clock::now();
    ms_.push_back(ms_between(t0, t1));
    if (!in_setup_) run_spent_s_ += ms_between(t0, t1) / 1000.0;
    last_ = t1;
  }
}

void HostSpeed::maybe_sample() {
  if (Clock::now() >= after(last_, kEverySeconds)) sample();
}

void HostSpeed::end_setup() {
  setup_n_ = ms_.size();
  in_setup_ = false;
  last_ = Clock::now();
}

double HostSpeed::setup_slowdown() const {
  const std::vector<double> setup(ms_.begin(), ms_.begin() + static_cast<std::ptrdiff_t>(setup_n_));
  return setup.empty() ? 1.0 : median(setup) / kReferenceMs;
}

double HostSpeed::run_slowdown() const {
  const std::vector<double> run(ms_.begin() + static_cast<std::ptrdiff_t>(setup_n_), ms_.end());
  return run.empty() ? setup_slowdown() : median(run) / kReferenceMs;
}

void calibrate_times(Report& report, const HostSpeed& host) {
  const double setup = host.setup_slowdown();
  const double run = host.run_slowdown();
  std::ostringstream note;
  note << std::setprecision(6) << "host speed: reference median " << setup * HostSpeed::kReferenceMs
       << " ms in set-up, " << run * HostSpeed::kReferenceMs << " ms over "
       << host.run_samples() << " samples in the run (nominal " << HostSpeed::kReferenceMs
       << " ms); raw";
  for (auto& [name, m] : report.metrics) {
    if (name == "setup_s" || m.unit == "ms" || m.unit == "1/s") {
      note << " " << name << " " << m.value;
    }
    if (name == "setup_s") {
      m.value /= setup;
    } else if (m.unit == "ms") {
      m.value /= run;
    } else if (m.unit == "1/s") {
      m.value *= run;
    }
  }
  report.notes.push_back(note.str());
}

double cache_hit_ratio(const easched::frontier::CacheStats& before,
                       const easched::frontier::CacheStats& after) {
  const auto hits = (after.hits - before.hits) + (after.store_hits - before.store_hits);
  const auto lookups = hits + (after.misses - before.misses);
  return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
}

double histogram_delta_median(const easched::obs::Histogram::Snapshot& before,
                              const easched::obs::Histogram::Snapshot& after) {
  easched::obs::Histogram::Snapshot delta = after;
  delta.count = after.count - before.count;
  delta.sum = after.sum - before.sum;
  for (std::size_t i = 0; i < delta.buckets.size(); ++i) {
    delta.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  // The lifetime extremes still bound the window's observations.
  return delta.count == 0 ? 0.0 : delta.quantile(0.5);
}

// ---- tracing --------------------------------------------------------------

int Tracer::add(std::string name, int parent, std::uint64_t op, Clock::time_point start,
                Clock::time_point end) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::move(name), parent, op, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::begin(std::string name, int parent, std::uint64_t op) {
  if (!enabled_) return -1;
  const auto now = Clock::now();
  return add(std::move(name), parent, op, now, now);
}

void Tracer::end(int span) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].end = Clock::now();
}

std::map<std::string, std::vector<double>> Tracer::self_us() const {
  // Children of one span run one after another, so their covered part of
  // the parent is the sum of their durations clipped to the parent.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const auto lo = std::max(s.start, p.start);
    const auto hi = std::min(s.end, p.end);
    if (hi > lo) covered[static_cast<std::size_t>(s.parent)] += us_between(lo, hi);
  }
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name].push_back(std::max(0.0, us_between(s.start, s.end) - covered[i]));
  }
  return out;
}

std::map<std::string, std::vector<double>> Tracer::duration_us() const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) out[s.name].push_back(us_between(s.start, s.end));
  return out;
}

namespace {
void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}
}  // namespace

void Tracer::write_chrome_json(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  os << std::setprecision(12);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i != 0) os << ",";
    os << "\n{\"name\":";
    write_json_string(os, s.name);
    os << ",\"cat\":";
    write_json_string(os, s.name.substr(0, s.name.find('.')));
    os << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us_between(epoch_, s.start)
       << ",\"dur\":" << us_between(s.start, s.end) << ",\"args\":{\"span\":" << i
       << ",\"parent\":" << s.parent << ",\"op\":" << s.op
       << ",\"end_us\":" << us_between(epoch_, s.end) << "}}";
  }
  os << "\n]}\n";
}

// ---- reporting --------------------------------------------------------------

void Report::check_failed(const std::string& what) {
  correct = false;
  ++failed;
  if (mismatch.size() < 8) mismatch.push_back(what);
}

std::vector<std::vector<double>> windows_of(const std::vector<double>& samples,
                                            std::size_t size) {
  std::vector<std::vector<double>> out;
  for (std::size_t begin = 0; begin < samples.size(); begin += size) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(begin);
    if (!out.empty() && samples.size() - begin < size) {
      out.back().insert(out.back().end(), first, samples.end());
    } else {
      out.emplace_back(first, first + static_cast<std::ptrdiff_t>(std::min(size, samples.size() - begin)));
    }
  }
  return out;
}

LatencySummary summarize_latency(const std::vector<std::vector<double>>& windows_ms,
                                 double tail_q) {
  LatencySummary s;
  s.tail_q = tail_q;
  s.windows = windows_ms.size();
  std::vector<double> all, tails;
  s.beyond_tail = windows_ms.empty() ? 0 : static_cast<std::size_t>(-1);
  for (const auto& window : windows_ms) {
    all.insert(all.end(), window.begin(), window.end());
    const double tail = percentile(window, tail_q);
    tails.push_back(tail);
    s.beyond_tail = std::min<std::size_t>(
        s.beyond_tail, static_cast<std::size_t>(std::count_if(
                           window.begin(), window.end(), [&](double v) { return v > tail; })));
  }
  s.samples = all.size();
  s.p50_ms = median(std::move(all));
  s.tail_ms = median(std::move(tails));
  return s;
}

void report_latency(Report& report, const LatencySummary& s) {
  report.set("latency_p50_ms", s.p50_ms, "ms");
  report.set("latency_tail_ms", s.tail_ms, "ms");
  std::ostringstream note;
  note << "latency_p50_ms is the median of " << s.samples << " samples; latency_tail_ms is p"
       << s.tail_q;
  if (s.windows > 1) note << " of each of " << s.windows << " windows, median window,";
  note << " with at least " << s.beyond_tail << " samples beyond it";
  if (s.beyond_tail < 10) note << " -- fewer than 10: the tail is unresolved";
  report.notes.push_back(note.str());
}

void zero_layer_metrics(Report& report) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"serve.decode_us", "us"},
      {"serve.encode_us", "us"},
      {"graph.parse_us", "us"},
      {"graph.dag_bytes", "bytes"},
      {"sched.list_schedule_us", "us"},
      {"api.digest_us", "us"},
      {"frontier.cache_probe_us", "us"},
      {"frontier.cache_hit_ratio", "ratio"},
      {"serve.unaccounted_us", "us"},
      {"serve.open_loop_tail_ms", "ms"},
      {"api.solve_us.continuous-ipm", "us"},
      {"api.solve_us.discrete-greedy", "us"},
      {"api.solve_us.vdd-lp", "us"},
      {"api.solve_us.best-of", "us"},
      {"api.solver_calls", "count"},
      {"frontier.probes_per_sweep", "count"},
      {"frontier.round_ms", "ms"},
      {"store.put_us", "us"},
      {"store.bytes_per_entry", "bytes"},
      {"store.appended", "count"},
      {"engine.submit_us", "us"},
      {"engine.queue_wait_ms", "ms"},
      {"engine.job_ms", "ms"},
      {"sim.make_trace_us", "us"},
      {"sim.replay_us.static-edf", "us"},
      {"sim.replay_us.cc-edf", "us"},
      {"sim.replay_us.la-edf", "us"},
      {"sim.replay_us.sleep-edf", "us"},
      {"sim.oracle_us", "us"},
      {"sim.jobs_per_stream", "count"},
      {"sim.freq_transitions", "count"},
      {"client.send_lag_ms", "ms"},
      {"obs.trace_overhead_pct", "%"},
  };
  for (const auto& [name, unit] : kLayers) report.set(name, 0.0, unit);
}

void note_self_times(Report& report, const Tracer& tracer) {
  const auto self = tracer.self_us();
  const auto total = tracer.duration_us();
  for (const auto& [name, values] : self) {
    std::ostringstream line;
    line << std::fixed << std::setprecision(2) << "self-time " << name << ": median "
         << median(values) << " us self, " << median(total.at(name)) << " us total, "
         << values.size() << " spans";
    report.notes.push_back(line.str());
  }
}

}  // namespace perfbench
