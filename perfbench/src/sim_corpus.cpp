// sim_corpus: online DVFS policies against the offline oracle.
//
// An op is one periodic arrival stream replayed under every policy with
// sim::run_policy_corpus, plus the stream's clairvoyant oracle solved
// through the engine. It is the only workload where the event queue and
// the policies do the work; no serve or store layer is involved.
//
// Checks: zero deadline misses on the periodic corpus, every policy's
// energy at least the oracle's, and, on a fixed subset of streams,
// bit-identical policy metrics between one thread and several. Traced
// run: half untraced, half traced; a traced op records the replay, trace
// generation and the oracle, and each cell is then replayed alone with
// sim::simulate_policy, one span per policy.

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "harness.hpp"
#include "sim/oracle.hpp"
#include "sim/policy.hpp"
#include "sim/simulator.hpp"
#include "sim/stream.hpp"

namespace perfbench {
namespace {

using namespace easched;

constexpr double kHorizon = 4000.0;
constexpr int kSetups = 5;
/// Oracle solves go through the engine cache, but no stream repeats: a
/// bounded cache keeps the run's memory flat instead of growing per op.
constexpr std::size_t kCacheEntries = 256;
constexpr std::size_t kStreams = 1 << 14;  ///< stream seeds generated in set-up
constexpr std::size_t kEnergyOps = 64;     ///< mean_energy covers the first streams
constexpr std::size_t kRecheckEvery = 16;  ///< multi-thread re-run of every n-th stream
constexpr std::size_t kCheckThreads = 4;   ///< thread count of that re-run
constexpr std::size_t kTailWindow = 250;  ///< streams per tail window
constexpr double kTailQ = 96.0;  ///< per window: leaves at least 10 streams beyond it
/// An oracle is a lower bound; its relaxation is solved to this accuracy.
constexpr double kRatioTol = 1e-9;

bool same_metrics(const sim::PolicyMetrics& x, const sim::PolicyMetrics& y) {
  return x.policy == y.policy && x.arrivals == y.arrivals && x.completions == y.completions &&
         x.deadline_misses == y.deadline_misses && x.freq_transitions == y.freq_transitions &&
         x.wakeups == y.wakeups && x.dynamic_energy == y.dynamic_energy &&
         x.static_energy == y.static_energy && x.wake_energy == y.wake_energy &&
         x.busy_time == y.busy_time && x.idle_time == y.idle_time &&
         x.sleep_time == y.sleep_time && x.span == y.span;
}

std::vector<std::uint64_t> stream_seeds(std::uint64_t seed) {
  common::Rng rng(seed ^ 0x51c0a9b7e5ULL);
  std::vector<std::uint64_t> seeds(kStreams);
  for (auto& s : seeds) s = rng.next_u64();
  return seeds;
}

/// One op's outputs.
struct StreamResult {
  std::vector<sim::PolicyMetrics> policies;
  sim::OracleReport oracle;
  std::size_t jobs = 0;
};

/// Checks one stream; false (and counted) on a miss, a ratio below 1 or
/// an oracle that cannot meet the window at fmax.
bool check_stream(const StreamResult& r, std::size_t op, Report& report) {
  const auto fail = [&](const std::string& what) {
    report.check_failed("stream " + std::to_string(op) + ": " + what);
    return false;
  };
  if (!r.oracle.feasible_at_fmax) return fail("oracle infeasible at fmax");
  for (const auto& m : r.policies) {
    if (m.deadline_misses != 0) return fail(m.policy + " missed deadlines");
    if (m.total_energy() < r.oracle.energy * (1.0 - kRatioTol)) {
      std::ostringstream what;
      what.precision(17);
      what << m.policy << " energy " << m.total_energy() << " below the oracle's "
           << r.oracle.energy;
      return fail(what.str());
    }
  }
  return true;
}

}  // namespace

Report run_sim_corpus(const Args& args, Tracer& tracer, HostSpeed& host) {
  Report report;
  const auto classes = sim::default_task_classes(/*periodic=*/true);
  const auto& policies = sim::policy_names();
  const sim::SimConfig config;

  std::unique_ptr<engine::Engine> engine;
  std::vector<std::uint64_t> seeds;
  std::vector<double> setup_s;
  for (int s = 0; s < kSetups; ++s) {
    engine.reset();
    host.sample(HostSpeed::kSetupSamples);
    const auto t0 = Clock::now();
    seeds = stream_seeds(args.seed);
    engine::EngineConfig cfg;
    cfg.threads = kEngineThreads;
    cfg.cache_max_entries = kCacheEntries;
    auto created = engine::Engine::create(cfg);
    if (!created.is_ok()) {
      report.check_failed("engine: " + created.status().to_string());
      return report;
    }
    engine = std::make_unique<engine::Engine>(std::move(created).take());
    // Warm-up: two streams outside the measured seeds.
    for (std::uint64_t w = 0; w < 2; ++w) {
      const std::uint64_t warm_seed = ~seeds[w];
      (void)sim::run_policy_corpus(classes, 1, kHorizon, warm_seed, policies, config, nullptr,
                                   kEngineThreads);
      const auto oracle =
          sim::oracle_baseline(sim::make_trace(classes, kHorizon, warm_seed, 0), config, *engine);
      if (!oracle.is_ok()) {
        report.check_failed("warm-up oracle: " + oracle.status().to_string());
        return report;
      }
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  host.sample(HostSpeed::kSetupSamples);
  host.end_setup();

  if (tracer.enabled()) zero_layer_metrics(report);
  obs::Histogram* job_hist = engine->metrics()->histogram(
      "easched_job_latency_ms", {{"kind", "solve"}, {"priority", "sync"}});
  auto job_before = job_hist->snapshot();
  const auto cache_before = engine->cache_stats();

  std::vector<double> latency_ms, traced_ms, make_us, oracle_us, jobs, transitions;
  std::map<std::string, std::vector<double>> cell_us;
  std::vector<std::pair<std::size_t, std::vector<sim::PolicyMetrics>>> recheck;
  double energy_sum = 0.0;
  std::size_t energy_n = 0, ops = 0;
  const auto start = Clock::now();
  const auto half = after(start, args.seconds / 2);
  const auto stop = after(start, args.seconds);

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    host.maybe_sample();
    const auto now = Clock::now();
    if (now >= stop && i >= kEnergyOps) break;
    const bool traced = tracer.enabled() && now >= half;
    if (traced && traced_ms.empty()) job_before = job_hist->snapshot();
    const std::uint64_t op = i + 1;
    ++report.attempted;

    const int root = traced ? tracer.begin("sim.op", -1, op) : -1;
    StreamResult r;
    const auto t0 = Clock::now();
    auto corpus = sim::run_policy_corpus(classes, 1, kHorizon, seeds[i], policies, config,
                                         nullptr, kEngineThreads);
    const auto t1 = Clock::now();
    const sim::ArrivalTrace trace = sim::make_trace(classes, kHorizon, seeds[i], 0);
    const auto t2 = Clock::now();
    auto oracle = sim::oracle_baseline(trace, config, *engine);
    const auto t3 = Clock::now();
    tracer.end(root);
    if (!oracle.is_ok()) {
      report.check_failed("stream " + std::to_string(op) + ": oracle " +
                          oracle.status().to_string());
      continue;
    }
    r.policies = std::move(corpus.front());
    r.oracle = std::move(oracle).take();
    r.jobs = trace.jobs.size();
    const bool ok = check_stream(r, op, report);

    if (!traced) {
      latency_ms.push_back(ms_between(t0, t3));
    } else {
      traced_ms.push_back(ms_between(t0, t3));
      tracer.add("sim.replay", root, op, t0, t1);
      tracer.add("sim.make_trace", root, op, t1, t2);
      tracer.add("sim.oracle", root, op, t2, t3);
      make_us.push_back(us_between(t1, t2));
      oracle_us.push_back(us_between(t2, t3));
      jobs.push_back(static_cast<double>(r.jobs));
      // Each cell alone, one span per policy; it must reproduce the corpus.
      const int cells = tracer.begin("sim.cells", -1, op);
      for (std::size_t p = 0; p < policies.size(); ++p) {
        auto policy = sim::make_policy(policies[p]);
        const auto c0 = Clock::now();
        const auto m = sim::simulate_policy(trace, classes, config, *policy.value());
        const auto c1 = Clock::now();
        tracer.add("sim.replay." + policies[p], cells, op, c0, c1);
        cell_us[policies[p]].push_back(us_between(c0, c1));
        transitions.push_back(static_cast<double>(m.freq_transitions));
        if (!same_metrics(m, r.policies[p])) {
          report.check_failed("stream " + std::to_string(op) + ": " + policies[p] +
                              " alone differs from the corpus replay");
        }
      }
      tracer.end(cells);
    }
    if (i % kRecheckEvery == 0) recheck.emplace_back(i, r.policies);
    if (ok && ops < kEnergyOps) {
      for (const auto& m : r.policies) energy_sum += m.total_energy();
      energy_sum += r.oracle.energy;
      energy_n += r.policies.size() + 1;
    }
    ++ops;
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count() - host.run_spent_s();
  const double rss_mb = peak_rss_mb();  // before the re-run's threads add arenas

  // Thread count changes scheduling, never results.
  for (const auto& [i, expected] : recheck) {
    const auto parallel = sim::run_policy_corpus(classes, 1, kHorizon, seeds[i], policies,
                                                 config, nullptr, kCheckThreads);
    for (std::size_t p = 0; p < expected.size(); ++p) {
      if (!same_metrics(parallel.front()[p], expected[p])) {
        report.check_failed("stream " + std::to_string(i + 1) + ": " + policies[p] +
                            " differs between " + std::to_string(kEngineThreads) + " and " +
                            std::to_string(kCheckThreads) + " threads");
      }
    }
  }
  const auto cache_after = engine->cache_stats();
  std::ostringstream note;
  note << ops << " streams in " << elapsed << " s; " << recheck.size() << " re-run on "
       << kCheckThreads << " threads";
  report.notes.push_back(note.str());

  if (!tracer.enabled()) {
    report.set("setup_s", median(setup_s), "s");
    report.set("throughput_ops_s", static_cast<double>(ops) / elapsed, "1/s");
    report_latency(report, summarize_latency(windows_of(latency_ms, kTailWindow), kTailQ));
    // One closed-loop caller: the highest rate it sustains is its own.
    report.set("max_rate_rps", static_cast<double>(ops) / elapsed, "1/s");
    report.set("mean_energy", energy_n == 0 ? 0.0 : energy_sum / static_cast<double>(energy_n),
               "energy");
    report.set("peak_rss_mb", rss_mb, "MiB");
  } else {
    report.set("sim.make_trace_us", median(make_us), "us");
    for (const auto& [policy, values] : cell_us) {
      report.set("sim.replay_us." + policy, median(values), "us");
    }
    report.set("sim.oracle_us", median(oracle_us), "us");
    report.set("sim.jobs_per_stream", mean(jobs), "count");
    report.set("sim.freq_transitions", mean(transitions), "count");
    report.set("engine.job_ms", histogram_delta_median(job_before, job_hist->snapshot()),
               "ms");
    report.set("frontier.cache_hit_ratio", cache_hit_ratio(cache_before, cache_after), "ratio");
    const double p50 = median(latency_ms);
    report.set("obs.trace_overhead_pct",
               p50 > 0.0 ? 100.0 * (median(traced_ms) - p50) / p50 : 0.0, "%");
    note_self_times(report, tracer);
  }
  return report;
}

}  // namespace perfbench
