// sweep_cold: one caller runs Engine::sweep in a closed loop over seeded
// unique instances, with a write-through store in a scratch directory.
//
// Every probe misses the cache, so solver calls, frontier rounds, cache
// inserts and store appends do the work; parse, list scheduling and the
// digest run once per sweep. The corpus cycles through four solver
// families (continuous, discrete and VDD-HOPPING speed models, and small
// TRI-CRIT reliability sweeps), all at 32 tasks or fewer.
//
// Traced run: half the time untraced, half traced. A traced op records
// parse, list scheduling and the sweep, with one span per frontier round
// (from the sweep's streaming observer); each probe is then replayed
// through api::solve, labelled by the solver that ran, and appended to a
// scratch store, outside the op.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "api/digest.hpp"
#include "api/registry.hpp"
#include "common/rng.hpp"
#include "core/corpus.hpp"
#include "core/problem.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "harness.hpp"
#include "model/reliability.hpp"
#include "sched/list_scheduler.hpp"
#include "store/serialize.hpp"
#include "store/store.hpp"

namespace perfbench {
namespace {

using namespace easched;

constexpr int kCorpus = 256;   ///< distinct instances; later passes shift the sweep range
constexpr int kFamilies = 4;
constexpr int kProcessors = 3;
constexpr int kSetups = 5;
constexpr std::size_t kEnergyOps = 64;  ///< mean_energy and peak_rss_mb cover the first sweeps
constexpr double kTailQ = 95.0;  ///< leaves at least 10 ops beyond it
constexpr double kFeasibleTol = 1e-6;
/// A new frontier round starts when the observer was silent this long.
constexpr double kRoundGapUs = 200.0;

/// One generated input: the DAG text and which family sweeps it.
struct CorpusItem {
  std::string dag_text;
  int family = 0;
};

CorpusItem make_item(int family, common::Rng& rng) {
  const graph::WeightSpec weights{1.0, 10.0};
  // Sizes give every family about the same sweep cost, so the latency
  // distribution has one mode and its median does not sit in a gap.
  graph::Dag dag = [&] {
    switch (family) {
      case 0: return graph::make_random_dag(16, 3.0 / 16, weights, rng);
      case 1: return graph::make_layered(3, 4, 0.4, weights, rng);
      case 2: return graph::make_layered(4, 8, 0.6, weights, rng);
      default: return graph::make_random_dag(16, 3.0 / 16, weights, rng);
    }
  }();
  return CorpusItem{graph::to_text(dag), family};
}

std::vector<CorpusItem> make_corpus(std::uint64_t seed, std::uint64_t stream, int n) {
  common::Rng rng(seed ^ (0x5eedc01d00000000ULL + stream));
  std::vector<CorpusItem> corpus;
  for (int i = 0; i < n; ++i) corpus.push_back(make_item(i % kFamilies, rng));
  return corpus;
}

model::SpeedModel family_speeds(int family) {
  const std::vector<double> levels = {0.2, 0.4, 0.6, 0.8, 1.0};
  switch (family) {
    case 1: return model::SpeedModel::discrete(levels);
    case 2: return model::SpeedModel::vdd_hopping(levels);
    default: return model::SpeedModel::continuous(0.2, 1.0);
  }
}

/// The sweep of one corpus item: parsed, list-scheduled, and the query
/// over a range that `pass` shifts so repeat passes stay cold.
struct SweepInput {
  std::shared_ptr<const core::BiCritProblem> bicrit;
  std::shared_ptr<const core::TriCritProblem> tricrit;
  engine::FrontierQuery query;
  double lo = 0.0, hi = 0.0;
  double deadline = 0.0;  ///< the problem's fixed deadline
};

/// Parses and schedules `item` (timed by the caller as separate layers).
SweepInput build_sweep(const graph::Dag& dag, const sched::Mapping& mapping, int family,
                       std::size_t pass) {
  const auto speeds = family_speeds(family);
  const core::Instance inst{"sweep", dag, mapping, kProcessors};
  const double base = core::deadline_with_slack(inst, speeds.fmax(), 1.0);
  const double shift = 1.0 + 1e-3 * static_cast<double>(pass);
  SweepInput in;
  frontier::FrontierOptions options;
  if (family == 3) {
    options.initial_points = 7;
    options.max_points = 13;
    in.deadline = base * 2.5;
    in.tricrit = std::make_shared<const core::TriCritProblem>(
        dag, mapping, speeds, model::default_reliability(0.2, 1.0, 0.9), in.deadline);
    in.lo = 0.3;
    in.hi = 0.9 / shift;
    in.query = engine::FrontierQuery::reliability(in.tricrit, in.lo, in.hi, options);
  } else {
    options.initial_points = 9;
    options.max_points = 25;
    in.lo = base * 1.05 * shift;
    in.hi = base * 3.0 * shift;
    in.deadline = in.hi;
    in.bicrit = std::make_shared<const core::BiCritProblem>(dag, mapping, speeds, in.deadline);
    in.query = engine::FrontierQuery::deadline(in.bicrit, in.lo, in.hi, options);
  }
  return in;
}

/// Checks one sweep's frontier: request-level success, points inside the
/// range, strictly monotone in both criteria (so none dominates another)
/// and every schedule within its deadline.
bool check_frontier(const frontier::FrontierResult& r, const SweepInput& in,
                    std::size_t op, Report& report) {
  const auto fail = [&](const std::string& what) {
    report.check_failed("sweep " + std::to_string(op) + ": " + what);
    return false;
  };
  if (!r.error.is_ok()) return fail("error " + r.error.to_string());
  if (r.points.empty()) return fail("empty frontier");
  const bool deadline_axis = r.axis == frontier::ConstraintAxis::kDeadline;
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    const auto& p = r.points[i];
    if (!(p.energy > 0.0) || !std::isfinite(p.energy)) return fail("non-positive energy");
    if (p.constraint < in.lo || p.constraint > in.hi) return fail("point outside the range");
    const double limit = deadline_axis ? p.constraint : in.deadline;
    if (p.makespan > limit * (1.0 + kFeasibleTol)) return fail("makespan beyond its deadline");
    if (i == 0) continue;
    const auto& q = r.points[i - 1];
    if (!(q.constraint < p.constraint)) return fail("constraints not ascending");
    const bool monotone = deadline_axis ? q.energy > p.energy : q.energy < p.energy;
    if (!monotone) return fail("dominated point on the frontier");
  }
  return true;
}

/// The api::solve request the sweep issued for probe `c`.
struct ProbeRequest {
  std::unique_ptr<core::TriCritProblem> swept;  ///< reliability probes only
  std::unique_ptr<api::SolveRequest> request;
};

ProbeRequest probe_request(const SweepInput& in, double c) {
  ProbeRequest out;
  api::SolveOptions options;
  if (in.bicrit) {
    options.deadline_slack = c / in.bicrit->deadline;
    out.request = std::make_unique<api::SolveRequest>(*in.bicrit, "", options);
  } else {
    const auto& base = in.tricrit->reliability;
    out.swept = std::make_unique<core::TriCritProblem>(
        in.tricrit->dag, in.tricrit->mapping, in.tricrit->speeds,
        model::ReliabilityModel(base.lambda0(), base.sensitivity(), base.fmin(), base.fmax(),
                                c),
        in.tricrit->deadline);
    out.request = std::make_unique<api::SolveRequest>(*out.swept, "", options);
  }
  return out;
}

store::PointKey point_key(const api::SolveRequest& r) {
  store::PointKey key;
  const double deadline = r.deadline();
  const double frel = r.tricrit != nullptr ? r.tricrit->reliability.frel() : 0.0;
  key.kind = static_cast<std::uint8_t>(r.kind());
  std::memcpy(&key.deadline_bits, &deadline, sizeof deadline);
  std::memcpy(&key.frel_bits, &frel, sizeof frel);
  key.approx_K = r.options.approx_K;
  std::memcpy(&key.gap_tolerance_bits, &r.options.gap_tolerance, sizeof(double));
  key.max_nodes = r.options.max_nodes;
  key.dp_buckets = r.options.dp_buckets;
  key.fork_grid = r.options.fork_grid;
  key.polish = r.options.polish ? 1 : 0;
  return key;
}

/// The engine and its store's scratch directory, removed engine-first.
struct Rig {
  std::string dir;
  std::unique_ptr<engine::Engine> engine;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() { reset(); }

  void reset() {
    engine.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
    dir.clear();
  }
};

bool set_up(const Args& args, int index, Rig& rig, std::vector<CorpusItem>& corpus,
            Report& report) {
  corpus = make_corpus(args.seed, 0, kCorpus);
  rig.dir = args.out_dir + "/sweep_cold-" + std::to_string(::getpid()) + "-" +
            std::to_string(index);
  std::filesystem::remove_all(rig.dir);
  std::filesystem::create_directories(rig.dir);
  engine::EngineConfig config;
  config.threads = kEngineThreads;
  config.store_path = rig.dir + "/solves.log";
  config.store_mode = engine::StoreMode::kWriteThrough;
  auto created = engine::Engine::create(config);
  if (!created.is_ok()) {
    report.check_failed("engine: " + created.status().to_string());
    return false;
  }
  rig.engine = std::make_unique<engine::Engine>(std::move(created).take());
  // Warm-up: one sweep per family on instances outside the corpus.
  for (const auto& item : make_corpus(args.seed, 1, kFamilies)) {
    auto dag = graph::from_text(item.dag_text).take();
    auto mapping = sched::list_schedule(dag, kProcessors, sched::PriorityPolicy::kCriticalPath);
    const SweepInput in = build_sweep(dag, mapping, item.family, 0);
    Report warm;
    if (!check_frontier(rig.engine->sweep(in.query), in, 0, warm)) {
      for (const auto& m : warm.mismatch) report.check_failed("warm-up " + m);
      return false;
    }
  }
  return true;
}

}  // namespace

Report run_sweep_cold(const Args& args, Tracer& tracer, HostSpeed& host) {
  Report report;
  Rig rig;
  std::vector<CorpusItem> corpus;
  std::vector<double> setup_s;
  for (int s = 0; s < kSetups; ++s) {
    rig.reset();
    host.sample(HostSpeed::kSetupSamples);
    const auto t0 = Clock::now();
    if (!set_up(args, s, rig, corpus, report)) return report;
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  host.sample(HostSpeed::kSetupSamples);
  host.end_setup();
  engine::Engine& engine = *rig.engine;
  store::SolveStore& wt_store = *engine.store();
  if (tracer.enabled()) zero_layer_metrics(report);

  std::unique_ptr<store::SolveStore> scratch;
  if (tracer.enabled()) {
    store::StoreOptions options;
    options.path = rig.dir + "/scratch.log";
    auto opened = store::SolveStore::open(options);
    if (!opened.is_ok()) {
      report.check_failed("scratch store: " + opened.status().to_string());
      return report;
    }
    scratch = std::make_unique<store::SolveStore>(std::move(opened).take());
  }

  obs::Histogram* job_hist = engine.metrics()->histogram(
      "easched_job_latency_ms", {{"kind", "frontier"}, {"priority", "sync"}});
  const auto cache_before = engine.cache_stats();
  const auto store_before = wt_store.stats();
  auto job_before = job_hist->snapshot();

  std::vector<double> latency_ms, traced_ms, parse_us, schedule_us, round_ms, digest_us,
      put_us;
  std::map<std::string, std::vector<double>> solve_us;
  double energy_sum = 0.0, dag_bytes = 0.0, evaluated = 0.0;
  std::size_t energy_n = 0, ops = 0, traced_ops = 0;
  double rss_mb = 0.0;
  const auto start = Clock::now();
  const auto half = after(start, args.seconds / 2);
  const auto stop = after(start, args.seconds);

  for (std::size_t i = 0;; ++i) {
    host.maybe_sample();
    const auto now = Clock::now();
    if (now >= stop && i >= kEnergyOps) break;
    const bool traced = tracer.enabled() && now >= half;
    if (traced && traced_ops == 0) job_before = job_hist->snapshot();
    const CorpusItem& item = corpus[i % corpus.size()];
    const std::uint64_t op = i + 1;
    ++report.attempted;

    const int root = traced ? tracer.begin("sweep.op", -1, op) : -1;
    const auto t0 = Clock::now();
    auto dag = graph::from_text(item.dag_text);
    const auto t1 = Clock::now();
    if (!dag.is_ok()) {
      report.check_failed("corpus text rejected: " + dag.status().to_string());
      continue;
    }
    const auto mapping =
        sched::list_schedule(dag.value(), kProcessors, sched::PriorityPolicy::kCriticalPath);
    const auto t2 = Clock::now();
    SweepInput in = build_sweep(dag.value(), mapping, item.family, i / corpus.size());
    std::vector<Clock::time_point> emitted;
    if (traced) in.query.observer = [&](const frontier::FrontierPoint&) {
      emitted.push_back(Clock::now());
    };
    const auto t3 = Clock::now();
    const frontier::FrontierResult result = engine.sweep(in.query);
    const auto t4 = Clock::now();
    tracer.end(root);
    const bool ok = check_frontier(result, in, op, report);

    if (!traced) {
      latency_ms.push_back(ms_between(t0, t4));
    } else {
      ++traced_ops;
      traced_ms.push_back(ms_between(t0, t4));
      tracer.add("graph.parse", root, op, t0, t1);
      tracer.add("sched.list_schedule", root, op, t1, t2);
      const int sweep_span = tracer.add("engine.sweep", root, op, t3, t4);
      parse_us.push_back(us_between(t0, t1));
      schedule_us.push_back(us_between(t1, t2));
      dag_bytes += static_cast<double>(item.dag_text.size());
      evaluated += static_cast<double>(result.evaluated);
      // Rounds end where the observer's bursts do.
      auto round_start = t3;
      for (std::size_t k = 0; k < emitted.size(); ++k) {
        const bool last = k + 1 == emitted.size();
        if (last || us_between(emitted[k], emitted[k + 1]) > kRoundGapUs) {
          tracer.add("frontier.round", sweep_span, op, round_start, emitted[k]);
          round_ms.push_back(ms_between(round_start, emitted[k]));
          if (!last) round_start = emitted[k];
        }
      }

      // Probe replay: each evaluation again through api::solve, then into
      // the scratch store.
      const int replay = tracer.begin("sweep.replay", -1, op);
      const auto d0 = Clock::now();
      const api::SolveRequest anchor =
          in.bicrit ? api::SolveRequest(*in.bicrit) : api::SolveRequest(*in.tricrit);
      const std::string bytes = api::instance_bytes(anchor);
      const api::InstanceDigest digest = api::digest_bytes(bytes);
      const auto d1 = Clock::now();
      tracer.add("api.digest", replay, op, d0, d1);
      digest_us.push_back(us_between(d0, d1));
      for (const double c : result.probes) {
        const ProbeRequest probe = probe_request(in, c);
        const auto s0 = Clock::now();
        auto solved = std::make_shared<const common::Result<api::SolveReport>>(
            api::solve(*probe.request));
        const auto s1 = Clock::now();
        const std::string solver = solved->is_ok() ? solved->value().solver : "infeasible";
        tracer.add("api.solve." + solver, replay, op, s0, s1);
        solve_us[solver].push_back(us_between(s0, s1));
        for (const auto& p : result.points) {
          if (p.constraint == c && solved->is_ok() && p.energy != solved->value().energy) {
            report.check_failed("sweep " + std::to_string(op) +
                                ": replayed probe disagrees with the frontier point");
          }
        }
        const auto p0 = Clock::now();
        const auto put = scratch->put(digest, bytes, "", point_key(*probe.request), solved);
        const auto p1 = Clock::now();
        tracer.add("store.put", replay, op, p0, p1);
        put_us.push_back(us_between(p0, p1));
        if (!put.is_ok()) report.check_failed("scratch store put: " + put.to_string());
      }
      tracer.end(replay);
    }
    if (ok && ops < kEnergyOps) {
      for (const auto& p : result.points) energy_sum += p.energy;
      energy_n += result.points.size();
    }
    // Cache and store index grow with every new probe: memory is read
    // after a fixed amount of work, so a faster run does not read higher.
    if (++ops == kEnergyOps) rss_mb = peak_rss_mb();
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count() - host.run_spent_s();

  // The written log must verify, entry for entry.
  const auto cache_after = engine.cache_stats();
  const auto store_after = wt_store.stats();
  if (auto st = wt_store.sync(); !st.is_ok()) report.check_failed("store sync: " + st.to_string());
  const auto verified = store::SolveStore::verify(wt_store.options().path);
  if (!verified.is_ok()) {
    report.check_failed("store verify: " + verified.status().to_string());
  } else if (verified.value().entries != store_after.entries) {
    report.check_failed("store verify found " + std::to_string(verified.value().entries) +
                        " entries, the writer holds " + std::to_string(store_after.entries));
  }
  const double hit_ratio = cache_hit_ratio(cache_before, cache_after);
  std::ostringstream note;
  note << ops << " sweeps in " << elapsed << " s; cache hit ratio " << hit_ratio << "; "
       << (store_after.appended - store_before.appended) << " store appends; "
       << (cache_after.misses - cache_before.misses) << " solver calls";
  report.notes.push_back(note.str());

  if (!tracer.enabled()) {
    report.set("setup_s", median(setup_s), "s");
    report.set("throughput_ops_s", static_cast<double>(ops) / elapsed, "1/s");
    report_latency(report, summarize_latency({latency_ms}, kTailQ));
    // One closed-loop caller: the highest rate it sustains is its own.
    report.set("max_rate_rps", static_cast<double>(ops) / elapsed, "1/s");
    report.set("mean_energy", energy_n == 0 ? 0.0 : energy_sum / static_cast<double>(energy_n),
               "energy");
    report.set("peak_rss_mb", rss_mb, "MiB");
  } else {
    const double traced_n = std::max<double>(1.0, static_cast<double>(traced_ops));
    report.set("graph.parse_us", median(parse_us), "us");
    report.set("graph.dag_bytes", dag_bytes / traced_n, "bytes");
    report.set("sched.list_schedule_us", median(schedule_us), "us");
    report.set("api.digest_us", median(digest_us), "us");
    for (const auto& [solver, values] : solve_us) {
      const std::string name = "api.solve_us." + solver;
      if (report.metrics.count(name) != 0) {
        report.set(name, median(values), "us");
      } else {
        report.notes.push_back(name + " (not a declared metric) median " +
                               std::to_string(median(values)) + " us");
      }
    }
    report.set("api.solver_calls",
               static_cast<double>(cache_after.misses - cache_before.misses) /
                   static_cast<double>(std::max<std::size_t>(ops, 1)),
               "count");
    report.set("frontier.probes_per_sweep", evaluated / traced_n, "count");
    report.set("frontier.round_ms", median(round_ms), "ms");
    report.set("frontier.cache_hit_ratio", hit_ratio, "ratio");
    report.set("store.put_us", median(put_us), "us");
    report.set("store.bytes_per_entry",
               store_after.entries == 0 ? 0.0
                                        : static_cast<double>(store_after.file_bytes) /
                                              static_cast<double>(store_after.entries),
               "bytes");
    report.set("store.appended",
               static_cast<double>(store_after.appended - store_before.appended) /
                   static_cast<double>(std::max<std::size_t>(ops, 1)),
               "count");
    report.set("engine.job_ms", histogram_delta_median(job_before, job_hist->snapshot()),
               "ms");
    const double p50 = median(latency_ms);
    report.set("obs.trace_overhead_pct",
               p50 > 0.0 ? 100.0 * (median(traced_ms) - p50) / p50 : 0.0, "%");
    note_self_times(report, tracer);
  }
  return report;
}

}  // namespace perfbench
