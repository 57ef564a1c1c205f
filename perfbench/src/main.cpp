// easched_perfbench — one workload of the repository benchmark per run.
//
//   easched_perfbench --workload serve_warm|sweep_cold|sim_corpus
//                     --seed N --seconds S --trace 0|1 --out-dir DIR
//
// Prints every metric by name with its unit, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1 when
// an output check failed, 2 on bad arguments or a refused build.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using perfbench::Clock;

int usage(const std::string& why) {
  std::cerr << "easched_perfbench: " << why << "\n"
            << "usage: easched_perfbench --workload serve_warm|sweep_cold|sim_corpus "
               "--seed N --seconds S --trace 0|1 --out-dir DIR\n";
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && end != nullptr && *end == '\0';
}

/// Seconds one thread needs for a fixed amount of integer mixing.
double spin_seconds() {
  const auto start = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 20'000'000; ++i) x = (x ^ (x >> 29)) * 0xbf58476d1ce4e5b9ULL + 1;
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_add(x, std::memory_order_relaxed);
  return perfbench::ms_between(start, Clock::now()) / 1000.0;
}

/// Parallelism the host actually delivers: n threads each spinning one
/// thread's work (t1) finish together in tn, so n * t1 / tn is the number
/// of cores they got. `one_out` receives t1.
double measured_parallelism(unsigned threads, double* one_out) {
  const double one = spin_seconds();
  *one_out = one;
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < threads; ++i) pool.emplace_back([] { spin_seconds(); });
  for (auto& t : pool) t.join();
  const double all = perfbench::ms_between(start, Clock::now()) / 1000.0;
  return all > 0.0 ? static_cast<double>(threads) * one / all : 0.0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string metrics_json(const perfbench::Report& report) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": {\"value\": " << json_number(m.value) << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::cerr << "easched_perfbench: refusing to run a sanitizer build\n";
  return 2;
#endif
  perfbench::Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &args.seed)) return usage("bad --seed " + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &n) || n == 0 || n > 600) return usage("bad --seconds " + value);
      args.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_seed || args.out_dir.empty()) return usage("--seed and --out-dir are required");
  std::filesystem::create_directories(args.out_dir);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  double spin_one_s = 0.0;
  const double parallelism = measured_parallelism(hw, &spin_one_s);
  const int cpu = perfbench::pin_to_one_cpu();
  std::ostringstream host;
  host << "{\"hardware_threads\": " << hw << ", \"measured_parallelism\": "
       << json_number(parallelism) << ", \"spin_one_thread_s\": " << json_number(spin_one_s)
       << ", \"pinned_cpu\": " << cpu << ", \"engine_threads\": " << perfbench::kEngineThreads
       << ", \"compiler\": \"" << PERFBENCH_COMPILER
       << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}";
  std::cout << "workload " << args.workload << " seed " << args.seed << " seconds "
            << args.seconds << " trace " << (args.trace ? 1 : 0) << "\n"
            << "host " << host.str() << "\n";

  perfbench::Tracer tracer(args.trace);
  perfbench::HostSpeed speed;
  perfbench::Report report;
  try {
    if (args.workload == "serve_warm") {
      report = perfbench::run_serve_warm(args, tracer, speed);
    } else if (args.workload == "sweep_cold") {
      report = perfbench::run_sweep_cold(args, tracer, speed);
    } else if (args.workload == "sim_corpus") {
      report = perfbench::run_sim_corpus(args, tracer, speed);
    } else {
      return usage("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "easched_perfbench: " << args.workload << " aborted: " << e.what() << "\n";
    return 1;
  }

  // A set-up that fails checks several outputs before any op runs.
  report.attempted = std::max<std::uint64_t>({report.attempted, report.failed, 1});
  if (!args.trace) {
    perfbench::calibrate_times(report, speed);
    report.set("ok_ratio",
               static_cast<double>(report.attempted - report.failed) /
                   static_cast<double>(report.attempted),
               "ratio");
  }
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + (args.trace ? "-trace" : "");
  if (args.trace) {
    std::ofstream trace_file(stem + ".trace.json");
    tracer.write_chrome_json(trace_file);
    std::cout << "trace " << stem << ".trace.json (" << tracer.spans().size()
              << " spans)\n";
  }
  for (const auto& note : report.notes) std::cout << "note " << note << "\n";
  for (const auto& what : report.mismatch) std::cout << "CHECK FAILED " << what << "\n";
  for (const auto& [name, m] : report.metrics) {
    std::cout << "metric " << name << " = " << json_number(m.value) << " " << m.unit
              << "\n";
  }

  const std::string metrics = metrics_json(report);
  {
    std::ofstream full(stem + ".report.json");
    full << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
         << ", \"seconds\": " << args.seconds << ", \"trace\": " << (args.trace ? 1 : 0)
         << ", \"host\": " << host.str() << ", \"correct\": "
         << (report.correct ? "true" : "false") << ", \"attempted\": " << report.attempted
         << ", \"failed\": " << report.failed << ", \"metrics\": " << metrics << "}\n";
  }
  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
            << ", \"metrics\": " << metrics << "}" << std::endl;
  return report.correct ? 0 : 1;
}
