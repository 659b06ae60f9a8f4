// refine-bench: the end-to-end campaign benchmark.
//
//   refine-bench --workload paper-flat [--seed HEX] [--seconds S]
//                [--trace 0|1] [--golden-dir DIR] [--work-dir DIR]
//                [--json FILE]
//   refine-bench --smoke --golden-dir DIR      (the bench-smoke ctest)
//
// One workload per process, so peak_rss_mb belongs to it. Every run makes
// the untraced run (end-to-end metrics); --trace 1 adds the traced replay
// (per-layer metrics, Chrome trace). Metrics are printed as a table and
// written as JSON; the exit code is 0 only when every correctness check
// passed. See README.md.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "support/check.h"
#include "support/strings.h"
#include "workload.h"

namespace {

using namespace refine;
using namespace refine::e2e;

struct Options {
  std::string workload;
  RunConfig run;
  bool trace = false;
  bool smoke = false;
  std::string jsonPath;
};

unsigned availableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

int usage() {
  std::fputs(
      "usage: refine-bench --workload NAME [--seed HEX] [--seconds S]\n"
      "                    [--trace 0|1] [--golden-dir DIR] [--work-dir DIR]\n"
      "                    [--json FILE]\n"
      "       refine-bench --smoke --golden-dir DIR [--work-dir DIR]\n"
      "workloads: paper-flat, protect-suite, planned-local, "
      "distributed-planned\n",
      stderr);
  return 2;
}

Options parseArgs(int argc, char** argv) {
  Options opt;
  opt.run.threads = std::min(4u, availableCpus());
  opt.run.seconds = 15.0;
  opt.run.workDir = ".bench_build/e2e/work";
  for (const auto& app : apps::benchmarkApps()) opt.run.apps.push_back(app.name);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      RF_CHECK(i + 1 < argc, arg + " requires a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      const std::string text = value();
      const auto seed = parseU64(text, 16);
      RF_CHECK(seed.has_value(), "--seed expects hex; got '" + text + "'");
      opt.run.seed = *seed;
    } else if (arg == "--seconds") {
      const std::string text = value();
      const auto seconds = parseF64(text);
      RF_CHECK(seconds && *seconds >= 0 && *seconds <= 3600,
               "--seconds expects 0..3600; got '" + text + "'");
      opt.run.seconds = *seconds;
    } else if (arg == "--trace") {
      const std::string text = value();
      RF_CHECK(text == "0" || text == "1", "--trace expects 0 or 1");
      opt.trace = text == "1";
    } else if (arg == "--golden-dir") {
      opt.run.goldenDir = value();
    } else if (arg == "--work-dir") {
      opt.run.workDir = value();
    } else if (arg == "--json") {
      opt.jsonPath = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      RF_CHECK(false, "unknown argument '" + arg + "'");
    }
  }
  return opt;
}

void printMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string jsonResult(const RunConfig& run, bool trace, const Tally& tally,
                       const std::vector<Metric>& metrics) {
  std::string out = strf(
      "{\"workload\":\"%s\",\"seed\":\"%llX\",\"threads\":%u,\"nproc\":%u,"
      "\"trace\":%d,\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"metrics\":{",
      run.workload->name, static_cast<unsigned long long>(run.seed),
      run.threads, availableCpus(), trace ? 1 : 0,
      tally.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    RF_CHECK(std::isfinite(m.value), "metric " + m.name + " is not finite");
    out += strf("%s\"%s\":{\"value\":%s,\"unit\":\"%s\",\"counter\":%s}",
                i == 0 ? "" : ",", m.name.c_str(),
                formatDouble(m.value).c_str(), m.unit.c_str(),
                m.counter ? "true" : "false");
  }
  return out + "}}\n";
}

std::string tracePath(const RunConfig& run) {
  return run.workDir + "/trace-" + run.workload->name + ".json";
}

/// One workload in this process: the untraced run, then (with trace) the
/// traced replay. Returns every metric; `tally` collects the checks.
std::vector<Metric> runWorkload(const RunConfig& run, bool trace,
                                Tally& tally) {
  std::filesystem::create_directories(run.workDir);
  std::fprintf(stderr,
               "[refine-bench] %s: seed %llX, %u thread(s), %zu app(s)%s\n",
               run.workload->name, static_cast<unsigned long long>(run.seed),
               run.threads, run.apps.size(), trace ? ", traced" : "");
  // A traced run needs one untraced pass: its report, busy time and (for
  // the distributed workload) its records are what the replay checks
  // against and reuses.
  RunConfig untracedRun = run;
  if (trace) untracedRun.seconds = 0.0;
  UntracedResult untraced = runUntraced(untracedRun, tally);
  std::vector<Metric> metrics = untraced.metrics;
  if (trace) {
    const auto layers = runTraced(run, untraced, tracePath(run), tally);
    metrics.insert(metrics.end(), layers.begin(), layers.end());
  }
  metrics.push_back({"failed_frac",
                     tally.attempted == 0
                         ? 1.0
                         : static_cast<double>(tally.failed) /
                               static_cast<double>(tally.attempted),
                     "frac"});
  return metrics;
}

/// bench-smoke: one pass of every workload against its golden, then the
/// traced replay twice on EP,DC with identical work counters.
int smoke(Options opt) {
  RF_CHECK(!opt.run.goldenDir.empty(), "--smoke needs --golden-dir");
  bool ok = true;
  opt.run.seconds = 0.0;
  for (const Workload& w : workloads()) {
    RunConfig run = opt.run;
    run.workload = &w;
    Tally tally;
    runWorkload(run, false, tally);
    std::printf("smoke %-20s %llu/%llu records failed\n", w.name,
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    ok = ok && tally.failed == 0 && tally.attempted > 0;
  }

  RunConfig run = opt.run;
  run.workload = findWorkload("paper-flat");
  run.apps = {"EP", "DC"};
  std::vector<Metric> counters[2];
  for (auto& out : counters) {
    Tally tally;
    for (const Metric& m : runWorkload(run, true, tally)) {
      if (m.counter) out.push_back(m);
    }
    ok = ok && tally.failed == 0;
  }
  for (std::size_t i = 0; i < counters[0].size(); ++i) {
    const bool same = counters[0][i].value == counters[1][i].value;
    std::printf("smoke counter %-32s %.0f %s\n", counters[0][i].name.c_str(),
                counters[0][i].value, same ? "repeats" : "DIFFERS");
    ok = ok && same;
  }
  std::printf("bench-smoke %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options opt = parseArgs(argc, argv);
    if (opt.smoke) return smoke(opt);
    opt.run.workload = findWorkload(opt.workload);
    if (opt.run.workload == nullptr) return usage();

    Tally tally;
    const auto metrics = runWorkload(opt.run, opt.trace, tally);
    std::printf("refine-bench %s (seed %llX, %u threads)\n",
                opt.run.workload->name,
                static_cast<unsigned long long>(opt.run.seed),
                opt.run.threads);
    printMetrics(metrics);
    std::printf("  correctness: %llu of %llu checked records failed\n",
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    if (opt.trace) std::printf("  trace: %s\n", tracePath(opt.run).c_str());
    if (!opt.jsonPath.empty()) {
      writeFile(opt.jsonPath, jsonResult(opt.run, opt.trace, tally, metrics));
    }
    return tally.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "refine-bench: %s\n", e.what());
    return 1;
  }
}
