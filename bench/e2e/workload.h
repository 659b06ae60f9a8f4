// refine-bench: the end-to-end campaign benchmark's workloads and its two
// runs per workload.
//
// The untraced run calls only production entry points
// (CampaignEngine::runMatrix, runPlannedMatrix, serveCampaign + runWorker)
// and yields the end-to-end metrics. The traced run replays the same
// workload on one thread, timing every public layer call from outside, and
// yields the per-layer metrics. See README.md for the metric dictionary.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/engine.h"
#include "campaign/planner.h"

namespace refine::e2e {

struct Workload {
  const char* name;
  bool protectSuite;     // every tool expanded into protect=none|dwc|tmr|cfcss
  bool planned;          // adaptive rounds under plannedSpec()
  bool distributed;      // served to in-process runWorker threads
  std::uint64_t trials;  // flat trials per cell (ignored when planned)
  unsigned setupReps;    // fresh engine + buildInstances repetitions
  const char* golden;    // pinned report under the golden directory
};

/// nullptr for an unknown name.
const Workload* findWorkload(std::string_view name);
const std::vector<Workload>& workloads();

/// The plan of both planned workloads: ci=0.05, the rest default.
campaign::PlanSpec plannedSpec();

struct RunConfig {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0x5EEDBA5EULL;
  unsigned threads = 1;
  double seconds = 0.0;            // untraced passes run until this is spent
  std::vector<std::string> apps;   // matrix apps (default: the 14 paper apps)
  std::string workDir;             // checkpoints, reports, the trace file
  std::string goldenDir;           // empty = no golden comparison
};

/// The workload's matrix in canonical order (apps outer, tools inner).
std::vector<campaign::MatrixJob> workloadJobs(const RunConfig& config);

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// A hardware-independent work counter: must repeat exactly between two
  /// traced runs of the same workload and seed.
  bool counter = false;
};

/// Correctness bookkeeping: records checked and records that failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct UntracedResult {
  std::vector<Metric> metrics;    // the end-to-end metrics
  std::string report;             // the last pass's report
  double passSeconds = 0.0;       // the last pass's campaign time
  double busySeconds = 0.0;       // Σ totalTrialSeconds of the last pass
  double setupSeconds = 0.0;      // the setup_s median
  unsigned trialThreads = 1;      // threads that ran trials
  std::string serveCheckpoint;    // distributed: the last pass's store
};

/// Setup repetitions, then passes until config.seconds of pass time is spent
/// (at least one). With a golden (full matrix), a run at another seed first
/// makes one untimed pass at the default seed and compares it with the
/// golden. Every timed pass's report is compared with the golden (default
/// seed) or with the first pass's; a distributed pass without a golden at its
/// seed is compared with an untimed local planned pass.
UntracedResult runUntraced(const RunConfig& config, Tally& tally);

/// Replays the workload on one thread, writes the Chrome trace to
/// `tracePath`, and returns the per-layer metrics; `untraced` is this
/// process's untraced run of the same workload and seed. The replay's report must
/// equal `untraced.report`; 8 trials per cell are re-run cold on the
/// interpreter and must classify as the fast path did.
std::vector<Metric> runTraced(const RunConfig& config,
                              const UntracedResult& untraced,
                              const std::string& tracePath, Tally& tally);

/// Rows of `report` that differ from `reference` (header included, compared
/// by position; a missing or extra row counts once).
std::uint64_t differingRows(const std::string& report,
                            const std::string& reference);

/// Data rows of a CSV report (lines after the header).
std::uint64_t dataRows(const std::string& report);

double median(std::vector<double> values);

}  // namespace refine::e2e
