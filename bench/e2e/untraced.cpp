// The untraced run: production entry points only, timed end to end.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <thread>

#include "apps/apps.h"
#include "campaign/coordinator.h"
#include "campaign/report.h"
#include "campaign/spec.h"
#include "campaign/worker.h"
#include "support/strings.h"
#include "support/timer.h"
#include "workload.h"

namespace refine::e2e {

const std::vector<Workload>& workloads() {
  // Pass time, not a pass count, bounds a run (--seconds); setupReps is
  // fixed so the setup_s median always rests on the same sample count.
  // paper-flat's ~0.1 s set-up and protect-suite's ~1 s one are the
  // workloads setup_s is about (40 and 8 repetitions); the planned
  // workloads build the same jobs as paper-flat and report it with fewer.
  static const std::vector<Workload> table = {
      {"paper-flat", false, false, false, 1068, 40, "paper-flat.csv"},
      {"protect-suite", true, false, false, 16, 8, "protect-suite.csv"},
      {"planned-local", false, true, false, 0, 12, "planned.csv"},
      {"distributed-planned", false, true, true, 0, 12, "planned.csv"},
  };
  return table;
}

const Workload* findWorkload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

campaign::PlanSpec plannedSpec() { return campaign::parsePlanSpec("ci=0.05"); }

std::vector<campaign::MatrixJob> workloadJobs(const RunConfig& config) {
  std::vector<std::string> tools = {"LLFI", "REFINE", "PINFI"};
  if (config.workload->protectSuite) {
    // The --protect-suite expansion: each tool's model under every scheme,
    // resolved to canonical registry keys.
    std::vector<std::string> expanded;
    for (const std::string& tool : tools) {
      campaign::ToolSpec spec = campaign::parseToolSpec(tool);
      for (const auto scheme :
           {opt::ProtectScheme::None, opt::ProtectScheme::DWC,
            opt::ProtectScheme::TMR, opt::ProtectScheme::CFCSS}) {
        spec.protect = scheme;
        expanded.push_back(campaign::resolveToolSpec(spec.canonical()));
      }
    }
    tools = std::move(expanded);
  }
  return campaign::buildMatrixJobs(config.apps, tools);
}

double median(std::vector<double> values) {
  RF_CHECK(!values.empty(), "median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::uint64_t dataRows(const std::string& report) {
  const auto lines = split(report, '\n');
  std::uint64_t rows = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) rows += !lines[i].empty();
  return rows;
}

std::uint64_t differingRows(const std::string& report,
                            const std::string& reference) {
  const auto a = split(report, '\n');
  const auto b = split(reference, '\n');
  std::uint64_t differing = 0;
  for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    if (i >= a.size() || i >= b.size() || a[i] != b[i]) ++differing;
  }
  return differing;
}

namespace {

struct Pass {
  double seconds = 0.0;
  std::string report;
  std::uint64_t trials = 0;
  double busySeconds = 0.0;
  std::uint64_t exits = 0;     // serve and worker exit codes checked
  std::uint64_t badExits = 0;  // of those, other than 0
};

campaign::CampaignConfig engineConfig(const RunConfig& config) {
  campaign::CampaignConfig engine;
  engine.trials = config.workload->trials;
  engine.threads = config.threads;
  engine.baseSeed = config.seed;
  return engine;
}

/// Flat matrix streamed into a fresh checkpoint, as the CLI runs it.
Pass flatPass(const RunConfig& config,
              const std::vector<campaign::MatrixJob>& jobs) {
  const std::string checkpoint = config.workDir + "/flat.ckpt";
  std::filesystem::remove(checkpoint);
  Pass pass;
  WallTimer timer;
  campaign::CampaignEngine engine(engineConfig(config));
  campaign::CheckpointStore store(checkpoint);
  campaign::MatrixOptions options;
  options.checkpoint = &store;
  const auto results = engine.runMatrix(jobs, options);
  pass.report = config.workload->protectSuite
                    ? campaign::protectionSuiteCsv(results)
                    : campaign::countsCsv(results);
  pass.seconds = timer.seconds();
  for (const auto& r : results) {
    pass.trials += r.counts.total();
    pass.busySeconds += r.totalTrialSeconds;
  }
  return pass;
}

Pass plannedPass(const RunConfig& config,
                 const std::vector<campaign::MatrixJob>& jobs) {
  const std::string checkpoint = config.workDir + "/planned.ckpt";
  std::filesystem::remove(checkpoint);
  const campaign::PlanSpec spec = plannedSpec();
  Pass pass;
  WallTimer timer;
  campaign::CampaignEngine engine(engineConfig(config));
  campaign::CheckpointStore store(checkpoint);
  campaign::PlannedMatrixOptions options;
  options.checkpoint = &store;
  const auto cells = campaign::runPlannedMatrix(engine, jobs, spec, options);
  pass.report = campaign::plannedCountsCsv(cells, spec);
  pass.seconds = timer.seconds();
  for (const auto& cell : cells) {
    pass.trials += cell.total.counts.total();
    pass.busySeconds += cell.total.totalTrialSeconds;
  }
  return pass;
}

/// serveCampaign on an ephemeral loopback port, fed by `workers` runWorker
/// threads of one engine thread each; timed until the serve and every
/// worker have returned.
Pass distributedPass(const RunConfig& config, unsigned workers) {
  const campaign::PlanSpec spec = plannedSpec();
  campaign::ServeOptions serve;
  serve.config.apps = config.apps;
  serve.config.tools = {"LLFI", "REFINE", "PINFI"};
  serve.config.plan = spec.canonical();
  serve.config.trials = spec.maxTrials;
  serve.config.baseSeed = config.seed;
  serve.checkpointPath = config.workDir + "/serve.ckpt";
  serve.reportPath = config.workDir + "/serve-report.csv";
  std::filesystem::remove(serve.checkpointPath);
  std::filesystem::remove(serve.checkpointPath + ".generation");
  std::filesystem::remove(*serve.reportPath);

  std::vector<int> exits(workers, -1);
  std::vector<std::thread> threads;
  serve.onListening = [&](std::uint16_t port) {
    for (unsigned w = 0; w < workers; ++w) {
      threads.emplace_back([&exits, w, port] {
        campaign::WorkerOptions options;
        options.threads = 1;
        options.backoffSeed = 0xB0FF5EEDULL + w;
        // Reconnects happen only when something already failed; a small
        // budget lets a broken pass end in seconds instead of minutes.
        options.reconnect.attemptBudget = 3;
        try {
          exits[w] = campaign::runWorker("127.0.0.1", port, options);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "[refine-bench] worker %u: %s\n", w, e.what());
        }
      });
    }
  };

  Pass pass;
  WallTimer timer;
  int serveExit = -1;
  try {
    serveExit = campaign::serveCampaign(serve);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[refine-bench] serve: %s\n", e.what());
  }
  for (auto& t : threads) t.join();
  pass.seconds = timer.seconds();

  pass.exits = 1 + exits.size();
  pass.badExits = serveExit != campaign::kServeExitOk;
  for (const int code : exits) pass.badExits += code != campaign::kWorkerExitOk;
  if (serveExit == campaign::kServeExitOk) {
    pass.report = readFile(*serve.reportPath);
    for (const auto& r :
         campaign::CheckpointStore::readAll(serve.checkpointPath)) {
      pass.trials += r.counts.total();
      pass.busySeconds += r.totalTrialSeconds;
    }
  }
  return pass;
}

/// The pinned report, which exists for the full matrix at the default seed.
std::optional<std::string> goldenReport(const RunConfig& config) {
  if (config.goldenDir.empty() ||
      config.apps.size() != apps::benchmarkApps().size()) {
    return std::nullopt;
  }
  return readFile(config.goldenDir + "/" + config.workload->golden);
}

/// Counts the reference's rows as checked and the pass's differing ones (and
/// its bad exit codes) as failed.
void checkPass(const Pass& pass, const std::string& reference,
               const char* what, Tally& tally) {
  const std::uint64_t rows = dataRows(reference);
  const std::uint64_t bad = differingRows(pass.report, reference);
  tally.attempted += rows + pass.exits;
  tally.failed += std::min(bad, rows) + pass.badExits;
  if (bad > 0) {
    std::fprintf(stderr,
                 "[refine-bench] %s: %llu report row(s) differ from the "
                 "reference\n",
                 what, static_cast<unsigned long long>(bad));
  }
}

}  // namespace

UntracedResult runUntraced(const RunConfig& config, Tally& tally) {
  const Workload& w = *config.workload;
  const auto jobs = workloadJobs(config);
  const unsigned workers = std::max(1u, config.threads - 1);
  const std::uint64_t pinnedSeed = campaign::CampaignConfig{}.baseSeed;

  // setup_s: a fresh engine plus buildInstances (compile + profile every
  // cell), the set-up both runMatrix and runPlannedMatrix start with.
  std::vector<double> setup;
  for (unsigned rep = 0; rep < w.setupReps; ++rep) {
    WallTimer timer;
    campaign::CampaignEngine engine(engineConfig(config));
    const auto instances = engine.buildInstances(jobs);
    setup.push_back(timer.seconds());
  }

  auto runPass = [&](const RunConfig& run) {
    if (w.distributed) return distributedPass(run, workers);
    return w.planned ? plannedPass(run, jobs) : flatPass(run, jobs);
  };

  // Every run checks the golden: at another seed, with one untimed pass at
  // the golden's seed. The timed passes are then compared with the golden,
  // with an untimed local planned pass (distributed) or with the first pass.
  std::optional<std::string> reference = goldenReport(config);
  if (reference && config.seed != pinnedSeed) {
    RunConfig pinned = config;
    pinned.seed = pinnedSeed;
    checkPass(runPass(pinned), *reference, "untimed pass at the golden's seed",
              tally);
    reference.reset();
  }
  if (!reference && w.distributed) {
    reference = plannedPass(config, jobs).report;
  }

  std::vector<double> campaign;
  std::vector<double> rate;
  Pass last;
  double spent = 0.0;
  do {
    last = runPass(config);
    if (!reference) reference = last.report;
    checkPass(last, *reference,
              strf("%s pass %zu", w.name, campaign.size() + 1).c_str(), tally);
    campaign.push_back(last.seconds);
    rate.push_back(static_cast<double>(last.trials) / last.seconds);
    std::fprintf(stderr, "[refine-bench] %s pass %zu: %.4f s, %llu trials\n",
                 w.name, campaign.size(), last.seconds,
                 static_cast<unsigned long long>(last.trials));
    spent += last.seconds;
  } while (spent < config.seconds);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  UntracedResult out;
  out.report = last.report;
  out.passSeconds = last.seconds;
  out.busySeconds = last.busySeconds;
  out.setupSeconds = median(setup);
  out.trialThreads = w.distributed ? workers : config.threads;
  if (w.distributed) out.serveCheckpoint = config.workDir + "/serve.ckpt";
  out.metrics = {
      {"campaign_s", median(campaign), "s"},
      {"campaign_s.n", static_cast<double>(campaign.size()), "count"},
      {"campaign_s.min", *std::min_element(campaign.begin(), campaign.end()),
       "s"},
      {"campaign_s.max", *std::max_element(campaign.begin(), campaign.end()),
       "s"},
      {"trials_per_s", median(rate), "1/s"},
      {"setup_s", out.setupSeconds, "s"},
      {"setup_s.n", static_cast<double>(setup.size()), "count"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
      {"threads", static_cast<double>(config.threads), "count"},
  };
  return out;
}

}  // namespace refine::e2e
