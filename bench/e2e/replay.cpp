// The traced run: the workload replayed on one thread, every layer timed
// from outside through its public functions.
//
// The layers below the campaign (frontend, opt, protect, fi, backend,
// predecode, JIT compile) run inside private ToolInstance constructors, so
// the replay times them on a shadow build of each cell that calls the same
// public functions in the same order the injector factories do; the cell's
// real instance is then built through its registry factory (span
// campaign.build), checked to have the shadow's binary size, and profiled. Trials, planner decisions, checkpoint
// appends, the report fold and — for the distributed workload — the
// coordinator's grant and ingest run on the real objects.
#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <map>
#include <optional>

#include "backend/compile.h"
#include "campaign/coordinator.h"
#include "campaign/net.h"
#include "campaign/report.h"
#include "campaign/spec.h"
#include "fi/llfi_pass.h"
#include "fi/pinfi.h"
#include "fi/refine_pass.h"
#include "frontend/compile.h"
#include "opt/passes.h"
#include "opt/protect.h"
#include "support/rng.h"
#include "support/threadpool.h"
#include "tracer.h"
#include "vm/decoded.h"
#include "vm/jit.h"
#include "workload.h"

namespace refine::e2e {
namespace {

using campaign::CampaignResult;
using campaign::Outcome;

/// Trials per cell re-run cold (no fast-forward, interpreter only) as the
/// cross-path oracle.
constexpr std::size_t kOracleTrials = 8;

/// An engine splits each cell into threads x 8 chunks; the replay is one
/// worker. Chunk boundaries decide which snapshot a trial restores over, so
/// they are kept for restored-byte fidelity.
constexpr std::size_t kChunksPerWorker = 8;

std::uint64_t irInstrs(const ir::Module& module) {
  std::uint64_t n = 0;
  for (const auto& fn : module.functions()) {
    for (const auto& block : fn->blocks()) n += block->instructions().size();
  }
  return n;
}

/// Byte counters encode records with the wall-time field zeroed, so they
/// repeat exactly between runs.
std::string encodeTimeless(CampaignResult record) {
  record.totalTrialSeconds = 0.0;
  return campaign::CheckpointStore::encode(record);
}

struct Cell {
  const campaign::MatrixJob* job = nullptr;
  std::string base;  // the paper tool the cell's spec builds on
  std::unique_ptr<campaign::ToolInstance> instance;
  std::uint64_t budget = 0;
  std::uint64_t appKey = 0;
  std::uint64_t seedKey = 0;
  campaign::OutcomeCounts cumulative;
  std::uint64_t rounds = 0;
  bool warm = false;  // has run a trial (lazy JIT compile, scratch rebind)
  std::array<std::optional<Outcome>, kOracleTrials> fastOutcomes;
};

struct Counters {
  std::uint64_t frontendIr = 0, optIr = 0, protectIr = 0;
  std::uint64_t staticSites = 0, machineInstrs = 0;
  std::uint64_t goldenInstrs = 0, snapshots = 0;
  std::uint64_t trials = 0, executed = 0, fastForwarded = 0, jit = 0;
  std::uint64_t restored = 0, allocs = 0, timeouts = 0, benign = 0;
  std::vector<double> trialMicros;
  std::map<std::string, double> toolSeconds;  // by base tool
  std::uint64_t persistRecords = 0, persistBytes = 0, reportBytes = 0;
  std::uint64_t grants = 0, ingested = 0, wireBytes = 0;
  std::uint64_t reissues = 0, stale = 0;
  std::uint64_t oracleTrials = 0, oracleMismatches = 0;
  std::uint64_t shadowChecks = 0, shadowMismatches = 0;
};

class Replay {
 public:
  Replay(const RunConfig& config, Tracer& tracer)
      : config_(config),
        jobs_(workloadJobs(config)),
        tracer_(tracer),
        storePath_(config.workDir + "/replay.ckpt") {
    cells_.resize(jobs_.size());
  }

  /// Runs the whole replay and returns the report it folds from its store.
  std::string run();

  /// Feeds the distributed run's records through a fake-clock Coordinator
  /// as one worker would stream them.
  void replayCoordinator(const std::string& serveCheckpoint);

  const Counters& counters() const noexcept { return counters_; }
  std::vector<std::string> cellLabels() const {
    std::vector<std::string> labels;
    for (const auto& job : jobs_) labels.push_back(job.app + " x " + job.tool);
    return labels;
  }

 private:
  /// Returns the shadow binary's size in machine instructions.
  std::uint64_t shadowBuild(std::size_t c, const campaign::ToolSpec& spec);
  void buildCell(std::size_t c);
  void runRecord(std::size_t c, std::uint64_t trials,
                 std::optional<std::uint64_t> round);
  void oracle(std::size_t c);

  const RunConfig& config_;
  const std::vector<campaign::MatrixJob> jobs_;
  Tracer& tracer_;
  const std::string storePath_;
  const campaign::PlanSpec spec_ = plannedSpec();
  std::vector<Cell> cells_;
  std::optional<campaign::CheckpointStore> store_;
  campaign::TrialScratch scratch_;
  std::vector<campaign::TrialDraw> draws_;
  Counters counters_;
};

std::uint64_t Replay::shadowBuild(std::size_t c,
                                  const campaign::ToolSpec& spec) {
  const campaign::MatrixJob& job = jobs_[c];
  const fi::FiConfig config = spec.apply(job.fiConfig);
  std::unique_ptr<ir::Module> module;
  {
    SpanScope s(tracer_, "frontend", c);
    module = fe::compileToIR(job.source);
  }
  counters_.frontendIr += irInstrs(*module);
  {
    SpanScope s(tracer_, "opt", c);
    opt::optimize(*module, opt::OptLevel::O2);
  }
  counters_.optIr += irInstrs(*module);
  {
    SpanScope s(tracer_, "opt.protect", c);
    opt::applyProtection(*module, config.protect);
  }
  counters_.protectIr += irInstrs(*module);

  backend::Program program;
  if (spec.base == "REFINE") {
    fi::RefineCompileResult compiled;
    {
      SpanScope s(tracer_, "fi.refine_compile", c);
      compiled = fi::compileWithRefine(*module, config);
    }
    counters_.staticSites += compiled.staticSites;
    program = std::move(compiled.program);
  } else {
    if (spec.base == "LLFI") {
      SpanScope s(tracer_, "fi.llfi_pass", c);
      counters_.staticSites += fi::applyLlfiPass(*module, config).staticTargets;
    }
    {
      SpanScope s(tracer_, "backend", c);
      program = backend::compileBackend(*module).program;
    }
  }
  counters_.machineInstrs += program.code.size();

  // PINFI's engine classifies and predecodes in one constructor, and its
  // instance runs on that predecode; the other tools predecode separately.
  std::optional<fi::Pinfi> pinfi;
  std::optional<vm::DecodedProgram> decoded;
  if (spec.base == "PINFI") {
    SpanScope s(tracer_, "fi.pinfi_classify", c);
    pinfi.emplace(program, config);
    counters_.staticSites += pinfi->staticTargets();
  } else {
    SpanScope s(tracer_, "vm.predecode", c);
    decoded.emplace(program);
  }
  vm::JitProgram jit(pinfi ? pinfi->decoded() : *decoded);
  {
    SpanScope s(tracer_, "vm.jit.compile", c);
    jit.entry();
  }
  return program.code.size();
}

void Replay::buildCell(std::size_t c) {
  const campaign::MatrixJob& job = jobs_[c];
  Cell& cell = cells_[c];
  cell.job = &job;
  const campaign::ToolSpec spec = campaign::parseToolSpec(job.tool);
  cell.base = spec.base;
  SpanScope cellSpan(tracer_, "campaign.cell", c);
  const std::uint64_t shadowSize = shadowBuild(c, spec);
  {
    SpanScope s(tracer_, "campaign.build", c);
    cell.instance = campaign::InjectorRegistry::global().get(job.tool).create(
        job.source, job.fiConfig);
  }
  // The shadow build must produce the binary the factory built.
  ++counters_.shadowChecks;
  if (shadowSize != cell.instance->binarySize()) {
    ++counters_.shadowMismatches;
    std::fprintf(stderr,
                 "[refine-bench] shadow build: %s x %s has %llu machine "
                 "instructions, the factory's binary %llu\n",
                 job.app.c_str(), job.tool.c_str(),
                 static_cast<unsigned long long>(shadowSize),
                 static_cast<unsigned long long>(cell.instance->binarySize()));
  }
  const campaign::ToolInstance::Profile* profile = nullptr;
  {
    SpanScope s(tracer_, "campaign.profile", c);
    profile = &cell.instance->profile();
  }
  counters_.goldenInstrs += profile->instrCount;
  counters_.snapshots += cell.instance->snapshots().size();
  cell.budget = static_cast<std::uint64_t>(
      campaign::CampaignConfig{}.timeoutFactor *
      static_cast<double>(profile->instrCount));
  cell.appKey = fnv1a(job.app);
  cell.seedKey = campaign::injectorSeedKey(job.tool);
}

void Replay::runRecord(std::size_t c, std::uint64_t trials,
                       std::optional<std::uint64_t> round) {
  Cell& cell = cells_[c];
  const auto& profile = cell.instance->profile();
  const std::uint64_t begin = cell.cumulative.total();
  CampaignResult record;
  record.app = cell.job->app;
  record.tool = cell.job->tool;
  record.dynamicTargets = profile.dynamicTargets;
  record.profileInstrs = profile.instrCount;
  record.binarySize = cell.instance->binarySize();
  record.planRound = round;

  {
    SpanScope batch(tracer_, "campaign.batch", c);
    // Two spans per trial; reserved up front so recording a trial never
    // allocates inside the allocation-counting window.
    tracer_.reserve(2 * trials + 8);
    counters_.trialMicros.reserve(counters_.trialMicros.size() + trials);
    double& toolSeconds = counters_.toolSeconds[cell.base];
    forEachChunk(trials, kChunksPerWorker, [&](std::size_t b, std::size_t e) {
      campaign::drawTrialChunk(config_.seed, cell.appKey, cell.seedKey,
                               profile.dynamicTargets, begin + b, begin + e,
                               draws_);
      scratch_.setGolden(&profile.goldenOutput);
      for (const campaign::TrialDraw& d : draws_) {
        const std::uint64_t allocsBefore = allocCount();
        const std::int32_t trialSpan = tracer_.open("campaign.trial", c);
        const auto& trial =
            cell.instance->runTrial(d.target, d.seed, cell.budget, scratch_);
        const std::int32_t classifySpan =
            tracer_.open("campaign.trial.classify", c);
        const Outcome outcome =
            campaign::classify(trial.exec, profile.goldenOutput);
        tracer_.close(classifySpan);
        tracer_.close(trialSpan);
        // The first trial of a cell compiles its JIT code and rebinds the
        // scratch machine; every later one is steady state.
        if (cell.warm) counters_.allocs += allocCount() - allocsBefore;
        cell.warm = true;

        const Tracer::Span& span =
            tracer_.spans()[static_cast<std::size_t>(trialSpan)];
        counters_.trialMicros.push_back((span.end - span.start) * 1e6);
        toolSeconds += span.end - span.start;
        ++counters_.trials;
        counters_.executed += trial.exec.instrCount - trial.fastForwardedInstrs;
        counters_.fastForwarded += trial.fastForwardedInstrs;
        counters_.jit += trial.exec.jitInstrCount;
        counters_.restored += trial.restoredBytes;
        counters_.timeouts += trial.exec.trap == vm::Trap::Timeout;
        counters_.benign += outcome == Outcome::Benign;
        record.counts.add(outcome);
        if (d.trial < kOracleTrials) cell.fastOutcomes[d.trial] = outcome;
      }
    });
  }
  cell.cumulative += record.counts;
  ++cell.rounds;

  SpanScope s(tracer_, "campaign.persist.append", c);
  store_->append(record);
  ++counters_.persistRecords;
  counters_.persistBytes += encodeTimeless(record).size() + 1;
}

void Replay::oracle(std::size_t c) {
  Cell& cell = cells_[c];
  const auto& profile = cell.instance->profile();
  const std::uint64_t n =
      std::min<std::uint64_t>(kOracleTrials, cell.cumulative.total());
  campaign::drawTrialChunk(config_.seed, cell.appKey, cell.seedKey,
                           profile.dynamicTargets, 0, n, draws_);
  cell.instance->setFastForward(false);
  cell.instance->setExecTier(false);
  for (const campaign::TrialDraw& d : draws_) {
    SpanScope s(tracer_, "campaign.oracle", c);
    const campaign::Trial cold =
        cell.instance->runTrial(d.target, d.seed, cell.budget);
    const Outcome outcome = campaign::classify(cold.exec, profile.goldenOutput);
    ++counters_.oracleTrials;
    if (cell.fastOutcomes[d.trial] != outcome) {
      ++counters_.oracleMismatches;
      std::fprintf(stderr,
                   "[refine-bench] oracle: %s x %s trial %llu classifies as "
                   "%s cold but differently on the fast path\n",
                   cell.job->app.c_str(), cell.job->tool.c_str(),
                   static_cast<unsigned long long>(d.trial),
                   campaign::outcomeName(outcome));
    }
  }
  cell.instance->setFastForward(true);
  cell.instance->clearExecTierOverride();
}

std::string Replay::run() {
  const Workload& w = *config_.workload;
  std::filesystem::remove(storePath_);
  store_.emplace(storePath_);
  const double timeout = campaign::CampaignConfig{}.timeoutFactor;
  const std::string tools = campaign::checkpointToolList(jobs_);
  if (w.planned) {
    store_->bindCampaign(
        {config_.seed, spec_.maxTrials, timeout, tools, spec_.canonical()});
  } else {
    store_->bindCampaign({config_.seed, w.trials, timeout, tools, {}});
  }

  for (std::size_t c = 0; c < cells_.size(); ++c) buildCell(c);

  if (!w.planned) {
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      runRecord(c, w.trials, std::nullopt);
    }
  } else {
    // Round-major like runPlannedMatrix: every unretired cell runs its next
    // batch, then the planner looks at the cumulative counts again.
    bool active = true;
    while (active) {
      active = false;
      for (std::size_t c = 0; c < cells_.size(); ++c) {
        Cell& cell = cells_[c];
        std::uint64_t batch = 0;
        {
          SpanScope s(tracer_, "campaign.planner", c);
          if (!campaign::planRetired(spec_, cell.cumulative)) {
            batch = campaign::planNextBatch(spec_, cell.rounds,
                                            cell.cumulative);
          }
        }
        if (batch == 0) continue;
        active = true;
        runRecord(c, batch, cell.rounds);
      }
    }
  }

  for (std::size_t c = 0; c < cells_.size(); ++c) oracle(c);

  std::string report;
  std::vector<CampaignResult> merged;
  std::vector<campaign::PlannedCell> planned;
  {
    SpanScope s(tracer_, "campaign.report.merge");
    merged = campaign::mergeCheckpoints({storePath_});
    if (w.planned) planned = campaign::foldPlannedRecords(merged, spec_);
  }
  {
    SpanScope s(tracer_, "campaign.report.csv");
    report = w.planned        ? campaign::plannedCountsCsv(planned, spec_)
             : w.protectSuite ? campaign::protectionSuiteCsv(merged)
                              : campaign::countsCsv(merged);
  }
  counters_.reportBytes = report.size();
  return report;
}

void Replay::replayCoordinator(const std::string& serveCheckpoint) {
  // The served run's records, keyed by (cell, round) as the coordinator
  // grants them.
  std::map<std::tuple<std::string, std::string, std::uint64_t>,
           CampaignResult>
      records;
  for (auto& r : campaign::CheckpointStore::readAll(serveCheckpoint)) {
    RF_CHECK(r.planRound.has_value(), "served record without a round");
    const std::uint64_t round = *r.planRound;
    records[{r.app, r.tool, round}] = std::move(r);
  }

  campaign::CoordinatorConfig cc;
  cc.apps = config_.apps;
  cc.tools = {"LLFI", "REFINE", "PINFI"};
  cc.plan = spec_.canonical();
  cc.trials = spec_.maxTrials;
  cc.baseSeed = config_.seed;
  const std::string storePath = config_.workDir + "/replay-coordinator.ckpt";
  std::filesystem::remove(storePath);
  campaign::CheckpointStore store(storePath);

  constexpr std::uint64_t kFrameHeader = 5;  // u32 length + type byte
  double clock = 0.0;  // fake: no lease ever expires
  campaign::Coordinator core(cc, store, clock);
  const std::uint64_t worker = core.addWorker();
  counters_.wireBytes += kFrameHeader + campaign::kNetHello.size();
  while (true) {
    clock += 0.001;
    campaign::Coordinator::RequestReply reply;
    {
      SpanScope s(tracer_, "campaign.coordinator.grant");
      reply = core.onRequest(worker, clock);
    }
    counters_.wireBytes += kFrameHeader;  // the Request
    if (reply.kind == campaign::Coordinator::RequestKind::Complete) {
      counters_.wireBytes += kFrameHeader;
      break;
    }
    RF_CHECK(reply.kind == campaign::Coordinator::RequestKind::Grant,
             "a lone worker was told to wait");
    const campaign::LeaseGrant& grant = reply.grant;
    RF_CHECK(grant.batch.has_value(), "planned coordinator granted a shard");
    ++counters_.grants;
    counters_.wireBytes += kFrameHeader + campaign::encodeGrant(grant).size();

    const std::size_t cell = grant.shard.index;
    const auto it = records.find({cc.apps[cell / cc.tools.size()],
                                  cc.tools[cell % cc.tools.size()],
                                  grant.batch->round});
    RF_CHECK(it != records.end(), "granted a round the served run never ran");
    const campaign::LeaseRef ref{grant.leaseId, grant.epoch};
    const std::string payload = campaign::encodeRecord(
        ref, campaign::CheckpointStore::encode(it->second));
    counters_.wireBytes +=
        kFrameHeader +
        campaign::encodeRecord(ref, encodeTimeless(it->second)).size();
    const std::string done = campaign::encodeLeaseRef(ref);
    counters_.wireBytes += kFrameHeader + done.size();

    SpanScope s(tracer_, "campaign.coordinator.ingest", cell);
    core.onRecord(worker, payload, clock);
    ++counters_.ingested;
    core.onLeaseDone(worker, done, clock);
  }
  RF_CHECK(core.complete(), "coordinator replay ended incomplete");
  counters_.reissues = core.leaseReissues();
  counters_.stale = core.staleRecords();
}

/// Nearest-rank percentile of sorted values.
double percentile(const std::vector<double>& sorted, double pct) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

}  // namespace

std::vector<Metric> runTraced(const RunConfig& config,
                              const UntracedResult& untraced,
                              const std::string& tracePath, Tally& tally) {
  const Workload& w = *config.workload;
  Tracer tracer;
  Replay replay(config, tracer);
  setAllocCounting(true);
  const std::string report = replay.run();
  setAllocCounting(false);
  if (w.distributed) replay.replayCoordinator(untraced.serveCheckpoint);
  tracer.writeChromeTrace(tracePath, replay.cellLabels());

  const Counters& c = replay.counters();
  const std::uint64_t rows = dataRows(untraced.report);
  const std::uint64_t bad = std::min(differingRows(report, untraced.report),
                                     rows);
  if (bad > 0) {
    std::fprintf(stderr,
                 "[refine-bench] traced replay: %llu report row(s) differ from "
                 "the untraced run\n",
                 static_cast<unsigned long long>(bad));
  }
  tally.attempted += rows + c.oracleTrials + c.shadowChecks;
  tally.failed += bad + c.oracleMismatches + c.shadowMismatches;

  auto self = tracer.selfSeconds();
  auto sec = [&self](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second;
  };
  std::vector<double> micros = c.trialMicros;
  std::sort(micros.begin(), micros.end());
  const double n = static_cast<double>(c.trials);
  // The highest percentile that still has at least ten samples beyond it.
  double tailPct = 50.0;
  for (const double p : {99.99, 99.9, 99.0, 90.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) {
      tailPct = p;
      break;
    }
  }
  const double trialSeconds = sec("campaign.trial");
  const double classifySeconds = sec("campaign.trial.classify");
  auto toolSeconds = [&c](const char* tool) {
    const auto it = c.toolSeconds.find(tool);
    return it == c.toolSeconds.end() ? 0.0 : it->second;
  };
  const double busyWall = static_cast<double>(untraced.trialThreads) *
                          (untraced.passSeconds - untraced.setupSeconds);

  std::vector<Metric> m = {
      {"frontend.s", sec("frontend"), "s"},
      {"frontend.ir_instrs", double(c.frontendIr), "instrs", true},
      {"opt.s", sec("opt"), "s"},
      {"opt.ir_instrs", double(c.optIr), "instrs", true},
      {"opt.protect.s", sec("opt.protect"), "s"},
      {"opt.protect.ir_instrs", double(c.protectIr), "instrs", true},
      {"fi.llfi_pass.s", sec("fi.llfi_pass"), "s"},
      {"fi.refine_compile.s", sec("fi.refine_compile"), "s"},
      {"fi.pinfi_classify.s", sec("fi.pinfi_classify"), "s"},
      {"fi.static_sites", double(c.staticSites), "count", true},
      {"backend.s", sec("backend"), "s"},
      {"backend.machine_instrs", double(c.machineInstrs), "instrs", true},
      {"vm.predecode.s", sec("vm.predecode"), "s"},
      {"vm.jit.compile_s", sec("vm.jit.compile"), "s"},
      {"campaign.build.s", sec("campaign.build"), "s"},
      {"campaign.profile.s", sec("campaign.profile"), "s"},
      {"campaign.profile.golden_instrs", double(c.goldenInstrs), "instrs",
       true},
      {"campaign.profile.snapshots", double(c.snapshots), "count", true},
      {"campaign.trial.s", trialSeconds, "s"},
      {"campaign.trial.n", n, "count", true},
      {"campaign.trial.p50_us", percentile(micros, 50.0), "us"},
      {"campaign.trial.tail_us", percentile(micros, tailPct), "us"},
      {"campaign.trial.tail_pct", tailPct, "%"},
      {"campaign.trial.executed_instrs", double(c.executed), "instrs", true},
      {"campaign.trial.ff_instrs", double(c.fastForwarded), "instrs", true},
      {"campaign.trial.jit_instrs", double(c.jit), "instrs", true},
      {"campaign.trial.restored_bytes", double(c.restored), "bytes", true},
      {"campaign.trial.allocs", double(c.allocs), "count", true},
      {"campaign.trial.vm_mips", double(c.executed) / trialSeconds / 1e6,
       "MIPS"},
      {"campaign.trial.classify_s", classifySeconds, "s"},
      {"campaign.trial.timeouts", double(c.timeouts), "count", true},
      {"campaign.trial.benign_frac", double(c.benign) / n, "frac"},
      {"campaign.trial.LLFI.s", toolSeconds("LLFI"), "s"},
      {"campaign.trial.REFINE.s", toolSeconds("REFINE"), "s"},
      {"campaign.trial.PINFI.s", toolSeconds("PINFI"), "s"},
      {"fig5.llfi_over_pinfi", toolSeconds("LLFI") / toolSeconds("PINFI"),
       "ratio"},
      {"fig5.refine_over_pinfi",
       toolSeconds("REFINE") / toolSeconds("PINFI"), "ratio"},
      {"campaign.engine.busy_s", untraced.busySeconds, "s"},
      {"campaign.engine.utilization", untraced.busySeconds / busyWall,
       "frac"},
      {"campaign.persist.append_s", sec("campaign.persist.append"), "s"},
      {"campaign.persist.records", double(c.persistRecords), "count", true},
      {"campaign.persist.bytes", double(c.persistBytes), "bytes", true},
      {"campaign.report.merge_s", sec("campaign.report.merge"), "s"},
      {"campaign.report.csv_s", sec("campaign.report.csv"), "s"},
      {"campaign.report.bytes", double(c.reportBytes), "bytes", true},
      {"campaign.oracle.s", sec("campaign.oracle"), "s"},
      {"campaign.oracle.trials", double(c.oracleTrials), "count", true},
      {"campaign.oracle.mismatches", double(c.oracleMismatches), "count",
       true},
      {"trace.overhead_frac",
       (trialSeconds + classifySeconds) / untraced.busySeconds - 1.0, "frac"},
  };
  if (w.planned) {
    // Every planned record is one (cell, round).
    m.push_back({"campaign.planner.s", sec("campaign.planner"), "s"});
    m.push_back({"campaign.planner.trials_used", n, "count", true});
    m.push_back({"campaign.planner.rounds", double(c.persistRecords), "count",
                 true});
  }
  if (w.distributed) {
    m.push_back({"campaign.coordinator.grant_s",
                 sec("campaign.coordinator.grant"), "s"});
    m.push_back({"campaign.coordinator.ingest_s",
                 sec("campaign.coordinator.ingest"), "s"});
    m.push_back({"campaign.coordinator.grants", double(c.grants), "count",
                 true});
    m.push_back({"campaign.coordinator.records", double(c.ingested), "count",
                 true});
    m.push_back({"campaign.coordinator.wire_bytes", double(c.wireBytes),
                 "bytes", true});
    m.push_back({"campaign.coordinator.reissues", double(c.reissues), "count",
                 true});
    m.push_back({"campaign.coordinator.stale", double(c.stale), "count",
                 true});
  }
  return m;
}

}  // namespace refine::e2e
