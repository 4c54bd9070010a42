// Deterministic fault-injection sweep (the crash-point harness): a crash is
// injected at every log append/flush/compaction site a workload reaches, in
// synchronous and asynchronous logging mode and over the in-memory and the
// file-backed storage backend; transient subsystem failures of retriable
// activities run underneath. After every injected crash the scheduler must
// recover to a state whose completed schedule is still prefix-reducible
// (PRED, Def. 10) and process-recoverable (Proc-REC, Def. 11), no key-value
// entry may ever go negative (a compensation is never applied twice), and
// the scheduler must remain operational.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fingerprint.h"
#include "common/str_util.h"
#include "core/flex_structure.h"
#include "core/pred.h"
#include "core/recoverability.h"
#include "core/scheduler.h"
#include "core/schedule.h"
#include "log/file_backend.h"
#include "testing/fault_injector.h"
#include "testing/mini_world.h"
#include "workload/fault_workload.h"
#include "workload/semantic_world.h"

namespace tpm {
namespace {

using testing::FaultInjector;
using testing::MiniWorld;
using testing::WriteFailingSeed;

struct ScenarioDefs {
  std::vector<const ProcessDef*> workload;
  /// A one-activity process submitted after recovery to prove the
  /// scheduler is still operational (built up front so its services are
  /// registered with the scheduler).
  const ProcessDef* probe = nullptr;
};

struct Scenario {
  std::string name;
  std::function<ScenarioDefs(MiniWorld*)> build;
};

struct Flavor {
  std::string name;
  bool synchronous;
  bool file_backed;
};

/// Workloads chosen to reach every log site: pivot failures force group
/// aborts (COMP records and compensation gates), an alternative branch
/// exercises subtree compensation, cross-process conflicts force cascading
/// aborts, and scripted transient failures of retriable activities run
/// against the subsystem retry policy.
std::vector<Scenario> Scenarios() {
  return {
      {"cascade",
       [](MiniWorld* w) {
         ScenarioDefs d;
         d.workload.push_back(w->MakeChain("p1", "c:a c:b p:x r:y"));
         d.workload.push_back(w->MakeChain("p2", "c:b r:y"));
         d.probe = w->MakeChain("probe", "c:a");
         // The pivot fails once: p1 aborts, compensating b and a; p2's
         // conflicting work on b is cascade-aborted first (Lemma 2).
         w->subsystem()->ScheduleFailures(w->AddServiceFor("x"), 1);
         // Transient failures of the retriable activity; the subsystem
         // masks one per invocation, the rest surface as Def. 3 retries.
         w->subsystem()->ScheduleFailures(w->AddServiceFor("y"), 3);
         w->subsystem()->SetRetryPolicy(
             RetryPolicy{/*max_attempts=*/2, /*backoff_base_ticks=*/1});
         return d;
       }},
      {"branching",
       [](MiniWorld* w) {
         ScenarioDefs d;
         d.workload.push_back(
             w->MakeBranching("b1", "pre", "piv", "mid", "deep", "alt"));
         d.workload.push_back(w->MakeChain("b2", "c:mid r:alt"));
         d.probe = w->MakeChain("probe", "c:pre");
         // The deep pivot fails once: b1 compensates mid and switches to
         // its all-retriable alternative branch.
         w->subsystem()->ScheduleFailures(w->AddServiceFor("deep"), 1);
         w->subsystem()->ScheduleFailures(w->AddServiceFor("alt"), 2);
         w->subsystem()->SetRetryPolicy(
             RetryPolicy{/*max_attempts=*/2, /*backoff_base_ticks=*/0});
         return d;
       }},
  };
}

std::string SweepLogPath(const std::string& tag) {
  return ::testing::TempDir() + "tpm_sweep_" + tag + "_" + StrCat(::getpid()) +
         ".log";
}

Result<std::unique_ptr<RecoveryLog>> MakeLog(const Flavor& flavor,
                                             const std::string& path) {
  if (!flavor.file_backed) {
    return std::make_unique<RecoveryLog>(flavor.synchronous);
  }
  TPM_ASSIGN_OR_RETURN(std::unique_ptr<FileStorageBackend> backend,
                       FileStorageBackend::Open(path));
  return std::make_unique<RecoveryLog>(std::move(backend),
                                       flavor.synchronous);
}

/// Submits the workload, takes a mid-run checkpoint (so the sweep also
/// reaches the compaction sites), and runs to completion. An injected log
/// crash surfaces as kUnavailable from Submit, Checkpoint or Run.
Status DriveWorkload(TransactionalProcessScheduler* scheduler,
                     const std::vector<const ProcessDef*>& defs) {
  for (const ProcessDef* def : defs) {
    if (def == nullptr) {
      return Status::Internal("scenario def failed to build");
    }
    Result<ProcessId> pid = scheduler->Submit(def);
    if (!pid.ok()) return pid.status();
  }
  bool more = true;
  for (int i = 0; i < 4 && more; ++i) {
    TPM_ASSIGN_OR_RETURN(more, scheduler->Step());
  }
  if (more) {
    TPM_RETURN_IF_ERROR(scheduler->Checkpoint());
  }
  return scheduler->Run(200000);
}

/// All correctness criteria asserted after each injected crash + recovery.
/// Returns a failure description, empty on success.
std::string CheckInvariants(TransactionalProcessScheduler* scheduler,
                            MiniWorld* world, const ProcessDef* probe) {
  std::string failures;
  Result<bool> pred = IsPRED(scheduler->history(), scheduler->conflict_spec());
  if (!pred.ok()) {
    failures += " PRED-check-error:" + pred.status().ToString();
  } else if (!*pred) {
    failures += " not-PRED:" + scheduler->history().ToString();
  }
  if (!IsProcessRecoverable(scheduler->history(),
                            scheduler->conflict_spec())) {
    failures += " not-ProcREC:" + scheduler->history().ToString();
  }
  for (const auto& [key, value] : world->subsystem()->store().Snapshot()) {
    if (value < 0) {
      failures += StrCat(" negative-value:", key, "=", value);
    }
  }
  // The scheduler must still schedule: run the probe process end to end.
  Result<ProcessId> pid = scheduler->Submit(probe);
  if (!pid.ok()) {
    failures += " probe-submit:" + pid.status().ToString();
  } else {
    Status run = scheduler->Run(200000);
    if (!run.ok()) {
      failures += " probe-run:" + run.ToString();
    } else if (scheduler->OutcomeOf(*pid) != ProcessOutcome::kCommitted) {
      failures += " probe-not-committed";
    }
  }
  return failures;
}

class FaultInjectionSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

void RunSweep(const Scenario& scenario, const Flavor& flavor) {
  const std::string tag = scenario.name + "_" + flavor.name;
  const std::string path = SweepLogPath(tag);

  // Dry run: count the crash-point hits T of the undisturbed workload.
  FaultInjector injector;
  int64_t total_hits = 0;
  {
    std::remove(path.c_str());
    MiniWorld world;
    ScenarioDefs defs = scenario.build(&world);
    auto log = MakeLog(flavor, path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    (*log)->wal()->SetCrashPointListener(&injector);
    TransactionalProcessScheduler scheduler({}, log->get());
    ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
    Status run = DriveWorkload(&scheduler, defs.workload);
    ASSERT_TRUE(run.ok()) << tag << ": " << run.ToString();
    total_hits = injector.hits();
  }
  ASSERT_GT(total_hits, 0) << tag;

  // The sweep: crash at hit k, recover, assert the criteria.
  for (int64_t k = 1; k <= total_hits; ++k) {
    std::remove(path.c_str());
    MiniWorld world;
    ScenarioDefs defs = scenario.build(&world);
    ASSERT_NE(defs.probe, nullptr);
    auto log_or = MakeLog(flavor, path);
    ASSERT_TRUE(log_or.ok()) << log_or.status().ToString();
    std::unique_ptr<RecoveryLog> log = std::move(*log_or);
    log->wal()->SetCrashPointListener(&injector);
    injector.ArmAt(k);
    injector.ResetCounts();

    auto scheduler = std::make_unique<TransactionalProcessScheduler>(
        SchedulerOptions{}, log.get());
    ASSERT_TRUE(scheduler->RegisterSubsystem(world.subsystem()).ok());

    Status run = DriveWorkload(scheduler.get(), defs.workload);
    ASSERT_TRUE(injector.triggered())
        << tag << " k=" << k << " (deterministic rerun missed the hit): "
        << run.ToString();
    ASSERT_TRUE(run.IsUnavailable())
        << tag << " k=" << k << ": " << run.ToString();
    const std::string site = injector.triggered_site();

    // Crash-and-restart. The in-memory flavor restarts the log component
    // in place; the file flavor kills scheduler and log and reopens the
    // on-disk file, as a restarted process would (the subsystems, being
    // durable, survive either way).
    Status recovered;
    if (flavor.file_backed) {
      scheduler.reset();
      log.reset();
      auto reopened = MakeLog(flavor, path);
      ASSERT_TRUE(reopened.ok())
          << tag << " k=" << k << " site=" << site << ": "
          << reopened.status().ToString();
      log = std::move(*reopened);
      scheduler = std::make_unique<TransactionalProcessScheduler>(
          SchedulerOptions{}, log.get());
      ASSERT_TRUE(scheduler->RegisterSubsystem(world.subsystem()).ok());
    } else {
      log->Crash();
    }
    recovered = scheduler->Recover(world.DefsByName());
    std::string failures;
    if (!recovered.ok()) {
      failures = " recover:" + recovered.ToString();
    } else {
      failures = CheckInvariants(scheduler.get(), &world, defs.probe);
    }
    if (!failures.empty()) {
      std::string seed_file = WriteFailingSeed(tag, k, site, failures);
      FAIL() << tag << " crash at hit " << k << " (site " << site
             << "):" << failures << "\n(reproducer appended to " << seed_file
             << ")";
    }
  }
  std::remove(path.c_str());
}

TEST(FaultInjectionSweep, MemorySynchronous) {
  for (const Scenario& scenario : Scenarios()) {
    RunSweep(scenario, Flavor{"mem_sync", /*synchronous=*/true,
                              /*file_backed=*/false});
  }
}

TEST(FaultInjectionSweep, MemoryAsynchronous) {
  for (const Scenario& scenario : Scenarios()) {
    RunSweep(scenario, Flavor{"mem_async", /*synchronous=*/false,
                              /*file_backed=*/false});
  }
}

TEST(FaultInjectionSweep, FileSynchronous) {
  for (const Scenario& scenario : Scenarios()) {
    RunSweep(scenario, Flavor{"file_sync", /*synchronous=*/true,
                              /*file_backed=*/true});
  }
}

TEST(FaultInjectionSweep, FileAsynchronous) {
  for (const Scenario& scenario : Scenarios()) {
    RunSweep(scenario, Flavor{"file_async", /*synchronous=*/false,
                              /*file_backed=*/true});
  }
}

// ---------------------------------------------------------------------------
// Kill-restart determinism: a file-backed scheduler killed after the
// workload completed and restarted from the on-disk log reaches the same
// state fingerprint (process outcomes + subsystem stores) as the run that
// was never interrupted.

uint64_t StateFingerprint(TransactionalProcessScheduler* scheduler,
                          MiniWorld* world, int64_t num_pids) {
  uint64_t hash = 1469598103934665603ULL;
  for (int64_t p = 1; p <= num_pids; ++p) {
    hash = Fnv1a(hash, StrCat("P", p, "=",
                              static_cast<int>(scheduler->OutcomeOf(
                                  ProcessId(p)))));
  }
  for (const auto& [key, value] : world->subsystem()->store().Snapshot()) {
    hash = Fnv1a(hash, StrCat(key, "=", value));
  }
  return hash;
}

TEST(FaultInjectionSweep, FileBackedRestartMatchesUncrashedFingerprint) {
  for (const Scenario& scenario : Scenarios()) {
    // Reference: the run that is never interrupted.
    uint64_t reference = 0;
    int64_t num_pids = 0;
    {
      MiniWorld world;
      ScenarioDefs defs = scenario.build(&world);
      RecoveryLog log;
      TransactionalProcessScheduler scheduler({}, &log);
      ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
      ASSERT_TRUE(DriveWorkload(&scheduler, defs.workload).ok());
      num_pids = static_cast<int64_t>(defs.workload.size());
      reference = StateFingerprint(&scheduler, &world, num_pids);
    }

    // Same workload over the file backend; kill everything but the world
    // (the subsystems are the durable periphery), restart from disk.
    const std::string path = SweepLogPath(scenario.name + "_fingerprint");
    std::remove(path.c_str());
    MiniWorld world;
    ScenarioDefs defs = scenario.build(&world);
    {
      auto backend = FileStorageBackend::Open(path);
      ASSERT_TRUE(backend.ok());
      RecoveryLog log(std::move(*backend));
      TransactionalProcessScheduler scheduler({}, &log);
      ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
      ASSERT_TRUE(DriveWorkload(&scheduler, defs.workload).ok());
    }  // kill: scheduler and log destroyed, only the file remains
    auto backend = FileStorageBackend::Open(path);
    ASSERT_TRUE(backend.ok());
    RecoveryLog log(std::move(*backend));
    TransactionalProcessScheduler scheduler({}, &log);
    ASSERT_TRUE(scheduler.RegisterSubsystem(world.subsystem()).ok());
    ASSERT_TRUE(scheduler.Recover(world.DefsByName()).ok()) << scenario.name;
    EXPECT_EQ(StateFingerprint(&scheduler, &world, num_pids), reference)
        << scenario.name;
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Combined WAL + subsystem sweep: ONE injector is attached to both the
// log's crash points (wal/*) and the fault layer's invocation sites
// (subsystem/invoke, subsystem/prepare, subsystem/commit), and armed at
// every hit the workload reaches. A hit at a wal site crashes the log —
// recover and assert as above. A hit at a subsystem site is absorbed by
// the failure-domain machinery (a one-shot aborted invocation, or a lost
// phase-two decision the coordinator re-drives) — the run must complete
// on its own, with the same invariants. Runs under kPrepared2PC so the
// deferral produces prepared branches and the commit site is reached.

struct CombinedWorldRun {
  std::unique_ptr<FaultDomainWorld> world;
  std::vector<std::unique_ptr<ProcessDef>> owned_defs;
  std::vector<const ProcessDef*> workload;
  const ProcessDef* probe = nullptr;

  std::map<std::string, const ProcessDef*> DefsByName() const {
    std::map<std::string, const ProcessDef*> defs = world->DefsByName();
    for (const auto& def : owned_defs) defs[def->name()] = def.get();
    return defs;
  }
};

CombinedWorldRun BuildCombinedWorld(FaultInjector* injector) {
  CombinedWorldRun r;
  FaultDomainOptions options;
  options.num_subsystems = 2;
  options.seed = 5;
  r.world = std::make_unique<FaultDomainWorld>(options);
  for (int i = 0; i < r.world->num_subsystems(); ++i) {
    r.world->faulty(i)->SetCrashPointListener(injector);
  }
  // The cross-process conflict lives on key S, touched only by retriable
  // activities of processes that cannot abort past it: q1 is all-retriable
  // (assured commit), q2's retriable consumer of S runs while q1 is still
  // active — an ActiveBlocker, so under kPrepared2PC the Lemma 1 deferral
  // turns it into a prepared branch whose release drives CommitPrepared
  // through the subsystem/commit site. (Aborting processes must not share
  // keys with committing ones here: the Proc-REC check is syntactic and
  // does not reduce away compensated work.)
  auto finish = [&r](std::unique_ptr<ProcessDef> def, bool edges_ok) {
    const bool ok = edges_ok && def->Validate().ok() &&
                    ValidateWellFormedFlex(*def).ok();
    r.workload.push_back(ok ? def.get() : nullptr);
    r.owned_defs.push_back(std::move(def));
  };
  auto q1 = std::make_unique<ProcessDef>("q1");
  {
    ActivityId r1 = q1->AddActivity("r1", ActivityKind::kRetriable,
                                    r.world->AddServiceOn(0, "S"));
    ActivityId r2 = q1->AddActivity("r2", ActivityKind::kRetriable,
                                    r.world->AddServiceOn(0, "k1a"));
    ActivityId r3 = q1->AddActivity("r3", ActivityKind::kRetriable,
                                    r.world->AddServiceOn(0, "k1b"));
    const bool edges_ok =
        q1->AddEdge(r1, r2).ok() && q1->AddEdge(r2, r3).ok();
    finish(std::move(q1), edges_ok);
  }
  auto q2 = std::make_unique<ProcessDef>("q2");
  {
    ActivityId c1 = q2->AddActivity("c1", ActivityKind::kCompensatable,
                                    r.world->AddServiceOn(0, "k2a"),
                                    r.world->SubServiceOn(0, "k2a"));
    ActivityId rr = q2->AddActivity("r", ActivityKind::kRetriable,
                                    r.world->AddServiceOn(0, "S"));
    const bool edges_ok = q2->AddEdge(c1, rr).ok();
    finish(std::move(q2), edges_ok);
  }
  // Alternative-bearing process on disjoint keys: exercises compensation,
  // alternative switching and abort paths without clouding the S-conflict.
  r.workload.push_back(r.world->MakeAlternativeProcess("q3", 0, 1, 0, 7));
  r.probe = r.world->MakeChainProcess("probe", 1, 1, 8);
  return r;
}

SchedulerOptions CombinedSchedulerOptions(FaultDomainWorld* world) {
  SchedulerOptions options;
  options.defer_mode = DeferMode::kPrepared2PC;
  options.clock = world->clock();
  return options;
}

std::string CombinedInvariants(TransactionalProcessScheduler* scheduler,
                               FaultDomainWorld* world,
                               const ProcessDef* probe) {
  std::string failures;
  Result<bool> pred = IsPRED(scheduler->history(), scheduler->conflict_spec());
  if (!pred.ok()) {
    failures += " PRED-check-error:" + pred.status().ToString();
  } else if (!*pred) {
    failures += " not-PRED:" + scheduler->history().ToString();
  }
  if (!IsProcessRecoverable(scheduler->history(),
                            scheduler->conflict_spec())) {
    failures += " not-ProcREC:" + scheduler->history().ToString();
  }
  if (world->AnyNegativeValue()) failures += " negative-kv-value";
  Result<ProcessId> pid = scheduler->Submit(probe);
  if (!pid.ok()) {
    failures += " probe-submit:" + pid.status().ToString();
  } else {
    Status run = scheduler->Run(200000);
    if (!run.ok()) {
      failures += " probe-run:" + run.ToString();
    } else if (scheduler->OutcomeOf(*pid) != ProcessOutcome::kCommitted) {
      failures += " probe-not-committed";
    }
  }
  return failures;
}

void RunCombinedSweep(bool file_backed) {
  const std::string tag =
      std::string("combined_") + (file_backed ? "file" : "mem");
  const std::string path = SweepLogPath(tag);
  Flavor flavor{tag, /*synchronous=*/true, file_backed};
  FaultInjector injector;

  // Dry run: count hits across BOTH fault domains.
  int64_t total_hits = 0;
  {
    std::remove(path.c_str());
    CombinedWorldRun r = BuildCombinedWorld(&injector);
    auto log = MakeLog(flavor, path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    (*log)->wal()->SetCrashPointListener(&injector);
    TransactionalProcessScheduler scheduler(
        CombinedSchedulerOptions(r.world.get()), log->get());
    ASSERT_TRUE(r.world->RegisterAll(&scheduler).ok());
    Status run = DriveWorkload(&scheduler, r.workload);
    ASSERT_TRUE(run.ok()) << tag << ": " << run.ToString();
    total_hits = injector.hits();
    // The sweep really spans both domains, including phase two.
    EXPECT_GT(injector.site_hits().count("subsystem/invoke"), 0u) << tag;
    EXPECT_GT(injector.site_hits().count("subsystem/prepare"), 0u) << tag;
    EXPECT_GT(injector.site_hits().count("subsystem/commit"), 0u) << tag;
  }
  ASSERT_GT(total_hits, 0) << tag;

  for (int64_t k = 1; k <= total_hits; ++k) {
    std::remove(path.c_str());
    FaultInjector armed;
    CombinedWorldRun r = BuildCombinedWorld(&armed);
    ASSERT_NE(r.probe, nullptr);
    auto log_or = MakeLog(flavor, path);
    ASSERT_TRUE(log_or.ok()) << log_or.status().ToString();
    std::unique_ptr<RecoveryLog> log = std::move(*log_or);
    log->wal()->SetCrashPointListener(&armed);
    armed.ArmAt(k);

    auto scheduler = std::make_unique<TransactionalProcessScheduler>(
        CombinedSchedulerOptions(r.world.get()), log.get());
    ASSERT_TRUE(r.world->RegisterAll(scheduler.get()).ok());
    Status run = DriveWorkload(scheduler.get(), r.workload);
    ASSERT_TRUE(armed.triggered())
        << tag << " k=" << k << " (deterministic rerun missed the hit): "
        << run.ToString();
    const std::string site = armed.triggered_site();

    std::string failures;
    if (site.rfind("subsystem/", 0) == 0) {
      // Absorbed by the failure-domain machinery: no crash, the run
      // completes and every process reached a terminal state.
      if (!run.ok()) {
        failures += " absorbed-run:" + run.ToString();
      }
      for (int p = 1; p <= static_cast<int>(r.workload.size()); ++p) {
        if (scheduler->OutcomeOf(ProcessId(p)) == ProcessOutcome::kActive) {
          failures += StrCat(" non-terminal:P", p);
        }
      }
      if (failures.empty()) {
        failures = CombinedInvariants(scheduler.get(), r.world.get(), r.probe);
      }
    } else {
      // A log crash: recover, then assert.
      if (!run.IsUnavailable()) {
        failures += " expected-crash:" + run.ToString();
      } else {
        if (flavor.file_backed) {
          scheduler.reset();
          log.reset();
          auto reopened = MakeLog(flavor, path);
          ASSERT_TRUE(reopened.ok())
              << tag << " k=" << k << ": " << reopened.status().ToString();
          log = std::move(*reopened);
          log->wal()->SetCrashPointListener(&armed);
          armed.ArmAt(0);
          scheduler = std::make_unique<TransactionalProcessScheduler>(
              CombinedSchedulerOptions(r.world.get()), log.get());
          ASSERT_TRUE(r.world->RegisterAll(scheduler.get()).ok());
        } else {
          armed.ArmAt(0);
          log->Crash();
        }
        Status recovered = scheduler->Recover(r.DefsByName());
        if (!recovered.ok()) {
          failures = " recover:" + recovered.ToString();
        } else {
          failures =
              CombinedInvariants(scheduler.get(), r.world.get(), r.probe);
        }
      }
    }
    if (!failures.empty()) {
      std::string seed_file = WriteFailingSeed(tag, k, site, failures);
      FAIL() << tag << " fault at hit " << k << " (site " << site
             << "):" << failures << "\n(reproducer appended to " << seed_file
             << ")";
    }
  }
  std::remove(path.c_str());
}

TEST(FaultInjectionSweep, CombinedWalAndSubsystemMemory) {
  RunCombinedSweep(/*file_backed=*/false);
}

TEST(FaultInjectionSweep, CombinedWalAndSubsystemFile) {
  RunCombinedSweep(/*file_backed=*/true);
}

// ---------------------------------------------------------------------------
// Semantic-ADT WAL sweep: the mixed SemanticWorld (escrow counters + token
// queue + KV behind the full failure-domain stack, fault-free so the hit
// sequence is deterministic) is driven through every WAL crash point it
// reaches, in both conflict modes — op commutativity tables on (adt) and
// reduced to read/write conflicts (rw) — under kPrepared2PC so the sweep
// also crashes between the prepare and commit of the ADTs' local
// transactions. After every crash + recovery: PRED on the full history,
// Proc-REC on the committed projection (the workload shares hot ADT state,
// see CommittedProjection in core/schedule.h), the combined ADT invariants (escrow safety
// envelope, queue token consistency, no negative KV value), and a fresh
// order probe must still run to commit.

struct SemanticRun {
  std::unique_ptr<SemanticWorld> world;
  std::vector<const ProcessDef*> workload;
  const ProcessDef* probe = nullptr;
};

SemanticRun BuildSemanticRun() {
  SemanticRun r;
  SemanticWorldOptions options;
  options.seed = 11;
  options.escrow_initial = 40;
  // More seeded tokens than committed dequeues (one consumer): an aborting
  // producer's fresh token can never have reached the queue head, so its
  // remove-compensation always finds the token it enqueued.
  options.queue_initial_tokens = 6;
  r.world = std::make_unique<SemanticWorld>(options);
  for (int i = 0; i < 3; ++i) {
    r.workload.push_back(r.world->MakeOrderProcess(StrCat("order", i), i));
  }
  r.workload.push_back(r.world->MakeConsumeProcess("consume", 3));
  r.workload.push_back(r.world->MakeRefillProcess("refill", 4));
  r.probe = r.world->MakeOrderProcess("probe", 9);
  return r;
}

SchedulerOptions SemanticSchedulerOptions(SemanticWorld* world, bool use_op) {
  SchedulerOptions options;
  options.defer_mode = DeferMode::kPrepared2PC;
  options.clock = world->clock();
  options.use_op_commutativity = use_op;
  return options;
}

std::string SemanticInvariants(TransactionalProcessScheduler* scheduler,
                               SemanticWorld* world, const ProcessDef* probe) {
  std::string failures;
  Result<bool> pred = IsPRED(scheduler->history(), scheduler->conflict_spec());
  if (!pred.ok()) {
    failures += " PRED-check-error:" + pred.status().ToString();
  } else if (!*pred) {
    failures += " not-PRED:" + scheduler->history().ToString();
  }
  if (!IsProcessRecoverable(CommittedProjection(scheduler->history()),
                            scheduler->conflict_spec())) {
    failures += " not-ProcREC:" + scheduler->history().ToString();
  }
  Status adt = world->CheckAdtInvariants();
  if (!adt.ok()) failures += " adt:" + adt.ToString();
  Result<ProcessId> pid = scheduler->Submit(probe);
  if (!pid.ok()) {
    failures += " probe-submit:" + pid.status().ToString();
  } else {
    Status run = scheduler->Run(200000);
    if (!run.ok()) {
      failures += " probe-run:" + run.ToString();
    } else if (scheduler->OutcomeOf(*pid) != ProcessOutcome::kCommitted) {
      failures += " probe-not-committed";
    }
  }
  return failures;
}

void RunSemanticSweep(bool file_backed, bool use_op) {
  const std::string tag = StrCat("semantic_", file_backed ? "file" : "mem",
                                 use_op ? "_adt" : "_rw");
  const std::string path = SweepLogPath(tag);
  Flavor flavor{tag, /*synchronous=*/true, file_backed};

  // Dry run: count the crash-point hits of the undisturbed workload.
  FaultInjector injector;
  int64_t total_hits = 0;
  {
    std::remove(path.c_str());
    SemanticRun r = BuildSemanticRun();
    auto log = MakeLog(flavor, path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    (*log)->wal()->SetCrashPointListener(&injector);
    TransactionalProcessScheduler scheduler(
        SemanticSchedulerOptions(r.world.get(), use_op), log->get());
    ASSERT_TRUE(r.world->RegisterAll(&scheduler).ok());
    Status run = DriveWorkload(&scheduler, r.workload);
    ASSERT_TRUE(run.ok()) << tag << ": " << run.ToString();
    total_hits = injector.hits();
  }
  ASSERT_GT(total_hits, 0) << tag;

  for (int64_t k = 1; k <= total_hits; ++k) {
    std::remove(path.c_str());
    FaultInjector armed;
    SemanticRun r = BuildSemanticRun();
    ASSERT_NE(r.probe, nullptr);
    auto log_or = MakeLog(flavor, path);
    ASSERT_TRUE(log_or.ok()) << log_or.status().ToString();
    std::unique_ptr<RecoveryLog> log = std::move(*log_or);
    log->wal()->SetCrashPointListener(&armed);
    armed.ArmAt(k);

    auto scheduler = std::make_unique<TransactionalProcessScheduler>(
        SemanticSchedulerOptions(r.world.get(), use_op), log.get());
    ASSERT_TRUE(r.world->RegisterAll(scheduler.get()).ok());
    Status run = DriveWorkload(scheduler.get(), r.workload);
    ASSERT_TRUE(armed.triggered())
        << tag << " k=" << k << " (deterministic rerun missed the hit): "
        << run.ToString();
    ASSERT_TRUE(run.IsUnavailable())
        << tag << " k=" << k << ": " << run.ToString();
    const std::string site = armed.triggered_site();

    if (flavor.file_backed) {
      scheduler.reset();
      log.reset();
      auto reopened = MakeLog(flavor, path);
      ASSERT_TRUE(reopened.ok())
          << tag << " k=" << k << " site=" << site << ": "
          << reopened.status().ToString();
      log = std::move(*reopened);
      scheduler = std::make_unique<TransactionalProcessScheduler>(
          SemanticSchedulerOptions(r.world.get(), use_op), log.get());
      ASSERT_TRUE(r.world->RegisterAll(scheduler.get()).ok());
    } else {
      log->Crash();
    }
    Status recovered = scheduler->Recover(r.world->DefsByName());
    std::string failures;
    if (!recovered.ok()) {
      failures = " recover:" + recovered.ToString();
    } else {
      failures = SemanticInvariants(scheduler.get(), r.world.get(), r.probe);
    }
    if (!failures.empty()) {
      std::string seed_file = WriteFailingSeed(tag, k, site, failures);
      FAIL() << tag << " crash at hit " << k << " (site " << site
             << "):" << failures << "\n(reproducer appended to " << seed_file
             << ")";
    }
  }
  std::remove(path.c_str());
}

TEST(FaultInjectionSweep, SemanticAdtMemory) {
  RunSemanticSweep(/*file_backed=*/false, /*use_op=*/true);
  RunSemanticSweep(/*file_backed=*/false, /*use_op=*/false);
}

TEST(FaultInjectionSweep, SemanticAdtFile) {
  RunSemanticSweep(/*file_backed=*/true, /*use_op=*/true);
  RunSemanticSweep(/*file_backed=*/true, /*use_op=*/false);
}

// ---------------------------------------------------------------------------
// Crash-inside-recovery sweep: for every workload crash point k, the first
// Recover is itself crashed at each WAL crash point j it reaches, and a
// second Recover must finish the job. Besides the usual criteria (PRED,
// Proc-REC, no negative value, a probe still commits), the subsystem state
// after the second Recover must equal the state after the uncrashed first
// Recover of the same cut: every compensation and forward recovery step
// took effect exactly once — none lost to the crash, none applied twice.

/// A crashable world as the recovery sweep needs it; `owner` keeps the
/// world the other members point into alive.
struct RecoveryWorld {
  std::shared_ptr<void> owner;
  SchedulerOptions options;
  std::function<Status(TransactionalProcessScheduler*)> register_all;
  std::vector<const ProcessDef*> workload;
  std::map<std::string, const ProcessDef*> defs_by_name;
  /// Digest of the subsystem objects' state.
  std::function<uint64_t()> store_fingerprint;
  /// The sweep's correctness criteria, including the probe run.
  std::function<std::string(TransactionalProcessScheduler*)> invariants;
};

RecoveryWorld MiniRecoveryWorld(const Scenario& scenario) {
  auto world = std::make_shared<MiniWorld>();
  ScenarioDefs defs = scenario.build(world.get());
  RecoveryWorld r;
  r.owner = world;
  r.register_all = [w = world.get()](TransactionalProcessScheduler* s) {
    return s->RegisterSubsystem(w->subsystem());
  };
  r.workload = defs.workload;
  r.defs_by_name = world->DefsByName();
  r.store_fingerprint = [w = world.get()] {
    uint64_t h = kFnv1aOffsetBasis;
    for (const auto& [key, value] : w->subsystem()->store().Snapshot()) {
      h = Fnv1a(h, StrCat(key, "=", value));
    }
    return h;
  };
  r.invariants = [w = world.get(),
                  probe = defs.probe](TransactionalProcessScheduler* s) {
    return CheckInvariants(s, w, probe);
  };
  return r;
}

RecoveryWorld SemanticRecoveryWorld() {
  auto run = std::make_shared<SemanticRun>(BuildSemanticRun());
  SemanticWorld* w = run->world.get();
  RecoveryWorld r;
  r.owner = run;
  r.options = SemanticSchedulerOptions(w, /*use_op=*/true);
  r.register_all = [w](TransactionalProcessScheduler* s) {
    return w->RegisterAll(s);
  };
  r.workload = run->workload;
  r.defs_by_name = w->DefsByName();
  // Queue lengths, not token values: a forward enqueue re-run after a
  // presumed abort draws a fresh token, which is not a second effect.
  r.store_fingerprint = [w] {
    uint64_t h = kFnv1aOffsetBasis;
    for (const auto& [key, value] : w->kv()->store().Snapshot()) {
      h = Fnv1a(h, StrCat("kv:", key, "=", value));
    }
    for (const auto& [counter, balance] : w->escrow()->Snapshot()) {
      h = Fnv1a(h, StrCat("escrow:", counter, "=", balance));
    }
    for (const auto& [queue, tokens] : w->queue()->Snapshot()) {
      h = Fnv1a(h, StrCat("queue:", queue, "=", tokens.size()));
    }
    return h;
  };
  r.invariants = [w, probe = run->probe](TransactionalProcessScheduler* s) {
    return SemanticInvariants(s, w, probe);
  };
  return r;
}

/// World, log and scheduler after a crash, restarted as the flavor does
/// (the memory log restarts in place; the file log is reopened from disk
/// under a fresh scheduler), ready for Recover.
struct CrashedRun {
  RecoveryWorld world;
  std::unique_ptr<RecoveryLog> log;
  std::unique_ptr<TransactionalProcessScheduler> scheduler;
};

Status RestartAfterCrash(const Flavor& flavor, const std::string& path,
                         CrashedRun* run) {
  if (!flavor.file_backed) {
    run->log->Crash();
    return Status::OK();
  }
  run->scheduler.reset();
  run->log.reset();
  TPM_ASSIGN_OR_RETURN(run->log, MakeLog(flavor, path));
  run->scheduler = std::make_unique<TransactionalProcessScheduler>(
      run->world.options, run->log.get());
  return run->world.register_all(run->scheduler.get());
}

/// Runs the workload with a log crash at its k-th crash-point hit, then
/// restarts. Errors if the hit is missed or absorbed.
Status CrashWorkloadAt(const std::function<RecoveryWorld()>& make_world,
                       const Flavor& flavor, const std::string& path,
                       int64_t k, CrashedRun* run) {
  std::remove(path.c_str());
  run->world = make_world();
  TPM_ASSIGN_OR_RETURN(run->log, MakeLog(flavor, path));
  FaultInjector injector;
  run->log->wal()->SetCrashPointListener(&injector);
  injector.ArmAt(k);
  run->scheduler = std::make_unique<TransactionalProcessScheduler>(
      run->world.options, run->log.get());
  TPM_RETURN_IF_ERROR(run->world.register_all(run->scheduler.get()));
  Status workload = DriveWorkload(run->scheduler.get(), run->world.workload);
  run->log->wal()->SetCrashPointListener(nullptr);
  if (!injector.triggered() || !workload.IsUnavailable()) {
    return Status::Internal(StrCat("workload crash at hit ", k,
                                   " did not happen: ", workload.ToString()));
  }
  return RestartAfterCrash(flavor, path, run);
}

/// Outcomes of the workload's pids plus the subsystem state.
uint64_t RecoveredFingerprint(const CrashedRun& run) {
  uint64_t h = run.world.store_fingerprint();
  for (size_t p = 1; p <= run.world.workload.size(); ++p) {
    h = Fnv1a(h, StrCat("P", p, "=",
                        static_cast<int>(run.scheduler->OutcomeOf(
                            ProcessId(static_cast<int64_t>(p))))));
  }
  return h;
}

void RunRecoveryCrashSweep(const std::string& tag,
                           const std::function<RecoveryWorld()>& make_world,
                           const Flavor& flavor) {
  const std::string path = SweepLogPath("recover_" + tag);

  // Dry run: the workload's crash-point hits T.
  int64_t workload_hits = 0;
  {
    std::remove(path.c_str());
    RecoveryWorld world = make_world();
    auto log = MakeLog(flavor, path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    FaultInjector counter;
    (*log)->wal()->SetCrashPointListener(&counter);
    TransactionalProcessScheduler scheduler(world.options, log->get());
    ASSERT_TRUE(world.register_all(&scheduler).ok());
    Status run = DriveWorkload(&scheduler, world.workload);
    ASSERT_TRUE(run.ok()) << tag << ": " << run.ToString();
    workload_hits = counter.hits();
  }
  ASSERT_GT(workload_hits, 0) << tag;

  int64_t recover_points = 0;
  for (int64_t k = 1; k <= workload_hits; ++k) {
    // Reference: the uncrashed Recover of cut k, and its crash-point hits.
    uint64_t reference = 0;
    int64_t recover_hits = 0;
    {
      CrashedRun run;
      Status crashed = CrashWorkloadAt(make_world, flavor, path, k, &run);
      ASSERT_TRUE(crashed.ok()) << tag << ": " << crashed.ToString();
      FaultInjector counter;
      run.log->wal()->SetCrashPointListener(&counter);
      Status recovered = run.scheduler->Recover(run.world.defs_by_name);
      ASSERT_TRUE(recovered.ok())
          << tag << " k=" << k << ": " << recovered.ToString();
      run.log->wal()->SetCrashPointListener(nullptr);
      reference = RecoveredFingerprint(run);
      recover_hits = counter.hits();
    }
    recover_points += recover_hits;

    for (int64_t j = 1; j <= recover_hits; ++j) {
      CrashedRun run;
      Status crashed = CrashWorkloadAt(make_world, flavor, path, k, &run);
      ASSERT_TRUE(crashed.ok()) << tag << ": " << crashed.ToString();
      FaultInjector armed;
      run.log->wal()->SetCrashPointListener(&armed);
      armed.ArmAt(j);
      Status first = run.scheduler->Recover(run.world.defs_by_name);
      run.log->wal()->SetCrashPointListener(nullptr);
      ASSERT_TRUE(armed.triggered())
          << tag << " k=" << k << " j=" << j
          << " (deterministic rerun missed the hit): " << first.ToString();
      ASSERT_TRUE(first.IsUnavailable())
          << tag << " k=" << k << " j=" << j << ": " << first.ToString();
      const std::string site = armed.triggered_site();

      std::string failures;
      Status restarted = RestartAfterCrash(flavor, path, &run);
      Status second = restarted.ok()
                          ? run.scheduler->Recover(run.world.defs_by_name)
                          : restarted;
      if (!second.ok()) {
        failures = " second-recover:" + second.ToString();
      } else {
        if (RecoveredFingerprint(run) != reference) {
          failures += " state-differs-from-uncrashed-recover";
        }
        failures += run.world.invariants(run.scheduler.get());
      }
      if (!failures.empty()) {
        std::string seed_file = WriteFailingSeed(
            StrCat(tag, "_workload_hit_", k), j, site, failures);
        FAIL() << tag << " workload crash at hit " << k
               << ", recovery crash at hit " << j << " (site " << site
               << "):" << failures << "\n(reproducer appended to "
               << seed_file << ")";
      }
    }
  }
  // The sweep really crashed recoveries.
  EXPECT_GT(recover_points, 0) << tag;
  std::remove(path.c_str());
}

TEST(FaultInjectionSweep, CrashInsideRecoveryMemorySynchronous) {
  for (const Scenario& scenario : Scenarios()) {
    RunRecoveryCrashSweep(
        scenario.name + "_mem_sync",
        [&scenario] { return MiniRecoveryWorld(scenario); },
        Flavor{"mem_sync", /*synchronous=*/true, /*file_backed=*/false});
  }
}

TEST(FaultInjectionSweep, CrashInsideRecoveryMemoryAsynchronous) {
  for (const Scenario& scenario : Scenarios()) {
    RunRecoveryCrashSweep(
        scenario.name + "_mem_async",
        [&scenario] { return MiniRecoveryWorld(scenario); },
        Flavor{"mem_async", /*synchronous=*/false, /*file_backed=*/false});
  }
}

TEST(FaultInjectionSweep, CrashInsideRecoveryFileSynchronous) {
  for (const Scenario& scenario : Scenarios()) {
    RunRecoveryCrashSweep(
        scenario.name + "_file_sync",
        [&scenario] { return MiniRecoveryWorld(scenario); },
        Flavor{"file_sync", /*synchronous=*/true, /*file_backed=*/true});
  }
}

TEST(FaultInjectionSweep, CrashInsideRecoveryFileAsynchronous) {
  for (const Scenario& scenario : Scenarios()) {
    RunRecoveryCrashSweep(
        scenario.name + "_file_async",
        [&scenario] { return MiniRecoveryWorld(scenario); },
        Flavor{"file_async", /*synchronous=*/false, /*file_backed=*/true});
  }
}

TEST(FaultInjectionSweep, CrashInsideRecoverySemanticAdt) {
  RunRecoveryCrashSweep("semantic_mem", SemanticRecoveryWorld,
                        Flavor{"semantic_mem", /*synchronous=*/true,
                               /*file_backed=*/false});
  RunRecoveryCrashSweep("semantic_file", SemanticRecoveryWorld,
                        Flavor{"semantic_file", /*synchronous=*/true,
                               /*file_backed=*/true});
}

}  // namespace
}  // namespace tpm
