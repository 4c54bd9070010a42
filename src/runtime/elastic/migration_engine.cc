#include "runtime/elastic/migration_engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>

#include "common/str_util.h"
#include "core/pred.h"
#include "core/recoverability.h"
#include "core/schedule.h"
#include "log/file_backend.h"

namespace tpm {

namespace {
constexpr const char* kRecBegin = "MBEGIN";
constexpr const char* kRecCut = "MCUT";
constexpr const char* kRecFlip = "MFLIP";
constexpr const char* kRecAbort = "MABORT";
constexpr const char* kRecEnd = "MEND";

}  // namespace

std::string MigrationRecord::Serialize() const {
  switch (kind) {
    case Kind::kBegin:
      return StrCat(kRecBegin, "|", mid, "|", component, "|", from, "|", to);
    case Kind::kCut: {
      std::string pids;
      for (size_t i = 0; i < src_pids.size(); ++i) {
        if (i > 0) pids += ',';
        pids += StrCat(src_pids[i]);
      }
      return StrCat(kRecCut, "|", mid, "|", pid_base, "|", pids);
    }
    case Kind::kFlip:
      return StrCat(kRecFlip, "|", mid);
    case Kind::kAbort:
      return StrCat(kRecAbort, "|", mid);
    case Kind::kEnd:
      return StrCat(kRecEnd, "|", mid);
  }
  return "";
}

Result<MigrationRecord> MigrationRecord::Parse(const std::string& line) {
  const std::vector<std::string> fields = StrSplit(line, '|');
  if (fields.size() < 2) {
    return Status::InvalidArgument(
        StrCat("migration record too short: '", line, "'"));
  }
  MigrationRecord record;
  TPM_ASSIGN_OR_RETURN(record.mid, ParseInt64(fields[1]));
  if (fields[0] == kRecBegin) {
    record.kind = Kind::kBegin;
    if (fields.size() != 5) {
      return Status::InvalidArgument(
          StrCat("malformed MBEGIN: '", line, "'"));
    }
    TPM_ASSIGN_OR_RETURN(int64_t component, ParseInt64(fields[2]));
    TPM_ASSIGN_OR_RETURN(int64_t from, ParseInt64(fields[3]));
    TPM_ASSIGN_OR_RETURN(int64_t to, ParseInt64(fields[4]));
    record.component = static_cast<int>(component);
    record.from = static_cast<int>(from);
    record.to = static_cast<int>(to);
    return record;
  }
  if (fields[0] == kRecCut) {
    record.kind = Kind::kCut;
    if (fields.size() != 4) {
      return Status::InvalidArgument(StrCat("malformed MCUT: '", line, "'"));
    }
    TPM_ASSIGN_OR_RETURN(record.pid_base, ParseInt64(fields[2]));
    if (!fields[3].empty()) {
      for (const std::string& item : StrSplit(fields[3], ',')) {
        TPM_ASSIGN_OR_RETURN(int64_t pid, ParseInt64(item));
        record.src_pids.push_back(pid);
      }
    }
    return record;
  }
  if (fields[0] == kRecFlip) {
    record.kind = Kind::kFlip;
    return record;
  }
  if (fields[0] == kRecAbort) {
    record.kind = Kind::kAbort;
    return record;
  }
  if (fields[0] == kRecEnd) {
    record.kind = Kind::kEnd;
    return record;
  }
  return Status::InvalidArgument(
      StrCat("unknown migration record kind in '", line, "'"));
}

/// "wal/<site>" -> "elastic/<site>", so a site-filtered sweep can target
/// the migration log without crashing the shard WALs too (the same idiom
/// as the cross-shard coordinator's listener).
class MigrationEngine::RenamingListener : public CrashPointListener {
 public:
  explicit RenamingListener(CrashPointListener* user) : user_(user) {}

  bool OnCrashPoint(const char* site) override {
    if (user_ == nullptr) return false;
    const char* slash = std::strchr(site, '/');
    if (slash == nullptr) return user_->OnCrashPoint(site);
    const std::string renamed = StrCat("elastic", slash);
    return user_->OnCrashPoint(renamed.c_str());
  }

 private:
  CrashPointListener* user_;
};

MigrationEngine::MigrationEngine(Options options)
    : options_(std::move(options)) {}

MigrationEngine::~MigrationEngine() { Shutdown(); }

Status MigrationEngine::Init() {
  switch (options_.log_mode) {
    case ShardLogMode::kNone:
      break;
    case ShardLogMode::kMemory:
      wal_ = std::make_unique<Wal>(/*synchronous=*/true);
      break;
    case ShardLogMode::kFile: {
      TPM_ASSIGN_OR_RETURN(auto backend,
                           FileStorageBackend::Open(options_.wal_path));
      wal_ = std::make_unique<Wal>(std::move(backend), /*synchronous=*/true);
      break;
    }
  }
  if (wal_ != nullptr && options_.crash_listener != nullptr) {
    renamer_ = std::make_unique<RenamingListener>(options_.crash_listener);
    wal_->SetCrashPointListener(renamer_.get());
  }
  if (wal_ == nullptr) return Status::OK();

  // Scan: group records by mid, derive the routing overrides (every
  // durably flipped migration, in log order) and the fix-ups for the
  // incomplete ones.
  struct Scan {
    bool has_begin = false, has_cut = false, has_flip = false;
    bool has_abort = false, has_end = false;
    MigrationRecord begin, cut;
  };
  std::map<int64_t, Scan> scans;
  for (const std::string& line : wal_->records()) {
    TPM_ASSIGN_OR_RETURN(MigrationRecord record,
                         MigrationRecord::Parse(line));
    Scan& scan = scans[record.mid];
    next_mid_ = std::max(next_mid_, record.mid + 1);
    switch (record.kind) {
      case MigrationRecord::Kind::kBegin:
        scan.has_begin = true;
        scan.begin = record;
        break;
      case MigrationRecord::Kind::kCut:
        scan.has_cut = true;
        scan.cut = record;
        break;
      case MigrationRecord::Kind::kFlip:
        scan.has_flip = true;
        break;
      case MigrationRecord::Kind::kAbort:
        scan.has_abort = true;
        break;
      case MigrationRecord::Kind::kEnd:
        scan.has_end = true;
        break;
    }
  }
  for (auto& [mid, scan] : scans) {
    if (!scan.has_begin) {
      return Status::Internal(
          StrCat("migration ", mid, " has records but no MBEGIN"));
    }
    if (scan.has_flip) {
      // Decided: the flip governs routing whether or not MEND made it.
      overrides_[scan.begin.component] = scan.begin.to;
      ever_migrated_.store(true, std::memory_order_release);
      if (!scan.has_end) {
        Fixup fixup;
        fixup.kind = Fixup::Kind::kRedoStrip;
        fixup.begin = scan.begin;
        fixup.cut = scan.cut;
        fixups_.push_back(std::move(fixup));
      } else {
        completed_.fetch_add(1);
      }
      continue;
    }
    if (scan.has_abort || scan.has_end) {
      if (!scan.has_abort) {
        return Status::Internal(
            StrCat("migration ", mid, " has MEND but no MFLIP"));
      }
      aborted_.fetch_add(1);
      continue;
    }
    ever_migrated_.store(true, std::memory_order_release);
    Fixup fixup;
    fixup.kind = scan.has_cut ? Fixup::Kind::kUndoCut
                              : Fixup::Kind::kAbortOnly;
    fixup.begin = scan.begin;
    fixup.cut = scan.cut;
    fixups_.push_back(std::move(fixup));
  }
  return Status::OK();
}

Status MigrationEngine::ApplyCrashFixups() {
  if (options_.shards == nullptr) {
    return Status::Internal("migration engine has no shards");
  }
  for (const Fixup& fixup : fixups_) {
    const int64_t mid = fixup.begin.mid;
    switch (fixup.kind) {
      case Fixup::Kind::kAbortOnly:
        break;
      case Fixup::Kind::kUndoCut: {
        // The target import may or may not have happened (ReplaceAll is
        // atomic: complete-old or complete-new); stripping the reserved
        // pid range is idempotent either way.
        RuntimeShard* dst = (*options_.shards)[fixup.begin.to].get();
        RecoveryLog* log = dst->log();
        if (log != nullptr) {
          TPM_ASSIGN_OR_RETURN(std::vector<SchedulerLogRecord> records,
                               log->Records());
          const int64_t base = fixup.cut.pid_base;
          const int64_t limit =
              base + static_cast<int64_t>(fixup.cut.src_pids.size());
          std::vector<SchedulerLogRecord> kept;
          kept.reserve(records.size());
          for (SchedulerLogRecord& record : records) {
            const int64_t pid = record.pid.value();
            if (pid >= base && pid < limit) continue;
            kept.push_back(std::move(record));
          }
          if (kept.size() != records.size()) {
            TPM_RETURN_IF_ERROR(log->ReplaceAll(kept));
          }
        }
        break;
      }
      case Fixup::Kind::kRedoStrip: {
        // The flip is durable, so the import durably preceded it; strip
        // the moved pids from the source (idempotent — a crash after the
        // strip but before MEND re-runs as a no-op).
        RuntimeShard* src = (*options_.shards)[fixup.begin.from].get();
        RecoveryLog* log = src->log();
        if (log != nullptr) {
          TPM_ASSIGN_OR_RETURN(std::vector<SchedulerLogRecord> records,
                               log->Records());
          std::set<int64_t> moved(fixup.cut.src_pids.begin(),
                                  fixup.cut.src_pids.end());
          std::vector<SchedulerLogRecord> kept;
          kept.reserve(records.size());
          for (SchedulerLogRecord& record : records) {
            if (moved.count(record.pid.value()) > 0) continue;
            kept.push_back(std::move(record));
          }
          if (kept.size() != records.size()) {
            TPM_RETURN_IF_ERROR(log->ReplaceAll(kept));
          }
        }
        break;
      }
    }
    MigrationRecord close;
    close.mid = mid;
    if (fixup.kind == Fixup::Kind::kRedoStrip) {
      close.kind = MigrationRecord::Kind::kEnd;
      completed_.fetch_add(1);
    } else {
      close.kind = MigrationRecord::Kind::kAbort;
      aborted_.fetch_add(1);
    }
    TPM_RETURN_IF_ERROR(AppendRecord(close));
  }
  fixups_.clear();
  return Status::OK();
}

void MigrationEngine::SetTopology(
    std::vector<std::vector<Subsystem*>> subsystems_of_component,
    std::vector<std::vector<std::pair<ServiceId, ServiceId>>>
        conflicts_of_component) {
  subsystems_of_component_ = std::move(subsystems_of_component);
  conflicts_of_component_ = std::move(conflicts_of_component);
}

Status MigrationEngine::AppendRecord(const MigrationRecord& record) {
  if (wal_ == nullptr) return Status::OK();  // kNone: no durability
  Status appended = wal_->Append(record.Serialize());
  if (appended.ok()) appended = wal_->Flush();
  if (!appended.ok()) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (wal_->crashed()) crashed_ = true;
  }
  return appended;
}

void MigrationEngine::StickyFail(const Status& status) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (error_.ok()) {
    error_ = Status(status.code(),
                    StrCat("migration engine: ", status.message()));
  }
}

bool MigrationEngine::HitSite(const char* site) {
  if (options_.crash_listener == nullptr) return false;
  if (!options_.crash_listener->OnCrashPoint(site)) return false;
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    crashed_ = true;
  }
  StickyFail(Status::Unavailable(
      StrCat("injected crash at ", site)));
  return true;
}

Status MigrationEngine::status() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return error_;
}

void MigrationEngine::LearnDef(const ProcessDef& def) {
  {
    std::shared_lock<std::shared_mutex> read(defs_mu_);
    if (defs_.find(def.name()) != defs_.end()) return;
  }
  const int component = options_.router->ComponentOfDef(def);
  std::unique_lock<std::shared_mutex> write(defs_mu_);
  defs_.emplace(def.name(), std::make_pair(&def, component));
}

int MigrationEngine::ComponentOfDefName(const std::string& name) const {
  std::shared_lock<std::shared_mutex> read(defs_mu_);
  auto it = defs_.find(name);
  return it == defs_.end() ? -1 : it->second.second;
}

const ProcessDef* MigrationEngine::DefOfName(const std::string& name) const {
  std::shared_lock<std::shared_mutex> read(defs_mu_);
  auto it = defs_.find(name);
  return it == defs_.end() ? nullptr : it->second.first;
}

Result<int> MigrationEngine::Buffer(Submission submission) {
  std::lock_guard<std::mutex> lock(buffer_mu_);
  if (active_ == nullptr) {
    return Status::Internal("Buffer with no active migration");
  }
  if (active_->fresh.size() >= options_.buffer_capacity) {
    return Status::ResourceExhausted("migration buffer full");
  }
  const int to = active_->to;
  active_->fresh.push_back(std::move(submission));
  return to;
}

bool MigrationEngine::MaybeIntercept(int shard, Submission& submission) {
  if (submission.def != nullptr) LearnDef(*submission.def);
  if (!migration_active_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(buffer_mu_);
  if (active_ == nullptr || shard != active_->from) return false;
  if (submission.def == nullptr) {
    // The engine's own quiesce marker reached the head of the source
    // queue: everything enqueued before it has been drained.
    if (!active_->marker_acked) {
      active_->marker_acked = true;
      submission.result.set_value(ProcessId());
      active_->marker_ack.set_value();
    }
    return true;
  }
  if (options_.router->ComponentOfDef(*submission.def) !=
      active_->component) {
    return false;
  }
  active_->swept.push_back(std::move(submission));
  return true;
}

Status MigrationEngine::ReadShardRecords(
    RuntimeShard* shard, std::vector<SchedulerLogRecord>* records) {
  RecoveryLog* log = shard->log();
  if (log == nullptr) {
    records->clear();
    return Status::OK();
  }
  shard->PostCommand([log, records] {
    TPM_ASSIGN_OR_RETURN(*records, log->Records());
    return Status::OK();
  });
  return shard->WaitCommandDone();
}

Status MigrationEngine::ReplaceShardRecords(
    RuntimeShard* shard, std::vector<SchedulerLogRecord> records) {
  RecoveryLog* log = shard->log();
  if (log == nullptr) return Status::OK();
  auto owned =
      std::make_shared<std::vector<SchedulerLogRecord>>(std::move(records));
  shard->PostCommand([log, owned] { return log->ReplaceAll(*owned); });
  return shard->WaitCommandDone();
}

Status MigrationEngine::AppendShardRecords(
    RuntimeShard* shard, std::vector<SchedulerLogRecord> records) {
  RecoveryLog* log = shard->log();
  if (log == nullptr) return Status::OK();
  auto imported =
      std::make_shared<std::vector<SchedulerLogRecord>>(std::move(records));
  // One command: the re-read and the rewrite happen back to back on the
  // worker thread, so no concurrently-admitted record can fall between
  // them and be lost by the ReplaceAll.
  shard->PostCommand([log, imported] {
    TPM_ASSIGN_OR_RETURN(std::vector<SchedulerLogRecord> all,
                         log->Records());
    all.reserve(all.size() + imported->size());
    for (SchedulerLogRecord& record : *imported) {
      all.push_back(std::move(record));
    }
    return log->ReplaceAll(all);
  });
  return shard->WaitCommandDone();
}

Status MigrationEngine::StripShardRecords(RuntimeShard* shard,
                                          std::vector<int64_t> pids) {
  RecoveryLog* log = shard->log();
  if (log == nullptr) return Status::OK();
  auto moved =
      std::make_shared<std::set<int64_t>>(pids.begin(), pids.end());
  shard->PostCommand([log, moved] {
    TPM_ASSIGN_OR_RETURN(std::vector<SchedulerLogRecord> all,
                         log->Records());
    std::vector<SchedulerLogRecord> keep;
    keep.reserve(all.size());
    for (SchedulerLogRecord& record : all) {
      if (moved->count(record.pid.value()) > 0) continue;
      keep.push_back(std::move(record));
    }
    return log->ReplaceAll(keep);
  });
  return shard->WaitCommandDone();
}

Status MigrationEngine::Quiesce(RuntimeShard* src) {
  if (options_.mode == TickMode::kFreeRunning) {
    // Marker through the source queue: FIFO guarantees every component
    // submission enqueued before the gate closed has been drained (and
    // swept) once the marker is acked; the gate keeps new ones out.
    std::future<void> ack;
    {
      std::lock_guard<std::mutex> lock(buffer_mu_);
      ack = active_->marker_ack.get_future();
    }
    Submission marker;  // def == nullptr
    TPM_RETURN_IF_ERROR(src->EnqueueSubmission(std::move(marker)));
    for (int spin = 0;; ++spin) {
      if (ack.wait_for(std::chrono::milliseconds(10)) ==
          std::future_status::ready) {
        break;
      }
      TPM_RETURN_IF_ERROR(src->status());
      if (spin > 3000) {
        return Status::Unavailable(
            "quiesce marker did not drain within 30s");
      }
    }
  }
  // Wait out the in-flight processes touching the component. Monotone:
  // the gate blocks new ones, and the scheduler guarantees termination of
  // everything admitted.
  const int component = active_->component;
  const ShardRouter* router = options_.router;
  for (int spin = 0;; ++spin) {
    int touching = 0;
    src->PostSchedulerCommand(
        [component, router, &touching](TransactionalProcessScheduler* sch) {
          sch->ForEachActiveDef(
              [component, router, &touching](ProcessId,
                                             const ProcessDef* def) {
                if (def != nullptr &&
                    router->ComponentOfDef(*def) == component) {
                  ++touching;
                }
              });
          return Status::OK();
        });
    TPM_RETURN_IF_ERROR(src->WaitCommandDone());
    if (touching == 0) return Status::OK();
    if (options_.mode == TickMode::kLockstep) {
      // Lockstep migration requires an idle runtime; an active process
      // here means the caller broke that contract.
      return Status::FailedPrecondition(
          "lockstep migration requires an idle runtime");
    }
    if (spin > 30000) {
      return Status::Unavailable(
          "source shard did not quiesce the component within 30s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Status MigrationEngine::VerifyRecords(
    const std::vector<SchedulerLogRecord>& records) const {
  ProcessSchedule schedule;
  for (const SchedulerLogRecord& record : records) {
    switch (record.kind) {
      case SchedulerLogRecord::Kind::kProcessBegin: {
        const ProcessDef* def = DefOfName(record.def_name);
        if (def == nullptr) {
          return Status::FailedPrecondition(
              StrCat("cannot verify merged history: unknown definition '",
                     record.def_name, "'"));
        }
        TPM_RETURN_IF_ERROR(schedule.AddProcess(record.pid, def));
        break;
      }
      case SchedulerLogRecord::Kind::kActivityCommitted:
        TPM_RETURN_IF_ERROR(schedule.Append(ScheduleEvent::Activity(
            {record.pid, record.activity, /*inverse=*/false})));
        break;
      case SchedulerLogRecord::Kind::kActivityCompensated:
        TPM_RETURN_IF_ERROR(schedule.Append(ScheduleEvent::Activity(
            {record.pid, record.activity, /*inverse=*/true})));
        break;
      case SchedulerLogRecord::Kind::kProcessCommitted:
        TPM_RETURN_IF_ERROR(
            schedule.Append(ScheduleEvent::Commit(record.pid)));
        break;
      case SchedulerLogRecord::Kind::kProcessAborted:
        TPM_RETURN_IF_ERROR(
            schedule.Append(ScheduleEvent::Abort(record.pid)));
        break;
      case SchedulerLogRecord::Kind::kCommitHeld:
        return Status::FailedPrecondition(
            "cross-shard vote records cannot migrate");
    }
  }
  TPM_ASSIGN_OR_RETURN(bool pred, IsPRED(schedule, *options_.spec));
  if (!pred) {
    return Status::Internal("merged migration history is not PRED");
  }
  if (!IsProcessRecoverable(CommittedProjection(schedule),
                            *options_.spec)) {
    return Status::Internal(
        "merged migration committed projection is not Proc-REC");
  }
  return Status::OK();
}

Status MigrationEngine::RunPrepare(RuntimeShard* src, RuntimeShard* dst) {
  TPM_RETURN_IF_ERROR(Quiesce(src));
  if (HitSite("elastic/quiesced")) return status();

  if (src->log() == nullptr) return Status::OK();  // kNone: nothing to cut

  // Cut the component's segment out of the source log.
  std::vector<SchedulerLogRecord> src_records;
  TPM_RETURN_IF_ERROR(ReadShardRecords(src, &src_records));
  std::set<int64_t> moved_pids;
  std::vector<SchedulerLogRecord> segment;
  const int component = active_->component;
  for (SchedulerLogRecord& record : src_records) {
    if (record.kind == SchedulerLogRecord::Kind::kCommitHeld) {
      return Status::FailedPrecondition(
          "cross-shard vote records cannot migrate");
    }
    if (record.kind == SchedulerLogRecord::Kind::kProcessBegin) {
      const int record_component = ComponentOfDefName(record.def_name);
      if (record_component < 0) {
        return Status::FailedPrecondition(
            StrCat("source log references unknown definition '",
                   record.def_name, "'"));
      }
      if (record_component == component) {
        moved_pids.insert(record.pid.value());
      }
    }
    if (moved_pids.count(record.pid.value()) > 0) {
      segment.push_back(std::move(record));
    }
  }
  active_->pid_count = static_cast<int64_t>(moved_pids.size());
  active_->src_pids.assign(moved_pids.begin(), moved_pids.end());

  // Reserve the target pid window and renumber the segment into it
  // (sorted source pids map to base + rank, preserving relative order).
  int64_t pid_base = 0;
  const int64_t count = active_->pid_count;
  dst->PostSchedulerCommand(
      [count, &pid_base](TransactionalProcessScheduler* sch) {
        pid_base = sch->ReservePidRange(count);
        return Status::OK();
      });
  TPM_RETURN_IF_ERROR(dst->WaitCommandDone());
  active_->pid_base = pid_base;
  std::map<int64_t, int64_t> renumber;
  {
    int64_t rank = 0;
    for (const int64_t pid : moved_pids) renumber[pid] = pid_base + rank++;
  }
  for (SchedulerLogRecord& record : segment) {
    record.pid = ProcessId(renumber[record.pid.value()]);
  }

  // MCUT: the migration is now replayable — the pid list and window let
  // recovery undo or redo the surgery below without the definitions.
  MigrationRecord cut;
  cut.kind = MigrationRecord::Kind::kCut;
  cut.mid = active_->mid;
  cut.pid_base = pid_base;
  cut.src_pids.assign(moved_pids.begin(), moved_pids.end());
  TPM_RETURN_IF_ERROR(AppendRecord(cut));

  // Merge + offline re-verification before anything mutates. The merged
  // vector is a throwaway snapshot-plus-copies for verification only; the
  // durable import below re-reads inside one worker command.
  if (options_.verify) {
    std::vector<SchedulerLogRecord> merged;
    TPM_RETURN_IF_ERROR(ReadShardRecords(dst, &merged));
    for (const SchedulerLogRecord& record : segment) {
      merged.push_back(record);
    }
    TPM_RETURN_IF_ERROR(VerifyRecords(merged));
  }

  // Import on the target (durable, atomic). The source strip in RunCommit
  // removes the moved pids by id — the source keeps running its other
  // components meanwhile, so a snapshot-based rewrite would lose their
  // concurrently appended records.
  if (HitSite("elastic/import")) return status();
  TPM_RETURN_IF_ERROR(AppendShardRecords(dst, std::move(segment)));
  active_->imported = true;
  if (HitSite("elastic/imported")) return status();
  return Status::OK();
}

Status MigrationEngine::RunCommit(RuntimeShard* src, RuntimeShard* dst) {
  const int component = active_->component;
  const int from = active_->from;
  const int to = active_->to;

  // Strip the moved segment from the source log (the import preceded the
  // flip, so a crash anywhere in here redoes this idempotently).
  if (src->log() != nullptr) {
    if (HitSite("elastic/strip")) return status();
    TPM_RETURN_IF_ERROR(StripShardRecords(src, active_->src_pids));
    if (HitSite("elastic/stripped")) return status();
  }

  // Move the component's subsystem registrations and extra conflicts.
  if (component < static_cast<int>(subsystems_of_component_.size())) {
    const std::vector<Subsystem*>& moving =
        subsystems_of_component_[static_cast<size_t>(component)];
    const std::vector<std::pair<ServiceId, ServiceId>>& conflicts =
        component < static_cast<int>(conflicts_of_component_.size())
            ? conflicts_of_component_[static_cast<size_t>(component)]
            : std::vector<std::pair<ServiceId, ServiceId>>{};
    if (!moving.empty()) {
      src->PostSchedulerCommand(
          [&moving](TransactionalProcessScheduler* sch) {
            for (Subsystem* subsystem : moving) {
              TPM_RETURN_IF_ERROR(sch->UnregisterSubsystem(subsystem));
            }
            return Status::OK();
          });
      TPM_RETURN_IF_ERROR(src->WaitCommandDone());
      dst->PostSchedulerCommand(
          [&moving, &conflicts](TransactionalProcessScheduler* sch) {
            for (Subsystem* subsystem : moving) {
              TPM_RETURN_IF_ERROR(sch->RegisterSubsystem(subsystem));
            }
            for (const auto& [a, b] : conflicts) {
              sch->AddConflict(a, b);
            }
            return Status::OK();
          });
      TPM_RETURN_IF_ERROR(dst->WaitCommandDone());
    }
  }

  // A parked target must be running before traffic lands on it.
  if (options_.resume_shard) options_.resume_shard(to);

  // The flip: under the unique route lock nothing can race the remap
  // store, and the buffered submissions flush to the target in their
  // original FIFO order (swept — already queued before the gate — first,
  // then the fresh ones buffered during the migration).
  {
    std::unique_lock<std::shared_mutex> route_lock(route_mu_);
    options_.router->SetComponentShard(component, to);
    migration_active_.store(false, std::memory_order_release);
    FlushBuffersTo(dst);
  }
  if (HitSite("elastic/flipped")) return status();

  MigrationRecord end;
  end.kind = MigrationRecord::Kind::kEnd;
  end.mid = active_->mid;
  TPM_RETURN_IF_ERROR(AppendRecord(end));
  completed_.fetch_add(1);
  if (options_.on_migrated) options_.on_migrated(component, from, to);
  return Status::OK();
}

void MigrationEngine::FlushBuffersTo(RuntimeShard* shard) {
  std::deque<Submission> swept;
  std::deque<Submission> fresh;
  {
    std::lock_guard<std::mutex> lock(buffer_mu_);
    swept.swap(active_->swept);
    fresh.swap(active_->fresh);
  }
  auto flush = [shard](std::deque<Submission>& buffered) {
    for (Submission& submission : buffered) {
      // Block on a full queue — these submissions were already accepted,
      // shedding them now would break the producer's ticket.
      std::promise<Result<ProcessId>>* promise = &submission.result;
      Status pushed = shard->EnqueueSubmission(std::move(submission),
                                               BackpressurePolicy::kBlock);
      if (!pushed.ok()) promise->set_value(pushed);
    }
  };
  flush(swept);
  flush(fresh);
}

void MigrationEngine::AbortMigration(RuntimeShard* src, RuntimeShard* dst) {
  // Undo the target import if it happened (strip the reserved window).
  if (active_->imported && dst->log() != nullptr) {
    std::vector<int64_t> window;
    window.reserve(static_cast<size_t>(active_->pid_count));
    for (int64_t pid = active_->pid_base;
         pid < active_->pid_base + active_->pid_count; ++pid) {
      window.push_back(pid);
    }
    Status stripped = StripShardRecords(dst, std::move(window));
    if (!stripped.ok()) StickyFail(stripped);
  }
  // Reopen the gate and give the source its submissions back.
  {
    std::unique_lock<std::shared_mutex> route_lock(route_mu_);
    migration_active_.store(false, std::memory_order_release);
    FlushBuffersTo(src);
  }
  MigrationRecord abort_record;
  abort_record.kind = MigrationRecord::Kind::kAbort;
  abort_record.mid = active_->mid;
  Status appended = AppendRecord(abort_record);
  if (!appended.ok()) StickyFail(appended);
  aborted_.fetch_add(1);
}

Status MigrationEngine::Migrate(int component, int to) {
  std::lock_guard<std::mutex> op_lock(op_mu_);
  TPM_RETURN_IF_ERROR(status());
  if (options_.shards == nullptr || options_.router == nullptr) {
    return Status::Internal("migration engine is not wired to a runtime");
  }
  if (component < 0 || component >= options_.router->num_components()) {
    return Status::InvalidArgument(
        StrCat("component ", component, " out of range"));
  }
  if (to < 0 || to >= static_cast<int>(options_.shards->size())) {
    return Status::InvalidArgument(StrCat("shard ", to, " out of range"));
  }
  const int from = options_.router->ShardOfComponent(component);
  if (from < 0) {
    return Status::NotFound(
        StrCat("component ", component, " has no owning shard"));
  }
  if (from == to) {
    return Status::InvalidArgument(
        StrCat("component ", component, " is already on shard ", to));
  }
  if (options_.spans_begun && options_.spans_begun() > 0) {
    return Status::FailedPrecondition(
        "migration with spanning processes is not supported (sub-process "
        "names encode shard numbers; a staged limit)");
  }
  if (options_.mode == TickMode::kLockstep) {
    for (const auto& shard : *options_.shards) {
      if (!shard->IsIdle()) {
        return Status::FailedPrecondition(
            "lockstep migration requires an idle runtime (Drain first)");
      }
    }
  }
  RuntimeShard* src = (*options_.shards)[from].get();
  RuntimeShard* dst = (*options_.shards)[to].get();

  ever_migrated_.store(true, std::memory_order_release);
  started_.fetch_add(1);
  const auto protocol_start = std::chrono::steady_clock::now();

  // Write-ahead: the migration durably exists before anything moves.
  MigrationRecord begin;
  begin.kind = MigrationRecord::Kind::kBegin;
  begin.mid = next_mid_;
  begin.component = component;
  begin.from = from;
  begin.to = to;
  Status logged = AppendRecord(begin);
  if (!logged.ok()) {
    StickyFail(logged);
    return status();
  }

  // Close the admission gate: from here, producers buffer the component's
  // submissions instead of queueing them on the source.
  {
    std::unique_lock<std::shared_mutex> route_lock(route_mu_);
    auto migration = std::make_unique<ActiveMigration>();
    migration->mid = next_mid_++;
    migration->component = component;
    migration->from = from;
    migration->to = to;
    {
      std::lock_guard<std::mutex> lock(buffer_mu_);
      active_ = std::move(migration);
    }
    migrating_component_ = component;
    migration_active_.store(true, std::memory_order_release);
  }

  Status prepared = RunPrepare(src, dst);
  if (prepared.ok()) {
    {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (crashed_) prepared = error_;
    }
  }
  if (prepared.ok()) {
    // The decision point: after this record is durable the migration
    // completes — either here or in the next incarnation's fix-ups.
    MigrationRecord flip;
    flip.kind = MigrationRecord::Kind::kFlip;
    flip.mid = active_->mid;
    prepared = AppendRecord(flip);
  }
  if (!prepared.ok()) {
    bool crashed;
    {
      std::lock_guard<std::mutex> lock(error_mu_);
      crashed = crashed_;
    }
    if (crashed) {
      // A simulated death: no cleanup — the next incarnation repairs.
      StickyFail(prepared);
      return status();
    }
    AbortMigration(src, dst);
    {
      std::lock_guard<std::mutex> lock(buffer_mu_);
      active_.reset();
    }
    return prepared;
  }

  Status committed = RunCommit(src, dst);
  if (!committed.ok()) {
    // Post-decision failures are sticky: the flip is durable, the runtime
    // is inconsistent until restart repairs it.
    StickyFail(committed);
    {
      std::lock_guard<std::mutex> lock(buffer_mu_);
      active_.reset();
    }
    return status();
  }
  {
    std::lock_guard<std::mutex> lock(buffer_mu_);
    active_.reset();
  }
  migration_ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - protocol_start)
                              .count());
  return Status::OK();
}

void MigrationEngine::Shutdown() {
  std::lock_guard<std::mutex> op_lock(op_mu_);
  std::lock_guard<std::mutex> lock(buffer_mu_);
  if (active_ == nullptr) return;
  auto fail = [](std::deque<Submission>& buffered) {
    for (Submission& submission : buffered) {
      submission.result.set_value(Status::Unavailable(
          "runtime stopped while the submission was buffered for "
          "migration"));
    }
    buffered.clear();
  };
  fail(active_->swept);
  fail(active_->fresh);
  migration_active_.store(false, std::memory_order_release);
  active_.reset();
}

}  // namespace tpm
