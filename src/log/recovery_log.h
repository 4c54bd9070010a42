#ifndef TPM_LOG_RECOVERY_LOG_H_
#define TPM_LOG_RECOVERY_LOG_H_

#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "log/wal.h"

namespace tpm {

/// One record of the process scheduler's recovery log. The log captures
/// exactly the information needed to recompute every process's execution
/// state (and hence its completion C(P), §3.1) after a scheduler crash.
struct SchedulerLogRecord {
  /// ACT and COMP records written by a recovery wave (see RecoveryLog)
  /// carry the step's prepared branch as def_name = "<subsystem_id>:<tx_id>";
  /// all other ACT and COMP records leave def_name empty.
  enum class Kind {
    kProcessBegin,        // process admitted (def identified by name)
    kActivityCommitted,   // original activity committed in its subsystem
    kActivityCompensated, // compensating activity executed
    kProcessCommitted,    // C_i
    kProcessAborted,      // A_i (its completion has been fully executed)
    /// Cross-shard prepare vote (Lemma 1 generalized to shards): one record
    /// per still-prepared branch of a held sub-process, with
    /// def_name = "<subsystem_id>:<tx_id>" and param = the branch's return
    /// value, followed by a vote-marker record carrying an invalid
    /// activity id. The marker's durable presence means the sub-process
    /// voted "prepared"; recovery force-commits the recorded branches iff
    /// the coordinator log holds a commit decision for the spanning
    /// process, and presumes abort otherwise.
    kCommitHeld,
    /// Recovery-wave marker: every branch-carrying ACT/COMP record before
    /// it has committed in its subsystem.
    kWaveResolved,
  };

  Kind kind = Kind::kProcessBegin;
  ProcessId pid;
  ActivityId activity;     // for activity records
  std::string def_name;    // for kProcessBegin
  int64_t param = 0;       // for kProcessBegin: the process's parameter

  std::string Serialize() const;
  /// Parses one serialized record. Never throws: corrupted fields (bad
  /// kind token, non-numeric or out-of-range ids) yield InvalidArgument.
  static Result<SchedulerLogRecord> Parse(const std::string& line);

  friend bool operator==(const SchedulerLogRecord& a,
                         const SchedulerLogRecord& b) {
    return a.kind == b.kind && a.pid == b.pid && a.activity == b.activity &&
           a.def_name == b.def_name && a.param == b.param;
  }
};

/// Typed wrapper over the WAL used by the scheduler. Synchronous by
/// default: a record is durable once Append returns OK.
///
/// Logging discipline (what the durability boundary actually guarantees —
/// see DESIGN.md "Durable recovery log"): forward activities are logged
/// *after* they commit in their subsystem, as accomplished facts, so a
/// crash can leave a committed-in-subsystem-but-unlogged activity whose
/// effect recovery cannot see (an orphaned forward effect; in synchronous
/// mode the window is one in-flight record). Compensations are logged
/// *write-ahead*, durable before the compensating activity is invoked, so
/// recovery never re-applies an inverse — the failure mode that, unlike an
/// orphan, would corrupt subsystem state (double-compensation). The price
/// is the opposite loss: replay counts a durable intention as done, so a
/// crash after its flush but before the inverse commits leaves that
/// inverse never run (DESIGN.md §4d, "Known gap").
///
/// The group abort inside Recover logs in prepared waves instead: each
/// step is first prepared in its subsystem (2PC phase one), then the
/// wave's ACT/COMP records, each naming its prepared branch, are made
/// durable by one flush, and only then are the branches committed. A
/// record is durable exactly when its effect is decided: the next Recover
/// commits the branches of a durable wave that no later record shows
/// resolved, and presumed abort rolls back a wave that never became
/// durable, so every recovery step takes effect exactly once.
class RecoveryLog {
 public:
  explicit RecoveryLog(bool synchronous = true) : wal_(synchronous) {}
  /// A log over explicit stable storage (e.g. a FileStorageBackend opened
  /// from the on-disk log of a previous incarnation).
  RecoveryLog(std::unique_ptr<StorageBackend> backend,
              bool synchronous = true)
      : wal_(std::move(backend), synchronous) {}

  Status Append(const SchedulerLogRecord& record) {
    return wal_.Append(record.Serialize());
  }
  Status Flush() { return wal_.Flush(); }
  void Crash() { wal_.Crash(); }
  Status Clear() { return wal_.Clear(); }

  /// Log compaction: atomically replaces the whole log with `records` (a
  /// checkpoint of the live state written by the scheduler), durable as a
  /// unit via the backend's build-then-swap / write-new-then-rename path —
  /// a crash mid-compaction leaves either the complete old log or the
  /// complete checkpoint, never a truncated mixture.
  Status ReplaceAll(const std::vector<SchedulerLogRecord>& records);

  size_t size() const { return wal_.size(); }

  /// Parses all durable records.
  Result<std::vector<SchedulerLogRecord>> Records() const;

  /// The underlying WAL, exposed for fault injection and backend access.
  Wal* wal() { return &wal_; }

 private:
  Wal wal_;
};

}  // namespace tpm

#endif  // TPM_LOG_RECOVERY_LOG_H_
