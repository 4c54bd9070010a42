#include "log/recovery_log.h"

#include "common/str_util.h"

namespace tpm {

namespace {

const char* KindToken(SchedulerLogRecord::Kind kind) {
  switch (kind) {
    case SchedulerLogRecord::Kind::kProcessBegin:
      return "BEGIN";
    case SchedulerLogRecord::Kind::kActivityCommitted:
      return "ACT";
    case SchedulerLogRecord::Kind::kActivityCompensated:
      return "COMP";
    case SchedulerLogRecord::Kind::kProcessCommitted:
      return "COMMIT";
    case SchedulerLogRecord::Kind::kProcessAborted:
      return "ABORT";
    case SchedulerLogRecord::Kind::kCommitHeld:
      return "HELD";
    case SchedulerLogRecord::Kind::kWaveResolved:
      return "WAVE";
  }
  return "?";
}

Result<SchedulerLogRecord::Kind> ParseKind(const std::string& token) {
  if (token == "BEGIN") return SchedulerLogRecord::Kind::kProcessBegin;
  if (token == "ACT") return SchedulerLogRecord::Kind::kActivityCommitted;
  if (token == "COMP") return SchedulerLogRecord::Kind::kActivityCompensated;
  if (token == "COMMIT") return SchedulerLogRecord::Kind::kProcessCommitted;
  if (token == "ABORT") return SchedulerLogRecord::Kind::kProcessAborted;
  if (token == "HELD") return SchedulerLogRecord::Kind::kCommitHeld;
  if (token == "WAVE") return SchedulerLogRecord::Kind::kWaveResolved;
  return Status::InvalidArgument(StrCat("unknown log record kind: ", token));
}

}  // namespace

std::string SchedulerLogRecord::Serialize() const {
  return StrCat(KindToken(kind), "|", pid.value(), "|", activity.value(), "|",
                param, "|", def_name);
}

Result<SchedulerLogRecord> SchedulerLogRecord::Parse(const std::string& line) {
  std::vector<std::string> parts = StrSplit(line, '|');
  if (parts.size() < 5) {
    return Status::InvalidArgument(StrCat("malformed log record: ", line));
  }
  SchedulerLogRecord record;
  TPM_ASSIGN_OR_RETURN(record.kind, ParseKind(parts[0]));
  TPM_ASSIGN_OR_RETURN(int64_t pid, ParseInt64(parts[1]));
  TPM_ASSIGN_OR_RETURN(int64_t activity, ParseInt64(parts[2]));
  TPM_ASSIGN_OR_RETURN(record.param, ParseInt64(parts[3]));
  record.pid = ProcessId(pid);
  record.activity = ActivityId(activity);
  // The def name may itself contain '|'; rejoin the remaining fields.
  record.def_name = parts[4];
  for (size_t i = 5; i < parts.size(); ++i) {
    record.def_name += "|" + parts[i];
  }
  return record;
}

Status RecoveryLog::ReplaceAll(const std::vector<SchedulerLogRecord>& records) {
  std::vector<std::string> lines;
  lines.reserve(records.size());
  for (const SchedulerLogRecord& record : records) {
    lines.push_back(record.Serialize());
  }
  return wal_.ReplaceAll(lines);
}

Result<std::vector<SchedulerLogRecord>> RecoveryLog::Records() const {
  std::vector<SchedulerLogRecord> records;
  const size_t durable = wal_.durable_size();
  records.reserve(durable);
  for (const std::string& line : wal_.records()) {
    if (records.size() == durable) break;
    TPM_ASSIGN_OR_RETURN(SchedulerLogRecord record,
                         SchedulerLogRecord::Parse(line));
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace tpm
