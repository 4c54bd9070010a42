#include "log/memory_backend.h"

#include <utility>

namespace tpm {

Status MemoryStorageBackend::Append(std::string_view record) {
  return records_.Append(record);
}

Status MemoryStorageBackend::Sync() {
  durable_ = records_.end_mark();
  return Status::OK();
}

Status MemoryStorageBackend::ReplaceAll(
    const std::vector<std::string>& records) {
  // Build-then-swap: the replacement becomes visible (and durable) as one
  // unit, so a crash during compaction leaves either the old or the new
  // contents — never a truncated checkpoint.
  RecordArena next;
  for (const std::string& record : records) {
    TPM_RETURN_IF_ERROR(next.Append(record));
  }
  records_ = std::move(next);
  durable_ = records_.end_mark();
  return Status::OK();
}

void MemoryStorageBackend::SimulateCrash() { records_.Truncate(durable_); }

}  // namespace tpm
