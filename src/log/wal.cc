#include "log/wal.h"

#include <utility>

#include "common/str_util.h"
#include "log/memory_backend.h"

namespace tpm {

Wal::Wal(bool synchronous)
    : backend_(std::make_unique<MemoryStorageBackend>()),
      synchronous_(synchronous) {}

Wal::Wal(std::unique_ptr<StorageBackend> backend, bool synchronous)
    : backend_(std::move(backend)), synchronous_(synchronous) {}

bool Wal::Hit(const char* site, bool during_sync) {
  if (listener_ == nullptr || !listener_->OnCrashPoint(site)) return false;
  crashed_ = true;
  if (during_sync) {
    backend_->SimulateCrashDuringSync();
  } else {
    backend_->SimulateCrash();
  }
  return true;
}

Status Wal::SyncWithHooks() {
  if (Hit(kWalCrashSiteSync, /*during_sync=*/true)) {
    return Status::Unavailable("wal crashed during sync");
  }
  TPM_RETURN_IF_ERROR(backend_->Sync());
  if (Hit(kWalCrashSiteSynced, /*during_sync=*/false)) {
    return Status::Unavailable("wal crashed after sync");
  }
  return Status::OK();
}

Status Wal::Append(std::string_view record) {
  if (crashed_) return Status::Unavailable("wal is crashed");
  if (Hit(kWalCrashSiteAppend, /*during_sync=*/false)) {
    return Status::Unavailable("wal crashed before append");
  }
  TPM_RETURN_IF_ERROR(backend_->Append(record));
  if (synchronous_ && !sync_deferred_) return SyncWithHooks();
  return Status::OK();
}

Status Wal::Flush() {
  if (crashed_) return Status::Unavailable("wal is crashed");
  return SyncWithHooks();
}

Status Wal::ReplaceAll(const std::vector<std::string>& records) {
  if (crashed_) return Status::Unavailable("wal is crashed");
  if (Hit(kWalCrashSiteReplace, /*during_sync=*/false)) {
    return Status::Unavailable("wal crashed before compaction swap");
  }
  TPM_RETURN_IF_ERROR(backend_->ReplaceAll(records));
  if (Hit(kWalCrashSiteReplaced, /*during_sync=*/false)) {
    return Status::Unavailable("wal crashed after compaction swap");
  }
  return Status::OK();
}

void Wal::Crash() {
  backend_->SimulateCrash();
  crashed_ = false;
}

}  // namespace tpm
