#ifndef TPM_LOG_MEMORY_BACKEND_H_
#define TPM_LOG_MEMORY_BACKEND_H_

#include <string>
#include <string_view>
#include <vector>

#include "log/storage_backend.h"

namespace tpm {

/// In-memory storage backend: "stable storage" is the arena prefix up to
/// the mark the last Sync() recorded. Used by tests, benchmarks and
/// simulations where real durability is not needed but the durability
/// *boundary* must behave exactly like the file backend's.
class MemoryStorageBackend : public StorageBackend {
 public:
  Status Append(std::string_view record) override;
  Status Sync() override;
  Status ReplaceAll(const std::vector<std::string>& records) override;
  const RecordArena& records() const override { return records_; }
  size_t durable_size() const override { return durable_.records; }
  void SimulateCrash() override;

 private:
  RecordArena records_;
  RecordArena::Mark durable_;
};

}  // namespace tpm

#endif  // TPM_LOG_MEMORY_BACKEND_H_
