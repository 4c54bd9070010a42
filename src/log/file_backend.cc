#include "log/file_backend.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/str_util.h"
#include "log/crc32c.h"

namespace tpm {

namespace {

constexpr size_t kFrameHeaderBytes = 8;  // u32 length + u32 masked crc

void PutU32Le(std::string* out, uint32_t value) {
  out->push_back(static_cast<char>(value & 0xFF));
  out->push_back(static_cast<char>((value >> 8) & 0xFF));
  out->push_back(static_cast<char>((value >> 16) & 0xFF));
  out->push_back(static_cast<char>((value >> 24) & 0xFF));
}

uint32_t GetU32Le(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return Status::Unavailable(StrCat(op, " failed for ", path, ": ",
                                    std::strerror(errno)));
}

Status WriteFully(int fd, const char* data, size_t length,
                  const std::string& path) {
  size_t written = 0;
  while (written < length) {
    ssize_t n = ::write(fd, data + written, length - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path);
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Best-effort fsync of the directory containing `path`, so a rename or a
/// newly created file itself survives a crash.
void SyncParentDir(const std::string& path) {
  std::string dir = ".";
  size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) dir = path.substr(0, slash + 1);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace

std::string FileStorageBackend::EncodeFrame(std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutU32Le(&frame, static_cast<uint32_t>(payload.size()));
  PutU32Le(&frame, MaskCrc32c(Crc32c(payload.data(), payload.size())));
  frame.append(payload);
  return frame;
}

FileStorageBackend::FileStorageBackend(std::string path, int fd)
    : path_(std::move(path)), fd_(fd) {}

FileStorageBackend::~FileStorageBackend() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<FileStorageBackend>> FileStorageBackend::Open(
    std::string path) {
  // A compaction that crashed before its rename may leave a stale tmp file;
  // it was never the live log, so it is simply discarded.
  ::unlink((path + ".tmp").c_str());

  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return ErrnoStatus("open", path);
  auto backend =
      std::unique_ptr<FileStorageBackend>(new FileStorageBackend(path, fd));

  // Read the whole file and scan frames.
  std::string contents;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("read", path);
    }
    if (n == 0) break;
    contents.append(buf, static_cast<size_t>(n));
  }

  size_t offset = 0;
  while (offset < contents.size()) {
    if (contents.size() - offset < kFrameHeaderBytes) break;  // torn header
    const auto* p =
        reinterpret_cast<const unsigned char*>(contents.data() + offset);
    uint32_t length = GetU32Le(p);
    uint32_t stored_crc = UnmaskCrc32c(GetU32Le(p + 4));
    if (contents.size() - offset - kFrameHeaderBytes < length) {
      break;  // torn payload
    }
    const char* payload = contents.data() + offset + kFrameHeaderBytes;
    if (Crc32c(payload, length) != stored_crc) {
      // A bad CRC at the tail is a torn write; anywhere else it is real
      // corruption of the durable prefix, which recovery must not paper
      // over (replaying records past a hole breaks the prefix guarantee).
      if (offset + kFrameHeaderBytes + length < contents.size()) {
        return Status::InvalidArgument(
            StrCat("corrupt log record at offset ", offset, " of ", path));
      }
      break;
    }
    TPM_RETURN_IF_ERROR(
        backend->records_.Append(std::string_view(payload, length)));
    offset += kFrameHeaderBytes + length;
  }

  if (offset < contents.size()) {
    backend->open_stats_.torn_bytes_truncated = contents.size() - offset;
    if (::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
      return ErrnoStatus("ftruncate", path);
    }
    if (::fsync(fd) != 0) return ErrnoStatus("fsync", path);
  }
  backend->open_stats_.records_recovered = backend->records_.size();
  backend->durable_ = backend->records_.end_mark();
  backend->synced_bytes_ = offset;
  return backend;
}

Status FileStorageBackend::Append(std::string_view record) {
  if (fd_ < 0) return Status::Unavailable("log file backend is closed");
  TPM_RETURN_IF_ERROR(records_.Append(record));
  pending_.append(EncodeFrame(record));
  return Status::OK();
}

Status FileStorageBackend::Sync() {
  if (fd_ < 0) return Status::Unavailable("log file backend is closed");
  if (!pending_.empty()) {
    if (::lseek(fd_, static_cast<off_t>(synced_bytes_), SEEK_SET) < 0) {
      return ErrnoStatus("lseek", path_);
    }
    TPM_RETURN_IF_ERROR(WriteFully(fd_, pending_.data(), pending_.size(),
                                   path_));
    if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
    synced_bytes_ += pending_.size();
    pending_.clear();
  }
  durable_ = records_.end_mark();
  return Status::OK();
}

Status FileStorageBackend::ReplaceAll(const std::vector<std::string>& records) {
  if (fd_ < 0) return Status::Unavailable("log file backend is closed");
  RecordArena next;
  std::string encoded;
  for (const std::string& record : records) {
    TPM_RETURN_IF_ERROR(next.Append(record));
    encoded.append(EncodeFrame(record));
  }
  const std::string tmp_path = path_ + ".tmp";
  int tmp_fd = ::open(tmp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (tmp_fd < 0) return ErrnoStatus("open", tmp_path);
  Status write_status = WriteFully(tmp_fd, encoded.data(), encoded.size(),
                                   tmp_path);
  if (write_status.ok() && ::fsync(tmp_fd) != 0) {
    write_status = ErrnoStatus("fsync", tmp_path);
  }
  ::close(tmp_fd);
  if (!write_status.ok()) {
    ::unlink(tmp_path.c_str());
    return write_status;
  }
  // The swap: after the rename the new log is the live log, atomically.
  if (::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    return ErrnoStatus("rename", tmp_path);
  }
  SyncParentDir(path_);
  // Our descriptor still points at the replaced inode; reopen the new one.
  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_RDWR, 0644);
  if (fd_ < 0) return ErrnoStatus("open", path_);
  records_ = std::move(next);
  durable_ = records_.end_mark();
  synced_bytes_ = encoded.size();
  pending_.clear();
  return Status::OK();
}

void FileStorageBackend::SimulateCrash() {
  // Nothing past the durable prefix ever reached the file; dropping the
  // staged bytes and the volatile record tail is the whole crash.
  pending_.clear();
  records_.Truncate(durable_);
}

void FileStorageBackend::SimulateCrashDuringSync() {
  // A crash in the middle of the Sync write: a prefix of the staged bytes
  // lands in the file without the fsync — the torn tail the next Open()
  // must truncate. The backend object is dead afterwards (the harness
  // reopens the path, as a restarted process would).
  if (fd_ >= 0 && !pending_.empty()) {
    size_t torn = pending_.size() / 2;
    if (torn == 0) torn = 1;
    if (::lseek(fd_, static_cast<off_t>(synced_bytes_), SEEK_SET) >= 0) {
      (void)WriteFully(fd_, pending_.data(), torn, path_);
    }
  }
  pending_.clear();
  records_.Truncate(durable_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace tpm
