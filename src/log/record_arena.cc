#include "log/record_arena.h"

#include <algorithm>
#include <cstring>

#include "common/str_util.h"

namespace tpm {

Status RecordArena::Append(std::string_view record) {
  if (record.size() > kMaxRecordBytes) {
    return Status::InvalidArgument(
        StrCat("log record of ", record.size(), " bytes exceeds the ",
               kMaxRecordBytes, "-byte limit"));
  }
  char prefix[4];
  size_t prefix_bytes = 0;
  size_t length = record.size();
  do {
    unsigned char byte = static_cast<unsigned char>(length & 0x7F);
    length >>= 7;
    if (length != 0) byte |= 0x80;
    prefix[prefix_bytes++] = static_cast<char>(byte);
  } while (length != 0);
  Write(prefix, prefix_bytes);
  Write(record.data(), record.size());
  ++end_.records;
  return Status::OK();
}

void RecordArena::Truncate(Mark mark) {
  end_ = mark;
  blocks_.resize((mark.bytes + kBlockBytes - 1) / kBlockBytes);
}

void RecordArena::Write(const char* data, size_t length) {
  while (length > 0) {
    const size_t block = end_.bytes / kBlockBytes;
    const size_t in_block = end_.bytes % kBlockBytes;
    if (block == blocks_.size()) {
      // Default-initialized: pages are touched only as records fill them.
      blocks_.push_back(std::unique_ptr<char[]>(new char[kBlockBytes]));
    }
    const size_t chunk = std::min(length, kBlockBytes - in_block);
    std::memcpy(blocks_[block].get() + in_block, data, chunk);
    data += chunk;
    length -= chunk;
    end_.bytes += chunk;
  }
}

void RecordArena::Read(size_t offset, char* out, size_t length) const {
  while (length > 0) {
    const size_t in_block = offset % kBlockBytes;
    const size_t chunk = std::min(length, kBlockBytes - in_block);
    std::memcpy(out, blocks_[offset / kBlockBytes].get() + in_block, chunk);
    out += chunk;
    offset += chunk;
    length -= chunk;
  }
}

RecordArena::Iterator::Iterator(const RecordArena* arena, size_t offset)
    : arena_(arena), offset_(offset), next_(offset) {
  Load();
}

void RecordArena::Iterator::Load() {
  if (offset_ >= arena_->end_.bytes) return;
  size_t pos = offset_;
  size_t length = 0;
  for (int shift = 0;; shift += 7) {
    const unsigned char byte = arena_->ByteAt(pos++);
    length |= static_cast<size_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
  }
  record_.resize(length);
  arena_->Read(pos, record_.data(), length);
  next_ = pos + length;
}

RecordArena::Iterator& RecordArena::Iterator::operator++() {
  offset_ = next_;
  Load();
  return *this;
}

RecordArena::Iterator RecordArena::Iterator::operator++(int) {
  Iterator before = *this;
  ++*this;
  return before;
}

}  // namespace tpm
