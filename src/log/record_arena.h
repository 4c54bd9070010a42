#ifndef TPM_LOG_RECORD_ARENA_H_
#define TPM_LOG_RECORD_ARENA_H_

#include <cstddef>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace tpm {

/// Append-only store of log records, packed back to back into fixed-size
/// byte blocks.
///
/// Each record is a 1–4 byte length prefix (little-endian base-128: seven
/// payload-length bits per byte, high bit set on every byte but the last)
/// followed by the payload bytes. Records run across block boundaries, so
/// blocks carry no padding and a record may be larger than a block. There
/// is no per-record heap allocation and no per-record index: the memory
/// cost of a record is its payload plus its prefix, and the arena reserves
/// at most one partly filled block beyond that. An empty arena owns no
/// block.
///
/// Records are read in order only, through an input iterator that decodes
/// each record into a buffer the iterator owns (as std::istream_iterator
/// does); a reference it yields stays valid until the iterator advances.
/// Appending does not invalidate iterators; truncating below an
/// iterator's position does.
class RecordArena {
 public:
  /// Bytes per block (a power of two).
  static constexpr size_t kBlockBytes = size_t{1} << 16;
  /// Largest payload a 4-byte length prefix can describe.
  static constexpr size_t kMaxRecordBytes = (size_t{1} << 28) - 1;

  /// A position in the arena: the number of records before it and their
  /// encoded size in bytes. Truncate(mark) restores the arena to it.
  struct Mark {
    size_t records = 0;
    size_t bytes = 0;
  };

  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = std::string;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::string*;
    using reference = const std::string&;

    Iterator() = default;

    const std::string& operator*() const { return record_; }
    const std::string* operator->() const { return &record_; }
    Iterator& operator++();
    Iterator operator++(int);

    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.offset_ == b.offset_;
    }

   private:
    friend class RecordArena;
    Iterator(const RecordArena* arena, size_t offset);
    /// Decodes the record at offset_, if one is there.
    void Load();

    const RecordArena* arena_ = nullptr;
    size_t offset_ = 0;  // start of the current record
    size_t next_ = 0;    // start of the record after it
    std::string record_;
  };

  /// Appends one record; InvalidArgument if it exceeds kMaxRecordBytes.
  Status Append(std::string_view record);

  /// Drops every record after `mark` (a mark this arena produced, at or
  /// before end_mark()) and releases the blocks past it. O(1) per block
  /// released.
  void Truncate(Mark mark);

  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, end_.bytes); }

  size_t size() const { return end_.records; }
  /// Encoded bytes in use: payloads plus length prefixes.
  size_t size_bytes() const { return end_.bytes; }
  /// Bytes held in blocks, used or not.
  size_t bytes_reserved() const { return blocks_.size() * kBlockBytes; }
  Mark end_mark() const { return end_; }

 private:
  void Write(const char* data, size_t length);
  void Read(size_t offset, char* out, size_t length) const;
  unsigned char ByteAt(size_t offset) const {
    return static_cast<unsigned char>(
        blocks_[offset / kBlockBytes][offset % kBlockBytes]);
  }

  std::vector<std::unique_ptr<char[]>> blocks_;
  Mark end_;
};

}  // namespace tpm

#endif  // TPM_LOG_RECORD_ARENA_H_
