#include "log/record_arena.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/str_util.h"

namespace tpm {
namespace {

using Lines = std::vector<std::string>;

constexpr size_t kBlock = RecordArena::kBlockBytes;

Lines Contents(const RecordArena& arena) {
  return Lines(arena.begin(), arena.end());
}

/// A payload of `length` bytes whose content depends on `seed`, so a
/// record read back from the wrong offset does not compare equal.
std::string Payload(size_t length, int seed) {
  std::string payload(length, '\0');
  for (size_t i = 0; i < length; ++i) {
    payload[i] = static_cast<char>('a' + (i * 7 + seed) % 26);
  }
  return payload;
}

TEST(RecordArenaTest, EmptyArenaOwnsNoBlock) {
  RecordArena arena;
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_EQ(arena.size_bytes(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  EXPECT_TRUE(arena.begin() == arena.end());
}

TEST(RecordArenaTest, EmptyRecordsAndSeparatorsRoundTrip) {
  RecordArena arena;
  const Lines records = {"", "ACT|3|1|0|", "|", "", "a||b|", "|||"};
  for (const std::string& record : records) {
    ASSERT_TRUE(arena.Append(record).ok());
  }
  EXPECT_EQ(arena.size(), records.size());
  EXPECT_EQ(Contents(arena), records);
  // One prefix byte per short record, nothing else.
  size_t payload = 0;
  for (const std::string& record : records) payload += record.size();
  EXPECT_EQ(arena.size_bytes(), payload + records.size());
  EXPECT_EQ(arena.bytes_reserved(), kBlock);
}

TEST(RecordArenaTest, PrefixGrowsWithRecordLength) {
  // 127 fits one prefix byte, 128 needs two, 2^14 three, 2^21 four.
  const std::vector<std::pair<size_t, size_t>> cases = {
      {127, 1}, {128, 2}, {(1u << 14) - 1, 2}, {1u << 14, 3},
      {(1u << 21) - 1, 3}, {1u << 21, 4}};
  for (const auto& [length, prefix] : cases) {
    RecordArena arena;
    const std::string record = Payload(length, 1);
    ASSERT_TRUE(arena.Append(record).ok());
    EXPECT_EQ(arena.size_bytes(), length + prefix) << length;
    ASSERT_EQ(arena.size(), 1u);
    EXPECT_TRUE(*arena.begin() == record) << length;
  }
}

TEST(RecordArenaTest, RecordLargerThanOneBlock) {
  RecordArena arena;
  const std::string big = Payload(3 * kBlock + 17, 5);
  const Lines records = {"before", big, "after"};
  for (const std::string& record : records) {
    ASSERT_TRUE(arena.Append(record).ok());
  }
  EXPECT_EQ(Contents(arena), records);
  EXPECT_EQ(arena.bytes_reserved(), 4 * kBlock);
}

TEST(RecordArenaTest, RecordsCrossBlockBoundaries) {
  // Fill to one byte short of the first boundary (a 3-byte prefix plus
  // payload), so the next record's 2-byte prefix straddles it.
  RecordArena arena;
  Lines records = {Payload(kBlock - 4, 0)};
  ASSERT_TRUE(arena.Append(records[0]).ok());
  ASSERT_EQ(arena.size_bytes(), kBlock - 1);
  records.push_back(Payload(200, 1));
  ASSERT_TRUE(arena.Append(records.back()).ok());
  EXPECT_EQ(arena.size_bytes(), kBlock + 201);
  // Then many odd-sized records, so payloads straddle later boundaries at
  // varying offsets.
  for (int i = 2; arena.size_bytes() < 3 * kBlock; ++i) {
    records.push_back(Payload(static_cast<size_t>(i * 37 % 301), i));
    ASSERT_TRUE(arena.Append(records.back()).ok());
  }
  EXPECT_EQ(Contents(arena), records);
  EXPECT_EQ(arena.size(), records.size());
}

TEST(RecordArenaTest, TruncateRestoresMarkAndReleasesBlocks) {
  RecordArena arena;
  ASSERT_TRUE(arena.Append("a").ok());
  ASSERT_TRUE(arena.Append("b|c").ok());
  const RecordArena::Mark mark = arena.end_mark();
  EXPECT_EQ(mark.records, 2u);
  EXPECT_EQ(mark.bytes, 6u);
  ASSERT_TRUE(arena.Append(Payload(2 * kBlock, 3)).ok());
  ASSERT_TRUE(arena.Append("tail").ok());
  EXPECT_EQ(arena.bytes_reserved(), 3 * kBlock);

  arena.Truncate(mark);
  EXPECT_EQ(Contents(arena), (Lines{"a", "b|c"}));
  EXPECT_EQ(arena.size_bytes(), 6u);
  EXPECT_EQ(arena.bytes_reserved(), kBlock);
  // Appends continue right after the mark.
  ASSERT_TRUE(arena.Append("d").ok());
  EXPECT_EQ(Contents(arena), (Lines{"a", "b|c", "d"}));

  arena.Truncate(RecordArena::Mark{});
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), 0u);
}

TEST(RecordArenaTest, TruncateToMarkOnBlockBoundaryKeepsExactBlocks) {
  RecordArena arena;
  ASSERT_TRUE(arena.Append(Payload(kBlock - 3, 2)).ok());  // 3-byte prefix
  const RecordArena::Mark mark = arena.end_mark();
  ASSERT_EQ(mark.bytes, kBlock);
  ASSERT_TRUE(arena.Append("next").ok());
  EXPECT_EQ(arena.bytes_reserved(), 2 * kBlock);
  arena.Truncate(mark);
  EXPECT_EQ(arena.bytes_reserved(), kBlock);
  ASSERT_TRUE(arena.Append("again").ok());
  EXPECT_EQ(arena.size(), 2u);
  EXPECT_EQ(Contents(arena).back(), "again");
}

TEST(RecordArenaTest, IteratingWhileAppendingBetweenIterations) {
  RecordArena arena;
  ASSERT_TRUE(arena.Append("one").ok());
  RecordArena::Iterator it = arena.begin();
  EXPECT_EQ(*it, "one");
  // Appends (here across a block boundary) leave the iterator valid; it
  // walks on into the new records.
  const std::string big = Payload(kBlock + 5, 4);
  ASSERT_TRUE(arena.Append(big).ok());
  ASSERT_TRUE(arena.Append("three").ok());
  ++it;
  EXPECT_TRUE(*it == big);
  EXPECT_EQ(it->size(), big.size());
  RecordArena::Iterator before = it++;
  EXPECT_TRUE(*before == big);
  EXPECT_EQ(*it, "three");
  ++it;
  EXPECT_TRUE(it == arena.end());
  // A fresh pass sees everything appended since.
  ASSERT_TRUE(arena.Append("four").ok());
  EXPECT_EQ(Contents(arena), (Lines{"one", big, "three", "four"}));
}

TEST(RecordArenaTest, ReservesPayloadPlusPrefixPlusOneBlock) {
  // The memory guard: 100k log-sized records cost their payload, at most
  // four prefix bytes each, and at most one partly filled block — no
  // per-record allocation or index.
  RecordArena arena;
  size_t payload = 0;
  constexpr size_t kRecords = 100000;
  for (size_t i = 0; i < kRecords; ++i) {
    const std::string record = StrCat("ACT|", i, "|", i % 7, "|0|");
    payload += record.size();
    ASSERT_TRUE(arena.Append(record).ok());
  }
  EXPECT_EQ(arena.size(), kRecords);
  EXPECT_LE(arena.size_bytes(), payload + 4 * kRecords);
  EXPECT_LE(arena.bytes_reserved(), payload + 4 * kRecords + kBlock);
  size_t read = 0;
  for (const std::string& record : arena) {
    EXPECT_EQ(record, StrCat("ACT|", read, "|", read % 7, "|0|"));
    ++read;
  }
  EXPECT_EQ(read, kRecords);
}

}  // namespace
}  // namespace tpm
