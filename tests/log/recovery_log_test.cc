#include "log/recovery_log.h"

#include <gtest/gtest.h>

namespace tpm {
namespace {

TEST(SchedulerLogRecordTest, RoundTripsAllKinds) {
  std::vector<SchedulerLogRecord> records = {
      {SchedulerLogRecord::Kind::kProcessBegin, ProcessId(3), ActivityId(),
       "my-process", 42},
      {SchedulerLogRecord::Kind::kActivityCommitted, ProcessId(3),
       ActivityId(2), "", 0},
      {SchedulerLogRecord::Kind::kActivityCompensated, ProcessId(3),
       ActivityId(2), "", 0},
      {SchedulerLogRecord::Kind::kProcessCommitted, ProcessId(3),
       ActivityId(), "", 0},
      {SchedulerLogRecord::Kind::kProcessAborted, ProcessId(3), ActivityId(),
       "", 0},
      {SchedulerLogRecord::Kind::kCommitHeld, ProcessId(3), ActivityId(2),
       "1:7", 5},
      // A recovery wave's records: ACT/COMP naming the prepared branch, and
      // the marker that resolves the wave.
      {SchedulerLogRecord::Kind::kActivityCompensated, ProcessId(3),
       ActivityId(2), "1:8", 0},
      {SchedulerLogRecord::Kind::kWaveResolved, ProcessId(), ActivityId(), "",
       0},
  };
  for (const auto& record : records) {
    auto parsed = SchedulerLogRecord::Parse(record.Serialize());
    ASSERT_TRUE(parsed.ok()) << record.Serialize();
    EXPECT_EQ(*parsed, record);
  }
}

TEST(SchedulerLogRecordTest, MalformedLineRejected) {
  EXPECT_FALSE(SchedulerLogRecord::Parse("garbage").ok());
  EXPECT_FALSE(SchedulerLogRecord::Parse("WHAT|1|2|0|x").ok());
}

// Fuzz-style table: corrupted, truncated and garbage lines must all come
// back as a Status — never a throw (std::stoll's failure mode) and never a
// bogus parsed record.
TEST(SchedulerLogRecordTest, CorruptedLinesYieldStatusNotThrow) {
  const std::string corpus[] = {
      "",
      "|",
      "||||",
      "BEGIN",
      "BEGIN|1",
      "BEGIN|1|0",
      "BEGIN|1|0|42",                // truncated: def name missing
      "BEGIN||0|42|p",               // empty pid
      "BEGIN|one|0|42|p",            // non-numeric pid
      "BEGIN|1|zero|42|p",           // non-numeric activity
      "BEGIN|1|0|4x2|p",             // trailing junk in param
      "BEGIN|1|0| 42|p",             // leading space (strict parse)
      "BEGIN|1|0|+42|p",             // explicit plus sign rejected
      "BEGIN|99999999999999999999|0|0|p",  // pid out of int64 range
      "BEGIN|1|0|99999999999999999999|p",  // param out of range
      "ACT|1|2",                     // too few fields
      "ACT|1.5|2|0|",                // float-ish pid
      "COMP|0x10|2|0|",              // hex not accepted
      "COMMIT|1|\xff\xfe|0|",        // binary garbage in a numeric field
      "\x00\x01\x02\x03\x04",        // binary garbage line
      "ABORT|18446744073709551616|0|0|",   // > uint64 max
      "BEGIN|-|0|0|p",               // lone minus sign
  };
  for (const std::string& line : corpus) {
    auto parsed = SchedulerLogRecord::Parse(line);
    EXPECT_FALSE(parsed.ok()) << "accepted corrupt line: " << line;
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << parsed.status().ToString();
  }
}

TEST(SchedulerLogRecordTest, RoundTripSurvivesHostileFieldValues) {
  // Serialize → Parse must round-trip even for edge-case field values,
  // including a def name containing the record separator.
  const SchedulerLogRecord hostile[] = {
      {SchedulerLogRecord::Kind::kProcessBegin, ProcessId(1), ActivityId(),
       "name|with|pipes", -9223372036854775807LL - 1},
      {SchedulerLogRecord::Kind::kProcessBegin, ProcessId(1), ActivityId(),
       "", 9223372036854775807LL},
      {SchedulerLogRecord::Kind::kActivityCommitted,
       ProcessId(9223372036854775807LL), ActivityId(9223372036854775807LL),
       "", 0},
  };
  for (const auto& record : hostile) {
    auto parsed = SchedulerLogRecord::Parse(record.Serialize());
    ASSERT_TRUE(parsed.ok()) << record.Serialize();
    EXPECT_EQ(*parsed, record);
  }
}

TEST(RecoveryLogTest, ReplaceAllIsAtomicCheckpoint) {
  RecoveryLog log;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(log.Append({SchedulerLogRecord::Kind::kActivityCommitted,
                            ProcessId(1), ActivityId(i + 1), "", 0})
                    .ok());
  }
  ASSERT_TRUE(log.ReplaceAll({{SchedulerLogRecord::Kind::kProcessBegin,
                               ProcessId(1), ActivityId(), "p", 0}})
                  .ok());
  auto records = log.Records();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].kind, SchedulerLogRecord::Kind::kProcessBegin);
}

TEST(RecoveryLogTest, AppendAndReadBack) {
  RecoveryLog log;
  log.Append({SchedulerLogRecord::Kind::kProcessBegin, ProcessId(1),
              ActivityId(), "p", 7});
  log.Append({SchedulerLogRecord::Kind::kActivityCommitted, ProcessId(1),
              ActivityId(1), "", 0});
  auto records = log.Records();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].kind, SchedulerLogRecord::Kind::kProcessBegin);
  EXPECT_EQ((*records)[0].param, 7);
  EXPECT_EQ((*records)[1].activity, ActivityId(1));
}

TEST(RecoveryLogTest, AsynchronousLosesTailOnCrash) {
  RecoveryLog log(/*synchronous=*/false);
  log.Append({SchedulerLogRecord::Kind::kProcessBegin, ProcessId(1),
              ActivityId(), "p", 0});
  log.Flush();
  log.Append({SchedulerLogRecord::Kind::kActivityCommitted, ProcessId(1),
              ActivityId(1), "", 0});
  log.Crash();
  auto records = log.Records();
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
}

}  // namespace
}  // namespace tpm
