// The prepared-tx contract of the semantic ADT subsystems: resolving a tx
// twice, or resolving one that was never issued, returns NotFound and
// changes nothing. Recovery's force-commit of logged decisions and the
// cross-shard agent's resolve step re-send commits and aborts that may
// already have landed, and rely on exactly this.

#include <gtest/gtest.h>

#include "subsystem/escrow_subsystem.h"
#include "subsystem/queue_subsystem.h"

namespace tpm {
namespace {

constexpr ServiceId kForward{1};

// Each case registers one forward service whose prepared effect (and so
// whose undo) shows in Snapshot().
struct EscrowCase {
  using Adt = EscrowSubsystem;
  static void SetUp(EscrowSubsystem* adt) {
    ASSERT_TRUE(adt->CreateCounter("stock", 10).ok());
    ASSERT_TRUE(adt->RegisterIncService(kForward, "stock", 3).ok());
  }
};

struct QueueCase {
  using Adt = QueueSubsystem;
  static void SetUp(QueueSubsystem* adt) {
    ASSERT_TRUE(adt->CreateQueue("orders", 1).ok());
    ASSERT_TRUE(adt->RegisterEnqueueService(kForward, "orders").ok());
  }
};

template <typename Case>
class PreparedTxContractTest : public ::testing::Test {
 protected:
  void SetUp() override { Case::SetUp(&adt_); }

  TxId Prepare() {
    auto handle = adt_.InvokePrepared(
        kForward, ServiceRequest{ProcessId(1), ActivityId(1), 0});
    EXPECT_TRUE(handle.ok()) << handle.status();
    return handle.ok() ? handle->tx : TxId(0);
  }

  // `resolve` must fail NotFound and leave the state as it was.
  template <typename Resolve>
  void ExpectNotFoundAndUnchanged(Resolve resolve) {
    const auto snapshot = adt_.Snapshot();
    const uint64_t fingerprint = adt_.StateFingerprint();
    EXPECT_TRUE(resolve().IsNotFound());
    EXPECT_EQ(adt_.Snapshot(), snapshot);
    EXPECT_EQ(adt_.StateFingerprint(), fingerprint);
  }

  typename Case::Adt adt_{SubsystemId(1), "adt"};
};

using AdtCases = ::testing::Types<EscrowCase, QueueCase>;
TYPED_TEST_SUITE(PreparedTxContractTest, AdtCases);

TYPED_TEST(PreparedTxContractTest, CommitOfACommittedTxIsNotFound) {
  const TxId tx = this->Prepare();
  ASSERT_TRUE(this->adt_.CommitPrepared(tx).ok());
  this->ExpectNotFoundAndUnchanged(
      [&] { return this->adt_.CommitPrepared(tx); });
}

TYPED_TEST(PreparedTxContractTest, AbortAfterCommitNeverRunsTheUndo) {
  const auto before = this->adt_.Snapshot();
  const TxId tx = this->Prepare();
  ASSERT_TRUE(this->adt_.CommitPrepared(tx).ok());
  const auto committed = this->adt_.Snapshot();
  ASSERT_NE(committed, before);
  this->ExpectNotFoundAndUnchanged(
      [&] { return this->adt_.AbortPrepared(tx); });
  EXPECT_EQ(this->adt_.Snapshot(), committed);  // the effect stays
  EXPECT_TRUE(this->adt_.AbortAllPrepared().ok());
  EXPECT_EQ(this->adt_.Snapshot(), committed);
}

TYPED_TEST(PreparedTxContractTest, ResolvingAnAbortedTxIsNotFound) {
  const auto before = this->adt_.Snapshot();
  const TxId tx = this->Prepare();
  ASSERT_TRUE(this->adt_.AbortPrepared(tx).ok());
  EXPECT_EQ(this->adt_.Snapshot(), before);  // the undo ran once
  this->ExpectNotFoundAndUnchanged(
      [&] { return this->adt_.AbortPrepared(tx); });
  this->ExpectNotFoundAndUnchanged(
      [&] { return this->adt_.CommitPrepared(tx); });
  EXPECT_EQ(this->adt_.Snapshot(), before);
}

TYPED_TEST(PreparedTxContractTest, ResolvingANeverIssuedTxIsNotFound) {
  const TxId issued = this->Prepare();
  const TxId never(issued.value() + 1);
  this->ExpectNotFoundAndUnchanged(
      [&] { return this->adt_.CommitPrepared(never); });
  this->ExpectNotFoundAndUnchanged(
      [&] { return this->adt_.AbortPrepared(never); });
  // The issued tx is untouched by the misses and still resolves.
  EXPECT_TRUE(this->adt_.CommitPrepared(issued).ok());
}

}  // namespace
}  // namespace tpm
