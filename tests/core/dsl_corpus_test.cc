// A corpus of hand-designed worlds (via the DSL) with expected verdicts
// for every criterion — adversarial corner cases of the schedule theory
// beyond the paper's own figures.

#include <gtest/gtest.h>

#include "core/expansion.h"
#include "core/pred.h"
#include "core/process_dsl.h"
#include "core/reduction.h"
#include "core/serializability.h"
#include "core/sot.h"

namespace tpm {
namespace {

struct Verdicts {
  bool serializable;
  bool red;
  bool pred;
  bool sot;
};

struct Case {
  const char* name;
  const char* world;
  Verdicts expected;
};

// Two single-compensatable processes on one conflicting service each.
constexpr char kTwoComp[] = R"(
process A
  activity x c service=1 comp=101
end
process B
  activity y c service=2 comp=102
end
conflict 1 2
)";

const Case kCases[] = {
    {
        "interleaved compensatables, both active: reducible",
        R"(
process A
  activity x c service=1 comp=101
end
process B
  activity y c service=2 comp=102
end
conflict 1 2
schedule A.x B.y
)",
        {true, true, true, true},
    },
    {
        "conflicting pair frozen by commit of the later process",
        R"(
process A
  activity x c service=1 comp=101
end
process B
  activity y p service=2
end
conflict 1 2
schedule A.x B.y CB
)",
        // B's pivot froze after consuming A's x; A's completion must
        // compensate x behind it: irreducible.
        {true, false, false, true},
    },
    {
        "same shape but the earlier process commits first",
        R"(
process A
  activity x c service=1 comp=101
end
process B
  activity y p service=2
end
conflict 1 2
schedule A.x CA B.y CB
)",
        {true, true, true, true},
    },
    {
        "compensation emitted in the wrong order (violates Lemma 2)",
        R"(
process A
  activity x c service=1 comp=101
end
process B
  activity y c service=1 comp=102
end
conflict 1 1
schedule! A.x B.y A.x^-1 B.y^-1
)",
        {false, false, false, false},
    },
    {
        "compensation emitted in reverse order (Lemma 2 satisfied)",
        R"(
process A
  activity x c service=1 comp=101
end
process B
  activity y c service=1 comp=102
end
conflict 1 1
schedule B.y A.x A.x^-1 B.y^-1
)",
        // Pairs cancel bottom-up, so the schedule is (prefix-)reducible —
        // although the raw conflict graph over ALL events is cyclic
        // (y < x < y^-1): Theorem 1's serializability claim is about the
        // committed projection, which is empty here.
        {false, true, true, false},
    },
    {
        "aborted invocations never block reduction",
        R"(
process A
  activity x c service=1 comp=101
end
process B
  activity y p service=2
end
conflict 1 2
schedule B.y! A.x B.y! A.x^-1 AA B.y CB
)",
        // The failed invocations of y between x and x^-1 are effect-free.
        {true, true, true, true},
    },
    {
        "re-execution after compensation (alternative retry shape)",
        R"(
process A
  activity x c service=1 comp=101
end
process B
  activity y c service=2 comp=102
end
conflict 1 2
schedule A.x A.x^-1 A.x B.y CA CB
)",
        // The cancelled first attempt does not conflict-order A after B.
        {true, true, true, true},
    },
    {
        "group abort mid-schedule frees both processes",
        R"(
process A
  activity x c service=1 comp=101
end
process B
  activity y c service=2 comp=102
end
process C
  activity z r service=3
end
conflict 1 2
schedule A.x B.y GA(A,B) C.z
)",
        {true, true, true, true},
    },
    {
        "retriable tail conflict across active processes",
        R"(
process A
  activity p p service=1
  activity r r service=2
  edge p r
end
process B
  activity p p service=3
  activity r r service=2
  edge p r
end
conflict 2 2
schedule A.p B.p A.r B.r
)",
        // Frozen retriables conflict one way only: still reducible.
        {true, true, true, true},
    },
    {
        "cyclic frozen retriables",
        R"(
process A
  activity p p service=1
  activity r r service=2
  edge p r
end
process B
  activity p p service=2
  activity r r service=1
  edge p r
end
conflict 1 2
schedule A.p B.p B.r A.r
)",
        // Edges: A.p(svc1) < B.p(svc2) gives A->B; B.r(svc1) < A.r(svc2)
        // gives B->A — a cycle of frozen non-compensatables that no
        // reduction rule can touch.
        {false, false, false, false},
    },
    {
        "individual abort mid-schedule expands in place",
        R"(
process A
  activity x c service=1 comp=101
end
process B
  activity y p service=1
end
conflict 1 1
schedule A.x A.x^-1 AA B.y CB
)",
        // A undid itself and aborted before B used the service: clean.
        {true, true, true, true},
    },
    {
        "compensatable-retriable consumed by a frozen pivot",
        R"(
process A
  activity x cr service=1 comp=101
end
process B
  activity y p service=1
end
conflict 1 1
schedule A.x B.y CB
)",
        // Same trap as with a plain compensatable: A's completion must
        // compensate x behind B's frozen y (footnote 2 kinds compensate
        // too).
        {true, false, false, true},
    },
    {
        "three-process chain stays reducible",
        R"(
process A
  activity x c service=1 comp=101
end
process B
  activity y c service=1 comp=102
end
process C
  activity z c service=1 comp=103
end
conflict 1 1
schedule A.x B.y C.z CA CB CC
)",
        // Same-service chain, commits in conflict order.
        {true, true, true, true},
    },
    {
        "three-process chain with inverted middle commit",
        R"(
process A
  activity x c service=1 comp=101
end
process B
  activity y c service=1 comp=102
end
process C
  activity z c service=1 comp=103
end
conflict 1 1
schedule A.x B.y C.z CB CC
)",
        // A stays active: its completion compensates x behind the frozen
        // committed y and z. SOT accepts it (A has no terminal event, so
        // its clauses are vacuous) — another SOT/PRED gap witness.
        {true, false, false, true},
    },
    {
        "op-commuting services dissolve the frozen-pivot trap",
        R"(
op t.inc
op t.dec
inverse t.inc t.dec
commute t.inc t.inc
bind 1 t.inc
bind 101 t.dec
bind 2 t.inc
process A
  activity x c service=1 comp=101
end
process B
  activity y p service=2
end
conflict 1 2
schedule A.x B.y CB
)",
        // Identical shape to the earlier frozen-pivot case, but both
        // services are escrow-style commuting increments: the service-level
        // conflict is downgraded, so A's eventual compensation no longer
        // has to cross a frozen conflicting event.
        {true, true, true, true},
    },
    {
        "perfect-closure lets wrong-order compensations cancel",
        R"(
op t.inc
op t.dec
inverse t.inc t.dec
commute t.inc t.inc
bind 1 t.inc
bind 101 t.dec
bind 102 t.dec
process A
  activity x c service=1 comp=101
end
process B
  activity y c service=1 comp=102
end
conflict 1 1
schedule! A.x B.y A.x^-1 B.y^-1
)",
        // The same event order violates Lemma 2 under read/write
        // modeling (see the earlier case); with inc self-commuting and the
        // table closed over <inc dec>, nothing conflicts and both pairs
        // cancel in either order (SOT holds vacuously: no conflicts means
        // no serialization-order constraints to violate).
        {true, true, true, true},
    },
};

// Without this, gtest prints a Case as its raw bytes, which include the
// (address-randomised) string pointers, so the listed test names would
// change from build to build. Print the expected verdicts instead.
void PrintTo(const Case& c, std::ostream* os) {
  *os << "SR=" << c.expected.serializable << " RED=" << c.expected.red
      << " PRED=" << c.expected.pred << " SOT=" << c.expected.sot;
}

class DslCorpusTest : public ::testing::TestWithParam<Case> {};

TEST_P(DslCorpusTest, VerdictsMatch) {
  const Case& c = GetParam();
  auto world = ParseWorld(c.world);
  ASSERT_TRUE(world.ok()) << c.name << ": " << world.status();
  const ProcessSchedule& s = (*world)->schedule;
  const ConflictSpec& spec = (*world)->spec;

  EXPECT_EQ(IsSerializable(s, spec), c.expected.serializable) << c.name;
  auto red = IsRED(s, spec);
  ASSERT_TRUE(red.ok()) << c.name;
  EXPECT_EQ(*red, c.expected.red) << c.name;
  auto pred = IsPRED(s, spec);
  ASSERT_TRUE(pred.ok()) << c.name;
  EXPECT_EQ(*pred, c.expected.pred) << c.name;
  EXPECT_EQ(IsSOT(s, spec), c.expected.sot) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, DslCorpusTest, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return "case" + std::to_string(info.index);
                         });

TEST(DslCorpusTest, BaselineWorldParses) {
  auto world = ParseWorld(kTwoComp);
  ASSERT_TRUE(world.ok());
  EXPECT_FALSE((*world)->has_schedule);
}

}  // namespace
}  // namespace tpm
