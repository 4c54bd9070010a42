// common/fingerprint.h: the one FNV-1a everybody shares. The properties
// the determinism suite leans on: fixed reference values (platform and
// run independent), streaming == one-shot, and the little-endian
// fixed-width integer fold.

#include "common/fingerprint.h"

#include <gtest/gtest.h>

#include <string>

namespace tpm {
namespace {

TEST(FingerprintTest, MatchesKnownFnv1aVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(Fnv1a(""), 14695981039346656037ull);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(FingerprintTest, StreamingEqualsOneShot) {
  const std::string text = "P1[a1] P2[a2] C1 A2";
  uint64_t streamed = kFnv1aOffsetBasis;
  for (size_t i = 0; i < text.size(); ++i) {
    streamed = Fnv1a(streamed, text.substr(i, 1));
  }
  EXPECT_EQ(streamed, Fnv1a(text));

  // Arbitrary chunking, same answer.
  uint64_t chunked = Fnv1a(kFnv1aOffsetBasis, text.substr(0, 5));
  chunked = Fnv1a(chunked, text.substr(5));
  EXPECT_EQ(chunked, Fnv1a(text));
}

TEST(FingerprintTest, IntegerFoldIsFixedWidthAndOrderSensitive) {
  // Fnv1aInt folds exactly 8 bytes little-endian — so 1 as an int differs
  // from the one-byte string "\x01" followed by seven NULs only if the
  // widths differed. Pin the equivalence.
  const std::string one_le(
      "\x01\x00\x00\x00\x00\x00\x00\x00", 8);
  EXPECT_EQ(Fnv1aInt(kFnv1aOffsetBasis, 1), Fnv1a(one_le));

  // Order matters: (a, b) != (b, a).
  uint64_t ab = Fnv1aInt(Fnv1aInt(kFnv1aOffsetBasis, 1), 2);
  uint64_t ba = Fnv1aInt(Fnv1aInt(kFnv1aOffsetBasis, 2), 1);
  EXPECT_NE(ab, ba);
}

TEST(FingerprintTest, CombineIsOrderSensitiveAndDeterministic) {
  const uint64_t a = Fnv1a("history");
  const uint64_t b = Fnv1a("store");
  EXPECT_EQ(FingerprintCombine(a, b), FingerprintCombine(a, b));
  EXPECT_NE(FingerprintCombine(a, b), FingerprintCombine(b, a));
  EXPECT_NE(FingerprintCombine(a, b), a);
}

}  // namespace
}  // namespace tpm
