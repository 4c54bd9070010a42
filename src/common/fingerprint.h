#ifndef TPM_COMMON_FINGERPRINT_H_
#define TPM_COMMON_FINGERPRINT_H_

#include <cstdint>
#include <string_view>

namespace tpm {

/// FNV-1a, the fingerprint function shared by the equivalence and
/// determinism tests, SchedulerStats::Fingerprint and the subsystems'
/// StateFingerprint. Chosen for what the determinism suite needs: a fixed,
/// platform-independent definition (no seed randomization, no
/// libc++-specific std::hash), stable across runs so a fingerprint
/// mismatch always means the *state* diverged, never the hasher.
inline constexpr uint64_t kFnv1aOffsetBasis = 14695981039346656037ull;
inline constexpr uint64_t kFnv1aPrime = 1099511628211ull;

/// Chained form: folds `bytes` into a running hash (start from
/// kFnv1aOffsetBasis). Streaming N chunks equals hashing their
/// concatenation.
inline uint64_t Fnv1a(uint64_t hash, std::string_view bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= kFnv1aPrime;
  }
  return hash;
}

inline uint64_t Fnv1a(std::string_view bytes) {
  return Fnv1a(kFnv1aOffsetBasis, bytes);
}

/// Folds an integer into a running hash byte by byte (little-endian,
/// fixed width — not the platform's memory layout).
inline uint64_t Fnv1aInt(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= static_cast<unsigned char>(value >> (8 * i));
    hash *= kFnv1aPrime;
  }
  return hash;
}

/// Order-dependent combination of two finished hashes (e.g. per-shard
/// fingerprints folded into one).
inline uint64_t FingerprintCombine(uint64_t a, uint64_t b) {
  return Fnv1aInt(Fnv1aInt(kFnv1aOffsetBasis, a), b);
}

}  // namespace tpm

#endif  // TPM_COMMON_FINGERPRINT_H_
