// Copyright 2026 The MinoanER Authors.
// Hashing helpers shared by interner, blocking, and shard partitioners.

#ifndef MINOAN_UTIL_HASH_H_
#define MINOAN_UTIL_HASH_H_

#include <cstdint>
#include <cstddef>
#include <string_view>

namespace minoan {

/// 64-bit FNV-1a over bytes. Stable across platforms and runs — block keys,
/// shard partitions, and generator decisions all depend on this, so it
/// must never be replaced by std::hash (which is allowed to vary per process).
inline uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Finalizing mixer (murmur3 fmix64): turns a structured integer into a
/// well-distributed hash.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// boost-style combine for building composite hashes.
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return seed ^ (Mix64(value) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                 (seed >> 2));
}

/// Canonical hash of an unordered entity pair: symmetric in (a, b).
inline uint64_t PairHash(uint32_t a, uint32_t b) {
  if (a > b) {
    uint32_t t = a;
    a = b;
    b = t;
  }
  return Mix64((static_cast<uint64_t>(a) << 32) | b);
}

/// Packs an ordered pair (a < b enforced) into one 64-bit key; used as the
/// identity of a comparison throughout blocking/meta-blocking/scheduling.
inline uint64_t PairKey(uint32_t a, uint32_t b) {
  if (a > b) {
    uint32_t t = a;
    a = b;
    b = t;
  }
  return (static_cast<uint64_t>(a) << 32) | b;
}

inline uint32_t PairKeyFirst(uint64_t key) {
  return static_cast<uint32_t>(key >> 32);
}
inline uint32_t PairKeySecond(uint64_t key) {
  return static_cast<uint32_t>(key & 0xffffffffULL);
}

}  // namespace minoan

#endif  // MINOAN_UTIL_HASH_H_
