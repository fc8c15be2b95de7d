// 64-bit token hashing (paper §4.1.4).
//
// Tokens are encoded as 64-bit integers with a deterministic hash so the
// same function serves offline clustering and online matching without a
// stored token->id dictionary. The collision probability follows the
// birthday bound in the paper's Eq. 1 (~2.7e-6 for 10M distinct tokens).
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace bytebrain {

/// Finalizer from splitmix64; full-avalanche 64-bit mixer.
constexpr uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over the bytes, then avalanche-mixed. Deterministic across runs
/// and processes (no per-process seed), as required for offline/online
/// consistency.
constexpr uint64_t HashToken(std::string_view token) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : token) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

/// Combines two hashes (order-sensitive), boost::hash_combine style.
constexpr uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Hash of a full token sequence; used as the deduplication key.
template <typename It>
uint64_t HashTokenSequence(It begin, It end) {
  uint64_t h = 0x2545f4914f6cdd1dULL;
  for (It it = begin; it != end; ++it) {
    h = HashCombine(h, *it);
  }
  return h;
}

/// Fast 64-bit hash over bytes: 8-byte chunks, one multiply+rotate per
/// chunk, avalanche finalizer. Several times faster than HashToken's
/// byte-at-a-time FNV on typical tokens; use it where the value never
/// has to agree with HashToken (e.g. the ingest router's raw-bytes
/// dedup keys, which only ever meet other HashBytesFast values).
/// Deterministic across runs and processes, like everything here.

inline uint64_t HashBytesFast(std::string_view bytes) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ bytes.size();
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t chunk;
    std::memcpy(&chunk, bytes.data() + i, 8);
    h = (h ^ chunk) * 0x100000001b3ULL;
    h = (h << 29) | (h >> 35);
  }
  uint64_t tail = 0;
  for (size_t shift = 0; i < bytes.size(); ++i, shift += 8) {
    tail |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[i])) << shift;
  }
  h = (h ^ tail) * 0x100000001b3ULL;
  return Mix64(h);
}

/// Seed and per-token step of the token-sequence content hash, an
/// order-sensitive fold of per-token hashes (TokenTable::HashOf), shared
/// by the fused scan (core/tokenizer.cc: TokenizeReplacedIdsInto) and
/// the two-pass tenant-rule path (TemplateMatcher::Tokenize) so the two
/// stay bit-identical by construction.
inline constexpr uint64_t kTokenSeqFastSeed = 0x2545f4914f6cdd1dULL;
inline uint64_t CombineTokenHashFast(uint64_t h, uint64_t token_hash) {
  return (h ^ token_hash) * 0x100000001b3ULL;
}

/// Per-record frame checksum for the segmented on-disk topic format
/// (logstore/disk_backend.cc). Covers the timestamp and the text — the
/// length is bound through HashBytesFast's size-seeded state — but NOT
/// the template id, which retraining rewrites in place after the frame
/// is on disk. Deterministic across runs, like everything here.
inline uint64_t RecordChecksum(uint64_t timestamp_us, std::string_view text) {
  return HashCombine(Mix64(timestamp_us), HashBytesFast(text));
}

/// Seed for the fold of a segment's frame checksums (the per-segment
/// checksum stored in the manifest): fold = HashCombine(fold, frame_crc)
/// over frames in order, starting here.
inline constexpr uint64_t kSegmentChecksumSeed = 0x53454743'4b53554dULL;

}  // namespace bytebrain
