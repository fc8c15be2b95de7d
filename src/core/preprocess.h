// Preprocessing pipeline (paper §4.1): variable replacement ->
// tokenization -> hash encoding -> deduplication.
//
// The output is the deduplicated set of encoded logs; each distinct log
// keeps its occurrence count, and `distinct_of` maps every raw log to
// the distinct log it collapsed into, so later stages can map cluster
// assignments back to every input record.
//
// Shards dedup in parallel and are then merged serially, both through a
// flat DedupIndex (util/flat_table.h) keyed by the token-sequence hash;
// logs whose hashes collide are chained and compared token by token.
// Distinct logs keep first-seen order, so the output does not depend on
// the shard count. Nothing is allocated per log: each shard appends the
// token hashes and texts of its distinct logs to flat arrays that the
// result owns, and an EncodedLog is a view into them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/encoder.h"
#include "core/variable_replacer.h"
#include "util/status.h"

namespace bytebrain {

/// One distinct log after preprocessing: a view into the flat arrays of
/// the PreprocessResult that produced it, valid while that result lives.
struct EncodedLog {
  /// Hash- (or ordinal-) encoded tokens.
  std::span<const uint64_t> tokens;
  /// Token i's text spans [text_ends[i], text_ends[i + 1]) of text_chars
  /// (tokens.size() + 1 bounds).
  const char* text_chars = nullptr;
  const uint32_t* text_ends = nullptr;
  /// Number of raw logs that collapsed into this entry.
  uint64_t count = 0;

  /// The text of token i (post variable-replacement); "*" marks replaced
  /// variables. Needed to emit template texts after clustering.
  std::string_view text(size_t i) const {
    return {text_chars + text_ends[i], text_ends[i + 1] - text_ends[i]};
  }
};

/// Result of preprocessing a training batch. Move-only: its logs view
/// into its own storage.
struct PreprocessResult {
  /// The flat storage of one input shard's distinct logs, in the order
  /// the shard found them. A shard holds under 4 GiB of token text.
  struct Arena {
    std::vector<uint64_t> tokens;
    std::vector<uint32_t> text_ends;  // one per token, after a leading 0
    std::vector<char> chars;
  };

  PreprocessResult() = default;
  PreprocessResult(const PreprocessResult&) = delete;
  PreprocessResult& operator=(const PreprocessResult&) = delete;
  PreprocessResult(PreprocessResult&&) = default;
  PreprocessResult& operator=(PreprocessResult&&) = default;

  std::vector<EncodedLog> logs;       // distinct logs, first-seen order
  std::vector<uint32_t> distinct_of;  // raw index -> index into logs
  size_t total_logs = 0;              // raw input count
  uint64_t dictionary_bytes = 0;  // ordinal-encoder dictionary size (0 = hash)
  std::vector<Arena> arenas;      // what `logs` views into
};

/// Preprocessing configuration (ablation switches included).
struct PreprocessOptions {
  EncoderKind encoder = EncoderKind::kHash;
  /// Collapse duplicate token sequences (paper §4.1.3). Disabling models
  /// the "w/o deduplication & related techs" Fig. 9 variant.
  bool deduplicate = true;
  /// Worker threads for the tokenize+encode phase (1 = sequential).
  int num_threads = 1;
};

/// Runs the full preprocessing pipeline over `raw_logs`. The view
/// overload is the core (the training path feeds it views into mmap'd
/// storage segments so a window is never copied into RAM wholesale);
/// the string overload borrows views of its input. Views must stay
/// valid for the duration of the call only: the result copies every
/// token text it keeps.
PreprocessResult Preprocess(const std::vector<std::string_view>& raw_logs,
                            const VariableReplacer& replacer,
                            const PreprocessOptions& options);
PreprocessResult Preprocess(const std::vector<std::string>& raw_logs,
                            const VariableReplacer& replacer,
                            const PreprocessOptions& options);

}  // namespace bytebrain
