// Preprocessing pipeline (paper §4.1): variable replacement ->
// tokenization -> hash encoding -> deduplication.
//
// The output is the deduplicated set of encoded logs; each distinct log
// keeps its occurrence count and the indices of the raw logs it covers,
// so later stages can map cluster assignments back to every input record.
//
// Shards dedup in parallel and are then merged serially, both through a
// flat DedupIndex (util/flat_table.h) keyed by the token-sequence hash;
// logs whose hashes collide are chained and compared token by token.
// Distinct logs keep first-seen order, so the output does not depend on
// the shard count.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/encoder.h"
#include "core/variable_replacer.h"
#include "util/status.h"

namespace bytebrain {

/// One distinct log after preprocessing.
struct EncodedLog {
  /// Hash- (or ordinal-) encoded tokens.
  std::vector<uint64_t> tokens;
  /// The token texts (post variable-replacement); "*" marks replaced
  /// variables. Needed to emit template texts after clustering.
  std::vector<std::string> token_texts;
  /// Number of raw logs that collapsed into this entry.
  uint64_t count = 0;
  /// Indices of those raw logs in the training input.
  std::vector<uint32_t> source_ids;
};

/// Result of preprocessing a training batch.
struct PreprocessResult {
  std::vector<EncodedLog> logs;  // distinct logs
  size_t total_logs = 0;         // raw input count
  uint64_t dictionary_bytes = 0; // ordinal-encoder dictionary size (0 = hash)
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
/// valid for the duration of the call only.
PreprocessResult Preprocess(const std::vector<std::string_view>& raw_logs,
                            const VariableReplacer& replacer,
                            const PreprocessOptions& options);
PreprocessResult Preprocess(const std::vector<std::string>& raw_logs,
                            const VariableReplacer& replacer,
                            const PreprocessOptions& options);

}  // namespace bytebrain
