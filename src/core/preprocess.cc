#include "core/preprocess.h"

#include <unordered_map>

#include "core/tokenizer.h"
#include "threading/thread_pool.h"
#include "util/hashing.h"

namespace bytebrain {

namespace {

// Per-shard dedup state: distinct logs found in one input shard. Shards
// dedup locally while tokenizing (so token TEXTS are materialized only
// once per distinct log — the dominant allocation cost), then the shards
// are merged sequentially.
struct ShardResult {
  std::vector<EncodedLog> logs;
  std::unordered_map<uint64_t, std::vector<uint32_t>> index;  // key -> slots
  std::vector<uint64_t> keys;  // dedup key per distinct slot
};

void ProcessShard(const std::vector<std::string_view>& raw_logs, size_t begin,
                  size_t end, const VariableReplacer& replacer,
                  OrdinalEncoder* ordinal, bool deduplicate,
                  ShardResult* shard) {
  // Token views alias either the raw log or `scratch`: the fused scan
  // keeps only the variable-bearing token texts there, the two-pass path
  // (user rules or regex builtins) the whole replaced log.
  const bool fused = replacer.fused_fast_path();
  std::string scratch;
  std::vector<std::string_view> views;
  std::vector<uint64_t> encoded;
  for (size_t i = begin; i < end; ++i) {
    views.clear();
    if (fused) {
      TokenizeReplacedInto(raw_logs[i], &scratch, &views);
    } else {
      replacer.ReplaceInto(raw_logs[i], &scratch);
      TokenizeDefaultInto(scratch, &views);
    }
    encoded.clear();
    encoded.reserve(views.size());
    for (std::string_view tok : views) {
      encoded.push_back(ordinal != nullptr ? ordinal->Encode(tok)
                                           : HashToken(tok));
    }
    const uint64_t key = HashTokenSequence(encoded.begin(), encoded.end());

    if (deduplicate) {
      auto& bucket = shard->index[key];
      bool merged = false;
      for (uint32_t slot : bucket) {
        if (shard->logs[slot].tokens == encoded) {
          shard->logs[slot].count++;
          shard->logs[slot].source_ids.push_back(static_cast<uint32_t>(i));
          merged = true;
          break;
        }
      }
      if (merged) continue;
      bucket.push_back(static_cast<uint32_t>(shard->logs.size()));
    }
    EncodedLog log;
    log.tokens = encoded;
    log.token_texts.reserve(views.size());
    for (std::string_view tok : views) log.token_texts.emplace_back(tok);
    log.count = 1;
    log.source_ids.push_back(static_cast<uint32_t>(i));
    shard->keys.push_back(key);
    shard->logs.push_back(std::move(log));
  }
}

}  // namespace

PreprocessResult Preprocess(const std::vector<std::string>& raw_logs,
                            const VariableReplacer& replacer,
                            const PreprocessOptions& options) {
  return Preprocess(
      std::vector<std::string_view>(raw_logs.begin(), raw_logs.end()),
      replacer, options);
}

PreprocessResult Preprocess(const std::vector<std::string_view>& raw_logs,
                            const VariableReplacer& replacer,
                            const PreprocessOptions& options) {
  PreprocessResult result;
  result.total_logs = raw_logs.size();
  if (raw_logs.empty()) return result;

  OrdinalEncoder ordinal;
  OrdinalEncoder* ordinal_ptr =
      options.encoder == EncoderKind::kOrdinal ? &ordinal : nullptr;

  // Phase 1: tokenize + encode + shard-local dedup, parallel across
  // shards. The ordinal encoder serializes internally (its documented
  // cost); the hash encoder is embarrassingly parallel.
  const size_t threads = std::min<size_t>(
      std::max<size_t>(1, static_cast<size_t>(options.num_threads)),
      std::max<size_t>(1, raw_logs.size()));
  std::vector<ShardResult> shards(threads);
  std::vector<std::pair<size_t, size_t>> ranges;
  const size_t base = raw_logs.size() / threads;
  const size_t extra = raw_logs.size() % threads;
  for (size_t t = 0, begin = 0; t < threads; ++t) {
    const size_t len = base + (t < extra ? 1 : 0);
    ranges.push_back({begin, begin + len});
    begin += len;
  }
  ParallelFor(ranges.size(), threads, [&](size_t t) {
    ProcessShard(raw_logs, ranges[t].first, ranges[t].second, replacer,
                 ordinal_ptr, options.deduplicate, &shards[t]);
  });

  // Phase 2: merge shards (cheap: only distinct logs cross this point).
  if (threads == 1) {
    result.logs = std::move(shards[0].logs);
  } else if (options.deduplicate) {
    std::unordered_map<uint64_t, std::vector<uint32_t>> index;
    for (ShardResult& shard : shards) {
      for (size_t s = 0; s < shard.logs.size(); ++s) {
        EncodedLog& log = shard.logs[s];
        auto& bucket = index[shard.keys[s]];
        bool merged = false;
        for (uint32_t slot : bucket) {
          if (result.logs[slot].tokens == log.tokens) {
            result.logs[slot].count += log.count;
            auto& ids = result.logs[slot].source_ids;
            ids.insert(ids.end(), log.source_ids.begin(),
                       log.source_ids.end());
            merged = true;
            break;
          }
        }
        if (!merged) {
          bucket.push_back(static_cast<uint32_t>(result.logs.size()));
          result.logs.push_back(std::move(log));
        }
      }
    }
  } else {
    for (ShardResult& shard : shards) {
      for (EncodedLog& log : shard.logs) {
        result.logs.push_back(std::move(log));
      }
    }
  }

  result.dictionary_bytes = ordinal.DictionaryBytes();
  return result;
}

}  // namespace bytebrain
