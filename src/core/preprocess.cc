#include "core/preprocess.h"

#include <algorithm>

#include "core/tokenizer.h"
#include "threading/thread_pool.h"
#include "util/flat_table.h"
#include "util/hashing.h"

namespace bytebrain {

namespace {

// Distinct logs found in one input shard. Shards dedup locally while
// tokenizing, so token texts are copied only once per distinct log; the
// shards are then merged sequentially.
struct ShardResult {
  PreprocessResult::Arena arena;
  // Distinct log d owns tokens [starts[d], starts[d + 1]) of the arena.
  std::vector<uint32_t> starts{0};
  std::vector<uint64_t> counts;
  std::vector<uint64_t> keys;  // dedup key per distinct log
};

void ProcessShard(const std::vector<std::string_view>& raw_logs, size_t begin,
                  size_t end, const VariableReplacer& replacer,
                  OrdinalEncoder* ordinal, bool deduplicate,
                  ShardResult* shard, uint32_t* distinct_of) {
  // Token views alias either the raw log or `scratch`: the fused scan
  // keeps only the variable-bearing token texts there, the two-pass path
  // (user rules or regex builtins) the whole replaced log.
  const bool fused = replacer.fused_fast_path();
  std::string scratch;
  std::vector<std::string_view> views;
  PreprocessResult::Arena& arena = shard->arena;
  arena.text_ends.push_back(0);
  // Keyed by the token-sequence hash and reused by every shard this
  // thread runs. It starts small and grows with the distinct logs:
  // sizing it for the shard would cost memory in proportion to the raw
  // logs, most of which are repeats on real streams.
  thread_local DedupIndex index;
  if (deduplicate) index.Reset(0);
  for (size_t i = begin; i < end; ++i) {
    views.clear();
    if (fused) {
      TokenizeReplacedInto(raw_logs[i], &scratch, &views);
    } else {
      replacer.ReplaceInto(raw_logs[i], &scratch);
      TokenizeDefaultInto(scratch, &views);
    }
    // The hashes go straight onto the arena and are dropped again if the
    // log turns out to be a repeat.
    const size_t first = arena.tokens.size();
    for (std::string_view tok : views) {
      arena.tokens.push_back(ordinal != nullptr ? ordinal->Encode(tok)
                                                : HashToken(tok));
    }
    const uint64_t* encoded = arena.tokens.data() + first;
    const uint64_t key =
        HashTokenSequence(encoded, encoded + views.size());

    if (deduplicate) {
      const auto [slot, added] = index.FindOrAdd(key, [&](uint32_t d) {
        return std::equal(encoded, encoded + views.size(),
                          arena.tokens.data() + shard->starts[d],
                          arena.tokens.data() + shard->starts[d + 1]);
      });
      if (!added) {
        arena.tokens.resize(first);
        shard->counts[slot]++;
        distinct_of[i] = slot;
        continue;
      }
    }
    distinct_of[i] = static_cast<uint32_t>(shard->counts.size());
    for (std::string_view tok : views) {
      arena.chars.insert(arena.chars.end(), tok.begin(), tok.end());
      arena.text_ends.push_back(static_cast<uint32_t>(arena.chars.size()));
    }
    shard->starts.push_back(static_cast<uint32_t>(arena.tokens.size()));
    shard->counts.push_back(1);
    shard->keys.push_back(key);
  }
}

// Views of a finished shard's distinct logs, in its first-seen order.
std::vector<EncodedLog> ShardViews(const ShardResult& shard) {
  const PreprocessResult::Arena& arena = shard.arena;
  std::vector<EncodedLog> logs(shard.counts.size());
  for (size_t d = 0; d < logs.size(); ++d) {
    const uint32_t first = shard.starts[d];
    logs[d].tokens = {arena.tokens.data() + first,
                      shard.starts[d + 1] - first};
    logs[d].text_chars = arena.chars.data();
    logs[d].text_ends = arena.text_ends.data() + first;
    logs[d].count = shard.counts[d];
  }
  return logs;
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
  result.distinct_of.resize(raw_logs.size());

  OrdinalEncoder ordinal;
  OrdinalEncoder* ordinal_ptr =
      options.encoder == EncoderKind::kOrdinal ? &ordinal : nullptr;

  // Phase 1: tokenize + encode + shard-local dedup, parallel across
  // shards. Each shard writes its local distinct index for every raw log
  // it covers. The ordinal encoder serializes internally (its documented
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
                 ordinal_ptr, options.deduplicate, &shards[t],
                 result.distinct_of.data());
  });

  // Phase 2: merge shards (cheap: only distinct logs cross this point).
  // The arenas move into the result whole, so the views stay valid;
  // each shard's bookkeeping is freed as soon as it is merged.
  result.arenas.reserve(threads);
  if (threads == 1) {
    result.logs = ShardViews(shards[0]);
    result.arenas.push_back(std::move(shards[0].arena));
  } else {
    size_t distinct_bound = 0;
    for (const ShardResult& shard : shards) {
      distinct_bound += shard.counts.size();
    }
    result.logs.reserve(distinct_bound);
    thread_local DedupIndex index;
    if (options.deduplicate) index.Reset(distinct_bound);
    std::vector<uint32_t> global;  // shard-local -> global distinct index
    for (size_t t = 0; t < threads; ++t) {
      ShardResult shard = std::move(shards[t]);
      const std::vector<EncodedLog> views = ShardViews(shard);
      result.arenas.push_back(std::move(shard.arena));
      global.resize(views.size());
      for (size_t s = 0; s < views.size(); ++s) {
        const EncodedLog& log = views[s];
        if (options.deduplicate) {
          const auto [slot, added] =
              index.FindOrAdd(shard.keys[s], [&](uint32_t d) {
                return std::equal(log.tokens.begin(), log.tokens.end(),
                                  result.logs[d].tokens.begin(),
                                  result.logs[d].tokens.end());
              });
          if (!added) {
            global[s] = slot;
            result.logs[slot].count += log.count;
            continue;
          }
        }
        global[s] = static_cast<uint32_t>(result.logs.size());
        result.logs.push_back(log);
      }
      for (size_t i = ranges[t].first; i < ranges[t].second; ++i) {
        result.distinct_of[i] = global[result.distinct_of[i]];
      }
    }
  }

  result.dictionary_bytes = ordinal.DictionaryBytes();
  return result;
}

}  // namespace bytebrain
