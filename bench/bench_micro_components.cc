// Component microbenchmarks (google-benchmark): the building blocks the
// paper's efficiency techniques rest on — tokenization, hash encoding,
// variable replacement (fast vs regex path), deduplication, positional
// similarity, saturation, and online matching.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>

#include "api/frontend.h"
#include "api/messages.h"
#include "core/cluster.h"
#include "core/parser.h"
#include "core/preprocess.h"
#include "core/tokenizer.h"
#include "datagen/generator.h"
#include "regex/regex.h"
#include "service/log_service.h"

namespace bytebrain {
namespace {

const std::vector<std::string>& SampleLogs() {
  static const auto* logs = [] {
    DatasetGenerator gen(*FindDatasetSpec("OpenSSH"));
    GenOptions opts;
    opts.num_logs = 4096;
    opts.num_templates = 38;
    auto* v = new std::vector<std::string>();
    for (auto& l : gen.Generate(opts).logs) v->push_back(l.text);
    return v;
  }();
  return *logs;
}

void BM_TokenizeDefault(benchmark::State& state) {
  const auto& logs = SampleLogs();
  std::vector<std::string_view> tokens;
  size_t i = 0;
  for (auto _ : state) {
    tokens.clear();
    TokenizeDefaultInto(logs[i++ & 4095], &tokens);
    benchmark::DoNotOptimize(tokens);
  }
}
BENCHMARK(BM_TokenizeDefault);

void BM_HashToken(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashToken("PacketResponder"));
  }
}
BENCHMARK(BM_HashToken);

void BM_VariableReplaceFast(benchmark::State& state) {
  const auto& logs = SampleLogs();
  VariableReplacer replacer = VariableReplacer::Default();
  std::string out;
  size_t i = 0;
  for (auto _ : state) {
    replacer.ReplaceInto(logs[i++ & 4095], &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_VariableReplaceFast);

void BM_VariableReplaceRegex(benchmark::State& state) {
  const auto& logs = SampleLogs();
  VariableReplacer replacer = VariableReplacer::Default();
  replacer.set_use_fast_builtins(false);
  std::string out;
  size_t i = 0;
  for (auto _ : state) {
    replacer.ReplaceInto(logs[i++ & 4095], &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_VariableReplaceRegex);

void BM_PreprocessBatch(benchmark::State& state) {
  const auto& logs = SampleLogs();
  VariableReplacer replacer = VariableReplacer::Default();
  PreprocessOptions opts;
  opts.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = Preprocess(logs, replacer, opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(logs.size()));
}
BENCHMARK(BM_PreprocessBatch)->Arg(1)->Arg(2)->Arg(4);

void BM_SaturationScore(benchmark::State& state) {
  const auto& logs = SampleLogs();
  VariableReplacer replacer = VariableReplacer::Default();
  PreprocessOptions opts;
  auto pre = Preprocess(logs, replacer, opts);
  std::vector<uint32_t> members;
  for (uint32_t i = 0; i < pre.logs.size() && i < 256; ++i) {
    if (pre.logs[i].tokens.size() == pre.logs[0].tokens.size()) {
      members.push_back(i);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSaturation(pre.logs, members, {}));
  }
}
BENCHMARK(BM_SaturationScore);

void BM_TrainOpenSsh(benchmark::State& state) {
  const auto& logs = SampleLogs();
  for (auto _ : state) {
    ByteBrainOptions options;
    options.trainer.num_threads = 2;
    options.trainer.preprocess.num_threads = 2;
    ByteBrainParser parser(options);
    benchmark::DoNotOptimize(parser.Train(logs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(logs.size()));
}
BENCHMARK(BM_TrainOpenSsh);

void BM_OnlineMatch(benchmark::State& state) {
  const auto& logs = SampleLogs();
  ByteBrainOptions options;
  options.trainer.num_threads = 2;
  ByteBrainParser parser(options);
  if (!parser.Train(logs).ok()) {
    state.SkipWithError("training failed");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(parser.Match(logs[i++ & 4095]));
  }
}
BENCHMARK(BM_OnlineMatch);

void BM_OnlineMatchAll(benchmark::State& state) {
  const auto& logs = SampleLogs();
  ByteBrainOptions options;
  options.trainer.num_threads = 2;
  ByteBrainParser parser(options);
  if (!parser.Train(logs).ok()) {
    state.SkipWithError("training failed");
    return;
  }
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto ids = parser.MatchAll(logs, threads);
    benchmark::DoNotOptimize(ids);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(logs.size()));
}
BENCHMARK(BM_OnlineMatchAll)->Arg(1)->Arg(2)->Arg(4);

void BM_TopicIngest(benchmark::State& state) {
  const auto& logs = SampleLogs();
  for (auto _ : state) {
    state.PauseTiming();
    TopicConfig config;
    config.initial_train_records = 1024;
    config.train_interval_records = 1u << 30;
    config.train_volume_bytes = 1ull << 40;
    ManagedTopic topic("bench", config);
    // Pre-train on the first quarter so the timed region measures the
    // steady-state (matched) ingest path, not training.
    for (size_t i = 0; i < 1024; ++i) {
      if (!topic.Ingest(std::string(logs[i])).ok()) {
        state.SkipWithError("ingest failed");
        return;
      }
    }
    state.ResumeTiming();
    for (size_t i = 1024; i < logs.size(); ++i) {
      benchmark::DoNotOptimize(topic.Ingest(std::string(logs[i])));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(logs.size() - 1024));
}
BENCHMARK(BM_TopicIngest);

void BM_TopicIngestBatch(benchmark::State& state) {
  const auto& logs = SampleLogs();
  const size_t batch_size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    TopicConfig config;
    config.initial_train_records = 1024;
    config.train_interval_records = 1u << 30;
    config.train_volume_bytes = 1ull << 40;
    ManagedTopic topic("bench", config);
    for (size_t i = 0; i < 1024; ++i) {
      if (!topic.Ingest(std::string(logs[i])).ok()) {
        state.SkipWithError("ingest failed");
        return;
      }
    }
    state.ResumeTiming();
    for (size_t begin = 1024; begin < logs.size();) {
      const size_t len = std::min(batch_size, logs.size() - begin);
      std::vector<std::string> chunk(logs.begin() + begin,
                                     logs.begin() + begin + len);
      benchmark::DoNotOptimize(topic.IngestBatch(std::move(chunk)));
      begin += len;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(logs.size() - 1024));
}
BENCHMARK(BM_TopicIngestBatch)->Arg(256)->Arg(1024);

// The service-API boundary tax: the same batched ingest workload as
// BM_TopicIngestBatch/1024, but every batch crosses the v1 wire path —
// build an IngestBatchRequest, encode a request envelope, Dispatch
// (decode, tenant admission, topic call), encode the response, decode
// it back. Compare items_per_second against BM_TopicIngestBatch/1024:
// the acceptance bar for the API layer is <10% overhead on this path
// (serialization is byte-copies; matching dominates per record).
void BM_FrontendDispatch(benchmark::State& state) {
  const auto& logs = SampleLogs();
  const size_t batch_size = static_cast<size_t>(state.range(0));
  uint64_t wire_bytes = 0;
  uint64_t batches = 0;
  for (auto _ : state) {
    state.PauseTiming();
    api::ServiceFrontend frontend;
    api::CreateTopicRequest create;
    create.name = "bench";
    create.config.initial_train_records = 1024;
    create.config.train_interval_records = 1u << 30;
    create.config.train_volume_bytes = 1ull << 40;
    api::CreateTopicResponse created;
    if (!frontend.CreateTopic("bench-tenant", create, &created).ok()) {
      state.SkipWithError("create failed");
      return;
    }
    {
      api::IngestBatchRequest warmup;
      warmup.topic = "bench";
      warmup.texts.assign(logs.begin(), logs.begin() + 1024);
      api::IngestBatchResponse resp;
      if (!frontend.IngestBatch("bench-tenant", std::move(warmup), &resp)
               .ok()) {
        state.SkipWithError("warmup ingest failed");
        return;
      }
    }
    state.ResumeTiming();
    for (size_t begin = 1024; begin < logs.size();) {
      const size_t len = std::min(batch_size, logs.size() - begin);
      // Zero-copy client: encode straight out of the log buffer (the
      // view request), the way a transport client that owns its batch
      // would — the server materializes each record once, at append.
      api::IngestBatchRequestView req;
      req.topic = "bench";
      req.texts.assign(logs.begin() + begin, logs.begin() + begin + len);
      const std::string request_bytes = api::EncodeRequest(
          api::ApiMethod::kIngestBatch, "bench-tenant", req);
      const std::string response_bytes = frontend.Dispatch(request_bytes);
      api::IngestBatchResponse resp;
      if (!api::DecodeResponse(response_bytes, &resp).ok() ||
          resp.seqs.size() != len) {
        state.SkipWithError("dispatch failed");
        return;
      }
      wire_bytes += request_bytes.size() + response_bytes.size();
      ++batches;
      begin += len;
    }
  }
  state.counters["wire_bytes_per_batch"] = benchmark::Counter(
      batches > 0 ? static_cast<double>(wire_bytes) /
                        static_cast<double>(batches)
                  : 0.0);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(logs.size() - 1024));
}
BENCHMARK(BM_FrontendDispatch)->Arg(256)->Arg(1024);

// Ingest throughput while retrains land mid-stream. Both arms train on
// the topic's training thread; Arg(1) (async_training on) lets the
// tripping ingest return at once, Arg(0) makes it wait for the commit —
// the delta is the training time the async setting removes from the
// ingest path. Counters report completed trainings, how many no ingest
// waited for, and how many trigger firings were coalesced into
// follow-up runs.
void BM_TopicIngestAsyncRetrain(benchmark::State& state) {
  const auto& logs = SampleLogs();
  const bool async = state.range(0) != 0;
  uint64_t trainings = 0;
  uint64_t async_trainings = 0;
  uint64_t coalesced = 0;
  for (auto _ : state) {
    state.PauseTiming();
    TopicConfig config;
    config.initial_train_records = 512;
    config.train_interval_records = 512;  // retrain every 512 records
    config.train_volume_bytes = 1ull << 40;
    config.async_training = async;
    auto topic = std::make_unique<ManagedTopic>("bench", config);
    for (size_t i = 0; i < 512; ++i) {
      if (!topic->Ingest(std::string(logs[i])).ok()) {
        state.SkipWithError("ingest failed");
        return;
      }
    }
    state.ResumeTiming();
    for (size_t i = 512; i < logs.size(); ++i) {
      benchmark::DoNotOptimize(topic->Ingest(std::string(logs[i])));
    }
    // Draining inside the timed region keeps the async arm honest: it
    // cannot report throughput while hiding an unfinished training.
    topic->WaitForPendingTraining();
    state.PauseTiming();
    const TopicStats stats = topic->stats();
    trainings += stats.trainings;
    async_trainings += stats.async_trainings;
    coalesced += stats.coalesced_triggers;
    // Destruction (training-pool join) stays untimed so the delta
    // between the arms measures the ingest path, not thread teardown.
    topic.reset();
    state.ResumeTiming();
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["trainings"] =
      benchmark::Counter(static_cast<double>(trainings) / iters);
  state.counters["async_trainings"] =
      benchmark::Counter(static_cast<double>(async_trainings) / iters);
  state.counters["coalesced_triggers"] =
      benchmark::Counter(static_cast<double>(coalesced) / iters);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(logs.size() - 512));
}
BENCHMARK(BM_TopicIngestAsyncRetrain)->Arg(0)->Arg(1);

// Sharded batch ingest on an adopt-heavy workload: every 32nd record is
// a novel shape the trained model misses (the rest are duplicates of it
// with different variable values). Arg = num_ingest_shards: shapes are
// routed to shards by content hash — duplicates colocate and collapse
// into one match/adopt per shape — and the shard-local temporaries are
// folded once per batch.
void BM_TopicIngestSharded(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  constexpr size_t kBatch = 256;
  constexpr int kShapesPerBatch = 8;   // x32 duplicates = 256 records
  constexpr int kBatches = 12;
  // The workload's 16-token shapes have a token count the trained
  // OpenSSH model has never seen (its shapes span 6-13 tokens), so
  // every shape genuinely misses and must be adopted — the model's
  // roots are per-length wildcard templates, and a novel log with a
  // SEEN length would match a root at saturation 0 instead of adopting.
  // Duplicates of a shape differ only in a replaced variable (the IP),
  // so they collapse onto one content hash.
  const auto& logs = SampleLogs();
  auto novel = [](int shape, int dup) {
    return "subsystem" + std::to_string(shape) + " failure code " +
           std::to_string(shape * 7) + " attempt from 10.0.0." +
           std::to_string(dup % 9 + 1) +
           " limit exceeded after backoff window seconds on node host" +
           std::to_string(shape);
  };
  uint64_t adopted = 0;
  uint64_t merges = 0;
  for (auto _ : state) {
    state.PauseTiming();
    TopicConfig config;
    config.initial_train_records = 1024;
    config.train_interval_records = 1u << 30;
    config.train_volume_bytes = 1ull << 40;
    // One matching thread: on the 1-core reference container this
    // measures the algorithmic effect of sharding (dedup by content
    // hash, no prematch invalidation cascade) rather than pool handoff;
    // multi-core machines additionally get shard parallelism.
    config.num_threads = 1;
    config.num_ingest_shards = shards;
    ManagedTopic topic("bench", config);
    for (size_t i = 0; i < 1024; ++i) {
      if (!topic.Ingest(std::string(logs[i])).ok()) {
        state.SkipWithError("ingest failed");
        return;
      }
    }
    // Pre-build the batches so the timed region is ingest only.
    std::vector<std::vector<std::string>> batches;
    for (int b = 0; b < kBatches; ++b) {
      std::vector<std::string> batch;
      batch.reserve(kBatch);
      for (int dup = 0; dup < 32; ++dup) {
        for (int s = 0; s < kShapesPerBatch; ++s) {
          batch.push_back(novel(b * kShapesPerBatch + s, dup));
        }
      }
      batches.push_back(std::move(batch));
    }
    state.ResumeTiming();
    for (auto& batch : batches) {
      benchmark::DoNotOptimize(topic.IngestBatch(std::move(batch)));
    }
    state.PauseTiming();
    const TopicStats stats = topic.stats();
    for (const ShardStats& s : stats.shards) adopted += s.adopted;
    merges += stats.shard_merges;
    state.ResumeTiming();
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["shard_adopted"] =
      benchmark::Counter(static_cast<double>(adopted) / iters);
  state.counters["shard_merges"] =
      benchmark::Counter(static_cast<double>(merges) / iters);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBatch * kBatches));
}
BENCHMARK(BM_TopicIngestSharded)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

std::string BenchStorageDir() {
  static int counter = 0;
  return (std::filesystem::temp_directory_path() /
          ("bb_bench_storage_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++)))
      .string();
}

// Batched service-path ingest against the in-memory store (/0) vs the
// segmented on-disk store (/1) at the production-default 8 MiB segment
// size: the ~0.3 MiB stream never seals (sealed_segments reports 0 by
// design), so the delta is the steady-state streaming-append price —
// frame serialization, checksums, buffered write()s. Seal costs
// (fsync + mmap + manifest, one per 8 MiB) amortize below that and are
// exercised by BM_StorageScan's setup and the fig10 storage table. The
// acceptance bar is disk within 25% of memory on this path.
void BM_TopicIngestStorage(benchmark::State& state) {
  const auto& logs = SampleLogs();
  const bool disk = state.range(0) != 0;
  uint64_t sealed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    TopicConfig config;
    config.initial_train_records = 1024;
    config.train_interval_records = 1u << 30;
    config.train_volume_bytes = 1ull << 40;
    std::string dir;
    if (disk) {
      dir = BenchStorageDir();
      config.storage.kind = StorageConfig::Kind::kSegmentedDisk;
      config.storage.directory = dir;
      config.storage.segment_data_bytes = 8ull << 20;
    }
    auto topic = std::make_unique<ManagedTopic>("bench", config);
    for (size_t i = 0; i < 1024; ++i) {
      if (!topic->Ingest(std::string(logs[i])).ok()) {
        state.SkipWithError("ingest failed");
        return;
      }
    }
    state.ResumeTiming();
    for (size_t begin = 1024; begin < logs.size();) {
      const size_t len = std::min<size_t>(1024, logs.size() - begin);
      std::vector<std::string> chunk(logs.begin() + begin,
                                     logs.begin() + begin + len);
      benchmark::DoNotOptimize(topic->IngestBatch(std::move(chunk)));
      begin += len;
    }
    state.PauseTiming();
    sealed += topic->stats().storage_sealed_segments;
    topic.reset();
    if (disk) std::filesystem::remove_all(dir);
    state.ResumeTiming();
  }
  state.counters["sealed_segments"] = benchmark::Counter(
      static_cast<double>(sealed) / static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(logs.size() - 1024));
}
BENCHMARK(BM_TopicIngestStorage)->Arg(0)->Arg(1);

// The sealed-scan path: full-window Scan throughput over the in-memory
// store (/0) vs mmap'd sealed disk segments (/1). This is what training
// snapshots and range queries pay per record on each backend.
void BM_StorageScan(benchmark::State& state) {
  const auto& logs = SampleLogs();
  const bool disk = state.range(0) != 0;
  StorageConfig cfg;
  std::string dir;
  if (disk) {
    dir = BenchStorageDir();
    cfg.kind = StorageConfig::Kind::kSegmentedDisk;
    cfg.directory = dir;
    cfg.segment_data_bytes = 64 * 1024;  // everything sealed quickly
  }
  std::unique_ptr<StorageBackend> store = CreateStorageBackend(cfg);
  if (!store->Open().ok()) state.SkipWithError("open failed");
  constexpr size_t kRecords = 16384;
  std::vector<LogRecord> records;
  for (size_t i = 0; i < kRecords; ++i) {
    records.push_back({i, logs[i & 4095], 0});
  }
  (void)store->AppendBatch(std::move(records));
  for (auto _ : state) {
    uint64_t bytes = 0;
    (void)store->Scan(0, kRecords,
                      [&bytes](uint64_t, const LogRecord& rec) {
                        bytes += rec.text.size();
                      });
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kRecords));
  if (disk) std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StorageScan)->Arg(0)->Arg(1);

void BM_RegexSearchLinear(benchmark::State& state) {
  // Pathological pattern that kills backtracking engines; the NFA must
  // stay linear in the text length.
  auto re = Regex::Compile("(a+)+b");
  std::string text(static_cast<size_t>(state.range(0)), 'a');
  RegexMatch m;
  for (auto _ : state) {
    benchmark::DoNotOptimize(re->Search(text, &m));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RegexSearchLinear)->Range(64, 4096)->Complexity();

}  // namespace
}  // namespace bytebrain

BENCHMARK_MAIN();
