// Durability-vs-throughput: batch ingest through SegmentedDiskBackend
// under the three DurabilityMode settings, the cost of one seal cycle,
// plus recovery (reopen + WAL replay) cost. The acceptance bar for the
// WAL: wal_group_commit within 2x of none at batch sizes >= 256 — group
// commit amortizes the fsync across the batch (and across concurrent
// batches; this single-threaded bench only sees the per-batch
// amortization, so it is the conservative bound).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "logstore/disk_backend.h"
#include "logstore/fault_injection.h"

namespace bytebrain {
namespace {

std::string FreshDir() {
  static std::atomic<uint64_t> counter{0};
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bb_bench_wal_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter.fetch_add(1))))
          .string();
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

StorageConfig BenchConfig(const std::string& dir, DurabilityMode mode,
                          uint64_t segment_bytes = 8ull * 1024 * 1024) {
  StorageConfig cfg;
  cfg.kind = StorageConfig::Kind::kSegmentedDisk;
  cfg.directory = dir;
  cfg.segment_data_bytes = segment_bytes;
  cfg.durability = mode;
  return cfg;
}

std::vector<LogRecord> MakeBatch(size_t batch_size) {
  std::vector<LogRecord> batch;
  batch.reserve(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    LogRecord record;
    record.timestamp_us = i;
    record.text = "instance-" + std::to_string(i % 97) +
                  " completed request in " + std::to_string(i % 351) +
                  "ms status=200 path=/api/v1/object/" + std::to_string(i);
    batch.push_back(std::move(record));
  }
  return batch;
}

void RunWalAppend(benchmark::State& state, DurabilityMode mode) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  const std::string dir = FreshDir();
  uint64_t records = 0;
  uint64_t bytes = 0;
  {
    SegmentedDiskBackend backend(BenchConfig(dir, mode));
    if (!backend.Open().ok()) state.SkipWithError("open failed");
    const std::vector<LogRecord> proto = MakeBatch(batch_size);
    uint64_t batch_bytes = 0;
    for (const LogRecord& r : proto) batch_bytes += r.text.size();
    for (auto _ : state) {
      std::vector<LogRecord> batch = proto;  // copy outside the append
      benchmark::DoNotOptimize(backend.AppendBatch(std::move(batch)));
      // The service acks here: durability modes pay their wait now.
      benchmark::DoNotOptimize(backend.WaitDurable());
      records += batch_size;
      bytes += batch_bytes;
    }
    state.SetItemsProcessed(static_cast<int64_t>(records));
    state.SetBytesProcessed(static_cast<int64_t>(bytes));
  }
  std::filesystem::remove_all(dir);
}

void BM_WalAppend_none(benchmark::State& state) {
  RunWalAppend(state, DurabilityMode::kNone);
}
void BM_WalAppend_async(benchmark::State& state) {
  RunWalAppend(state, DurabilityMode::kWalAsync);
}
void BM_WalAppend_group_commit(benchmark::State& state) {
  RunWalAppend(state, DurabilityMode::kWalGroupCommit);
}
BENCHMARK(BM_WalAppend_none)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_WalAppend_async)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_WalAppend_group_commit)->Arg(64)->Arg(256)->Arg(1024);

// One seal cycle under wal_group_commit at 64 KiB segments: each
// iteration appends 64-record batches (acked after their group commit)
// until the active segment seals, so the time per iteration is one
// segment's appends plus its seal (flush + fsync, in-memory index
// build, manifest write, WAL rotation). Wall time: the fsyncs are off-CPU. A
// fixed 200 cycles: every cycle leaves a segment behind, and removing
// thousands of them at the end would cost more than the timed loop.
void BM_SealCycle(benchmark::State& state) {
  const std::string dir = FreshDir();
  {
    SegmentedDiskBackend backend(
        BenchConfig(dir, DurabilityMode::kWalGroupCommit, 64 * 1024));
    if (!backend.Open().ok()) state.SkipWithError("open failed");
    const std::vector<LogRecord> proto = MakeBatch(64);
    uint64_t records = 0;
    for (auto _ : state) {
      const uint64_t sealed = backend.stats().storage_sealed_segments;
      while (backend.stats().storage_sealed_segments == sealed) {
        std::vector<LogRecord> batch = proto;
        if (!backend.AppendBatch(std::move(batch)).ok() ||
            !backend.WaitDurable().ok()) {
          state.SkipWithError("append failed");
          break;
        }
        records += proto.size();
      }
    }
    state.SetItemsProcessed(static_cast<int64_t>(records));
    state.counters["seals"] =
        static_cast<double>(backend.stats().storage_sealed_segments);
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_SealCycle)
    ->UseRealTime()
    ->Iterations(200)
    ->Unit(benchmark::kMillisecond);

// Reopen cost with a WAL tail to replay: `range(0)` records were
// appended durably (in the WAL) but never drained to the segment file —
// a fault-injected crash prevents the clean-shutdown flush, so every
// reopen below replays the full WAL.
void BM_Recovery(benchmark::State& state) {
  const size_t records = static_cast<size_t>(state.range(0));
  const std::string dir = FreshDir();
  {
    FaultInjectingFileOps ops;
    StorageConfig cfg = BenchConfig(dir, DurabilityMode::kWalGroupCommit);
    cfg.file_ops = &ops;
    SegmentedDiskBackend backend(cfg);
    if (!backend.Open().ok()) state.SkipWithError("setup open failed");
    backend.AppendBatch(MakeBatch(records));
    (void)backend.WaitDurable();
    ops.CrashNow();  // the destructor's flush fails: WAL keeps the tail
  }
  for (auto _ : state) {
    SegmentedDiskBackend backend(
        BenchConfig(dir, DurabilityMode::kWalGroupCommit));
    if (!backend.Open().ok()) state.SkipWithError("open failed");
    benchmark::DoNotOptimize(backend.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(records) *
                          static_cast<int64_t>(state.iterations()));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_Recovery)->Arg(1024)->Arg(8192);

}  // namespace
}  // namespace bytebrain

BENCHMARK_MAIN();
