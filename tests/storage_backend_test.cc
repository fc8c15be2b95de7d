// Storage-backend battery: backend equivalence (every storage behavior
// against both MemoryBackend and SegmentedDiskBackend, directly and
// through a ManagedTopic, with identical end states), disk persistence
// across reopen, crash recovery (torn
// tails truncated, corrupted manifests/segments surfaced as checksum
// Statuses, never crashes), and the service-level storage integration
// (model checkpoint + recovery, large-window training snapshots that
// read sealed segments via mmap instead of copying the window).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "logstore/disk_backend.h"
#include "service/log_service.h"
#include "util/rng.h"

#if defined(__SANITIZE_THREAD__)
#define BYTEBRAIN_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BYTEBRAIN_UNDER_TSAN 1
#endif
#endif
#ifndef BYTEBRAIN_UNDER_TSAN
#define BYTEBRAIN_UNDER_TSAN 0
#endif

namespace bytebrain {
namespace {

/// Fresh unique directory per call; removed by the TempDir destructor.
class TempDir {
 public:
  TempDir() {
    static std::atomic<uint64_t> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("bb_storage_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter.fetch_add(1))))
                .string();
    std::filesystem::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

StorageConfig DiskConfig(const std::string& dir,
                         uint64_t segment_bytes = 256) {
  StorageConfig cfg;
  cfg.kind = StorageConfig::Kind::kSegmentedDisk;
  cfg.directory = dir;
  // Tiny segments by default so every test crosses seal boundaries.
  cfg.segment_data_bytes = segment_bytes;
  return cfg;
}

/// Flips one byte of a file in place.
void FlipByte(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);
}

long FileSize(const std::string& path) {
  return static_cast<long>(std::filesystem::file_size(path));
}

/// The backend `cfg` selects, built and opened the way ManagedTopic
/// builds its store.
std::unique_ptr<StorageBackend> OpenBackend(const StorageConfig& cfg) {
  auto backend = CreateStorageBackend(cfg);
  const Status opened = backend->Open();
  EXPECT_TRUE(opened.ok()) << opened.ToString();
  return backend;
}

LogRecord ReadOrDie(const StorageBackend& store, uint64_t seq) {
  LogRecord rec;
  const Status read = store.Read(seq, &rec);
  EXPECT_TRUE(read.ok()) << seq << ": " << read.ToString();
  return rec;
}

// ---------------------------------------------------------------------
// Backend equivalence: the full storage behavior surface, one run per
// backend kind — on the backend itself, and through a ManagedTopic for
// the checks the topic owns (inverted ranges, concurrent appends). The
// disk runs use tiny segments so reads/scans/assigns cross sealed
// (mmap) and active (in-memory) records.
// ---------------------------------------------------------------------

class BackendEquivalenceTest
    : public ::testing::TestWithParam<StorageConfig::Kind> {
 protected:
  StorageConfig Config(const std::string& name) {
    StorageConfig cfg;
    if (GetParam() == StorageConfig::Kind::kSegmentedDisk) {
      cfg = DiskConfig(dir_.path() + "/" + name);
    } else {
      cfg.memory_segment_capacity = 4;  // mirror tiny disk segments
    }
    return cfg;
  }

  std::unique_ptr<StorageBackend> MakeStore(const std::string& name) {
    return OpenBackend(Config(name));
  }

  /// A never-training topic over the same storage.
  std::unique_ptr<ManagedTopic> MakeTopic(const std::string& name) {
    TopicConfig config;
    config.storage = Config(name);
    config.initial_train_records = 1000000;
    config.train_interval_records = 1000000;
    auto topic = std::make_unique<ManagedTopic>(name, config);
    EXPECT_TRUE(topic->StorageStatus().ok())
        << topic->StorageStatus().ToString();
    return topic;
  }

  TempDir dir_;
};

TEST_P(BackendEquivalenceTest, AppendAndRead) {
  auto store = MakeStore("t");
  ASSERT_TRUE(store->AppendBatch({{100, "hello", 0}}).ok());
  ASSERT_TRUE(store->AppendBatch({{200, "world", 0}}).ok());
  EXPECT_EQ(store->size(), 2u);
  const LogRecord rec = ReadOrDie(*store, 1);
  EXPECT_EQ(rec.text, "world");
  EXPECT_EQ(rec.timestamp_us, 200u);
}

TEST_P(BackendEquivalenceTest, ReadPastEndFails) {
  auto store = MakeStore("t");
  ASSERT_TRUE(store->AppendBatch({{1, "x", 0}}).ok());
  LogRecord rec;
  EXPECT_TRUE(store->Read(1, &rec).IsNotFound());
  EXPECT_TRUE(store->Read(999, &rec).IsNotFound());
}

TEST_P(BackendEquivalenceTest, CrossesSegmentBoundaries) {
  auto store = MakeStore("t");
  for (int i = 0; i < 19; ++i) {
    ASSERT_TRUE(store
                    ->AppendBatch({{static_cast<uint64_t>(i),
                                    "log " + std::to_string(i), 0}})
                    .ok());
  }
  EXPECT_EQ(store->size(), 19u);
  for (int i = 0; i < 19; ++i) {
    const LogRecord rec = ReadOrDie(*store, i);
    EXPECT_EQ(rec.text, "log " + std::to_string(i));
    EXPECT_EQ(rec.timestamp_us, static_cast<uint64_t>(i));
  }
}

TEST_P(BackendEquivalenceTest, ScanRange) {
  auto store = MakeStore("t");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        store->AppendBatch({{static_cast<uint64_t>(i), std::to_string(i), 0}})
            .ok());
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(store
                  ->Scan(2, 7,
                         [&seen](uint64_t seq, const LogRecord& rec) {
                           EXPECT_EQ(rec.text, std::to_string(seq));
                           seen.push_back(seq);
                         })
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{2, 3, 4, 5, 6}));
}

TEST_P(BackendEquivalenceTest, ScanClampsEndAndRejectsInvertedRange) {
  auto store = MakeStore("s");
  ASSERT_TRUE(store->AppendBatch({{0, "a", 0}}).ok());
  int n = 0;
  ASSERT_TRUE(
      store->Scan(0, 100, [&n](uint64_t, const LogRecord&) { ++n; }).ok());
  EXPECT_EQ(n, 1);

  // The inverted-range check is the topic's.
  auto topic = MakeTopic("t");
  ASSERT_TRUE(topic->Ingest("a").ok());
  n = 0;
  ASSERT_TRUE(
      topic->ScanRecords(0, 100, [&n](uint64_t, const LogRecord&) { ++n; })
          .ok());
  EXPECT_EQ(n, 1);
  EXPECT_TRUE(topic->ScanRecords(5, 2, [](uint64_t, const LogRecord&) {})
                  .IsInvalidArgument());
}

TEST_P(BackendEquivalenceTest, AssignTemplatesUpdatesSealedAndActive) {
  auto store = MakeStore("t");
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        store->AppendBatch({{0, "record number " + std::to_string(i), 0}})
            .ok());
  }
  // Record 0 is long past the first seal on the disk run; the last
  // record is in the active segment on both. One range spans both.
  std::vector<TemplateId> ids(20, 0);
  ids[0] = 42;
  ids[19] = 43;
  ASSERT_TRUE(store->AssignTemplates(0, ids).ok());
  EXPECT_EQ(ReadOrDie(*store, 0).template_id, 42u);
  EXPECT_EQ(ReadOrDie(*store, 1).template_id, 0u);
  EXPECT_EQ(ReadOrDie(*store, 19).template_id, 43u);
  EXPECT_TRUE(store->AssignTemplates(20, {42}).IsNotFound());
  EXPECT_TRUE(store->AssignTemplates(1, ids).IsNotFound());
  EXPECT_EQ(ReadOrDie(*store, 1).template_id, 0u);
}

// Both query primitives against a brute-force filter over Scan, across
// sequence x time windows: the whole topic, windows matching nothing,
// a window inside one segment, windows spanning segments (and the disk
// run's active tail), and random ones. Timestamps are noisy, so
// segment time ranges overlap and a window can miss, partly cover or
// fully cover a segment; reassigned ids check that postings follow.
TEST_P(BackendEquivalenceTest, TimeWindowedQueriesMatchBruteForce) {
  auto store = MakeStore("t");
  Rng rng(7);
  constexpr uint64_t kRecords = 90;
  for (uint64_t seq = 0; seq < kRecords;) {
    std::vector<LogRecord> batch;
    for (uint64_t n = 1 + rng.NextBelow(5); n > 0 && seq < kRecords; --n) {
      LogRecord rec;
      rec.timestamp_us = seq * 10 + rng.NextBelow(25);
      rec.text = "event " + std::to_string(seq++);
      rec.template_id = 1 + rng.NextBelow(5);
      batch.push_back(std::move(rec));
    }
    ASSERT_TRUE(store->AppendBatch(std::move(batch)).ok());
  }
  std::vector<TemplateId> reassigned;
  for (uint64_t seq = 20; seq < 70; ++seq) {
    reassigned.push_back(1 + rng.NextBelow(7));
  }
  ASSERT_TRUE(store->AssignTemplates(20, reassigned).ok());

  std::vector<LogRecord> all;
  ASSERT_TRUE(store
                  ->Scan(0, kRecords,
                         [&all](uint64_t, const LogRecord& rec) {
                           all.push_back(rec);
                         })
                  .ok());
  ASSERT_EQ(all.size(), kRecords);
  uint64_t max_ts = 0;
  for (const LogRecord& rec : all) max_ts = std::max(max_ts, rec.timestamp_us);

  struct Window {
    uint64_t begin, end, min_ts, max_ts;
  };
  // The whole topic; no timestamp matches; no sequence matches; inside
  // one segment; two windows spanning segments; then random ones.
  std::vector<Window> windows = {
      {0, UINT64_MAX, 0, UINT64_MAX},
      {0, UINT64_MAX, max_ts + 1, UINT64_MAX},
      {30, 30, 0, UINT64_MAX},
      {1, 3, all[1].timestamp_us, all[2].timestamp_us},
      {2, kRecords - 3, all[5].timestamp_us, all[80].timestamp_us},
      {0, kRecords, 200, 650},
  };
  for (int i = 0; i < 40; ++i) {
    const uint64_t begin = rng.NextBelow(kRecords);
    const uint64_t end = begin + rng.NextBelow(kRecords + 10 - begin);
    const uint64_t lo = rng.NextBelow(max_ts + 20);
    windows.push_back({begin, end, lo, lo + rng.NextBelow(400)});
  }

  for (const Window& w : windows) {
    SCOPED_TRACE(std::to_string(w.begin) + ".." + std::to_string(w.end) +
                 " ts " + std::to_string(w.min_ts) + ".." +
                 std::to_string(w.max_ts));
    std::unordered_set<TemplateId> wanted;
    wanted.insert(1 + rng.NextBelow(7));
    wanted.insert(1 + rng.NextBelow(7));
    std::unordered_map<TemplateId, uint64_t> expect_counts;
    std::vector<uint64_t> expect_seqs;
    for (uint64_t seq = w.begin; seq < std::min(w.end, kRecords); ++seq) {
      const LogRecord& rec = all[seq];
      if (rec.timestamp_us < w.min_ts || rec.timestamp_us > w.max_ts) {
        continue;
      }
      ++expect_counts[rec.template_id];
      if (wanted.count(rec.template_id) != 0) expect_seqs.push_back(seq);
    }

    std::unordered_map<TemplateId, uint64_t> counts;
    ASSERT_TRUE(
        store->TemplateCounts(w.begin, w.end, w.min_ts, w.max_ts, &counts)
            .ok());
    EXPECT_EQ(counts, expect_counts);
    std::vector<uint64_t> seqs;
    ASSERT_TRUE(store
                    ->ScanTemplates(w.begin, w.end, w.min_ts, w.max_ts,
                                    wanted,
                                    [&](uint64_t seq, TemplateId tid) {
                                      EXPECT_EQ(tid, all[seq].template_id);
                                      seqs.push_back(seq);
                                    })
                    .ok());
    EXPECT_EQ(seqs, expect_seqs);
  }
}

TEST_P(BackendEquivalenceTest, TextBytesAccumulates) {
  auto store = MakeStore("t");
  ASSERT_TRUE(store->AppendBatch({{0, "abcd", 0}}).ok());
  ASSERT_TRUE(store->AppendBatch({{0, "ef", 0}}).ok());
  EXPECT_EQ(store->text_bytes(), 6u);
}

TEST_P(BackendEquivalenceTest, ConcurrentIngestBatchesAllLand) {
  auto topic = MakeTopic("t");
  constexpr int kThreads = 4;
  constexpr int kBatches = 50;
  constexpr int kPerBatch = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&topic, t] {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<std::string> texts(kPerBatch, "t" + std::to_string(t));
        ASSERT_TRUE(topic->IngestBatch(std::move(texts)).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(topic->size(),
            static_cast<uint64_t>(kThreads * kBatches * kPerBatch));
  EXPECT_TRUE(topic->StorageStatus().ok());
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendEquivalenceTest,
                         ::testing::Values(StorageConfig::Kind::kMemory,
                                           StorageConfig::Kind::kSegmentedDisk),
                         [](const auto& info) {
                           return info.param == StorageConfig::Kind::kMemory
                                      ? "Memory"
                                      : "SegmentedDisk";
                         });

// End-state equivalence across backends: the same record stream plus
// template reassignments must leave byte-identical records either way.
TEST(StorageBackendTest, BackendsReachIdenticalEndState) {
  TempDir dir;
  auto memory = OpenBackend(StorageConfig{});
  auto disk = OpenBackend(DiskConfig(dir.path()));

  for (int i = 0; i < 200; ++i) {
    LogRecord rec{static_cast<uint64_t>(i * 3),
                  "event " + std::to_string(i % 17) + " detail " +
                      std::to_string(i),
                  static_cast<TemplateId>(i % 5)};
    ASSERT_TRUE(memory->AppendBatch({rec}).ok());
    ASSERT_TRUE(disk->AppendBatch({std::move(rec)}).ok());
  }
  for (int i = 0; i < 200; i += 7) {
    const TemplateId id = 1000 + i;
    ASSERT_TRUE(memory->AssignTemplates(i, {id}).ok());
    ASSERT_TRUE(disk->AssignTemplates(i, {id}).ok());
  }

  ASSERT_EQ(memory->size(), disk->size());
  ASSERT_EQ(memory->text_bytes(), disk->text_bytes());
  for (uint64_t seq = 0; seq < memory->size(); ++seq) {
    const LogRecord a = ReadOrDie(*memory, seq);
    const LogRecord b = ReadOrDie(*disk, seq);
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.timestamp_us, b.timestamp_us);
    EXPECT_EQ(a.template_id, b.template_id);
  }
  EXPECT_GT(disk->sealed_segment_count(), 0u);
  EXPECT_GT(disk->mapped_bytes(), 0u);
}

// ---------------------------------------------------------------------
// Disk persistence across reopen.
// ---------------------------------------------------------------------

TEST(StorageBackendTest, ReopenRecoversRecordsSealsAndMetadata) {
  TempDir dir;
  uint64_t sealed = 0;
  {
    auto store = OpenBackend(DiskConfig(dir.path()));
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(store
                      ->AppendBatch({{static_cast<uint64_t>(i),
                                      "persisted " + std::to_string(i),
                                      static_cast<TemplateId>(i)}})
                      .ok());
    }
    ASSERT_TRUE(store->Checkpoint("model-snapshot-bytes").ok());
    sealed = store->sealed_segment_count();
    ASSERT_GT(sealed, 0u);
  }
  auto store = OpenBackend(DiskConfig(dir.path()));
  ASSERT_EQ(store->size(), 50u);
  EXPECT_EQ(store->sealed_segment_count(), sealed);
  EXPECT_EQ(store->metadata(), "model-snapshot-bytes");
  for (int i = 0; i < 50; ++i) {
    const LogRecord rec = ReadOrDie(*store, i);
    EXPECT_EQ(rec.text, "persisted " + std::to_string(i));
    EXPECT_EQ(rec.template_id, static_cast<TemplateId>(i));
  }
}

TEST(StorageBackendTest, SealedAssignTemplateSurvivesReopen) {
  TempDir dir;
  {
    auto store = OpenBackend(DiskConfig(dir.path()));
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(
          store->AppendBatch({{0, "rewrite target " + std::to_string(i), 1}})
              .ok());
    }
    ASSERT_GT(store->sealed_segment_count(), 0u);
    // Record 0 is sealed by now: the rewrite pwrites into the sealed
    // file (checksums exclude the template id by design).
    ASSERT_TRUE(store->AssignTemplates(0, {777}).ok());
    ASSERT_TRUE(store->AssignTemplates(29, {888}).ok());  // active
    ASSERT_TRUE(store->Checkpoint("").ok());
  }
  auto store = OpenBackend(DiskConfig(dir.path()));
  EXPECT_EQ(ReadOrDie(*store, 0).template_id, 777u);
  EXPECT_EQ(ReadOrDie(*store, 29).template_id, 888u);
}

// ---------------------------------------------------------------------
// Crash recovery: torn tails truncate, corruption surfaces a checksum
// Status — and never crashes.
// ---------------------------------------------------------------------

/// Appends `n` records and flushes WITHOUT sealing the tail, leaving a
/// realistic mid-stream crash image on disk. Returns the active
/// segment's path (the one after the last sealed index).
std::string WriteCrashImage(const std::string& dir, int n,
                            uint64_t* sealed_count) {
  SegmentedDiskBackend backend(DiskConfig(dir));
  EXPECT_TRUE(backend.Open().ok());
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(backend
                    .AppendBatch({{static_cast<uint64_t>(i),
                                   "crash stream record " + std::to_string(i),
                                   0}})
                    .ok());
  }
  EXPECT_TRUE(backend.Flush().ok());
  *sealed_count = backend.sealed_segment_count();
  EXPECT_GT(*sealed_count, 0u);
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06llu.log",
                static_cast<unsigned long long>(*sealed_count));
  return dir + "/" + name;
  // backend destructor = clean close; the tail stays unsealed.
}

TEST(StorageBackendTest, TruncatedTailDropsOnlyTornRecords) {
  TempDir dir;
  uint64_t sealed_count = 0;
  const std::string tail = WriteCrashImage(dir.path(), 40, &sealed_count);

  // Tear the tail mid-frame: chop the last 5 bytes.
  const long tail_size = FileSize(tail);
  ASSERT_GT(tail_size, 5);
  ASSERT_EQ(::truncate(tail.c_str(), tail_size - 5), 0);

  SegmentedDiskBackend backend(DiskConfig(dir.path()));
  ASSERT_TRUE(backend.Open().ok());
  // All sealed data kept; the active tail lost exactly its torn last
  // record, and what remains reads back intact and in order.
  EXPECT_EQ(backend.sealed_segment_count(), sealed_count);
  ASSERT_LT(backend.size(), 40u);
  ASSERT_GT(backend.size(), 0u);
  for (uint64_t seq = 0; seq < backend.size(); ++seq) {
    LogRecord rec;
    ASSERT_TRUE(backend.Read(seq, &rec).ok());
    EXPECT_EQ(rec.text, "crash stream record " + std::to_string(seq));
  }
  // The torn bytes were truncated away; appends continue cleanly.
  const uint64_t before = backend.size();
  ASSERT_TRUE(backend.AppendBatch({{0, "post-recovery append", 0}}).ok());
  LogRecord rec;
  ASSERT_TRUE(backend.Read(before, &rec).ok());
  EXPECT_EQ(rec.text, "post-recovery append");
}

TEST(StorageBackendTest, FlippedTailByteDropsSuffixKeepsSealed) {
  TempDir dir;
  uint64_t sealed_count = 0;
  const std::string tail = WriteCrashImage(dir.path(), 40, &sealed_count);

  // Corrupt a byte in the MIDDLE of the tail: everything from the
  // corrupted frame on is untrusted and dropped; sealed data survives.
  FlipByte(tail, FileSize(tail) / 2);

  SegmentedDiskBackend backend(DiskConfig(dir.path()));
  ASSERT_TRUE(backend.Open().ok());
  EXPECT_EQ(backend.sealed_segment_count(), sealed_count);
  ASSERT_GT(backend.size(), 0u);
  ASSERT_LT(backend.size(), 40u);
  for (uint64_t seq = 0; seq < backend.size(); ++seq) {
    LogRecord rec;
    ASSERT_TRUE(backend.Read(seq, &rec).ok());
    EXPECT_EQ(rec.text, "crash stream record " + std::to_string(seq));
  }
}

TEST(StorageBackendTest, FlippedManifestByteSurfacesCorruption) {
  TempDir dir;
  uint64_t sealed_count = 0;
  (void)WriteCrashImage(dir.path(), 40, &sealed_count);

  const std::string manifest = dir.path() + "/MANIFEST";
  FlipByte(manifest, FileSize(manifest) / 2);

  SegmentedDiskBackend backend(DiskConfig(dir.path()));
  const Status opened = backend.Open();
  EXPECT_TRUE(opened.IsCorruption()) << opened.ToString();

  // A ManagedTopic fail-softs onto an empty in-memory store and
  // preserves the Status for the caller; LogService turns it into a
  // failed creation.
  TopicConfig config;
  config.storage = DiskConfig(dir.path());
  {
    ManagedTopic topic("t", config);
    EXPECT_TRUE(topic.StorageStatus().IsCorruption());
    EXPECT_FALSE(topic.stats().storage_ok);
    EXPECT_FALSE(topic.stats().storage_persistent);
    EXPECT_EQ(topic.size(), 0u);
    // The fallback store takes appends; the Corruption stays.
    ASSERT_TRUE(topic.Ingest("fallback record").ok());
    EXPECT_EQ(topic.size(), 1u);
    EXPECT_TRUE(topic.StorageStatus().IsCorruption());
  }
  LogService service;
  auto created = service.CreateTopic("t", config);
  ASSERT_FALSE(created.ok());
  EXPECT_TRUE(created.status().IsCorruption());
}

TEST(StorageBackendTest, FlippedSealedSegmentByteSurfacesCorruption) {
  TempDir dir;
  uint64_t sealed_count = 0;
  (void)WriteCrashImage(dir.path(), 40, &sealed_count);

  const std::string sealed0 = dir.path() + "/seg-000000.log";
  FlipByte(sealed0, FileSize(sealed0) / 2);

  SegmentedDiskBackend backend(DiskConfig(dir.path()));
  const Status opened = backend.Open();
  EXPECT_TRUE(opened.IsCorruption()) << opened.ToString();
}

TEST(StorageBackendTest, MissingDirectoryIsCreatedNestedPathWorks) {
  TempDir dir;
  auto store = OpenBackend(DiskConfig(dir.path() + "/a/b/c"));
  EXPECT_TRUE(std::filesystem::is_directory(dir.path() + "/a/b/c"));
  ASSERT_TRUE(store->AppendBatch({{1, "nested", 0}}).ok());
  EXPECT_EQ(store->size(), 1u);
}

// ---------------------------------------------------------------------
// Service-level storage integration.
// ---------------------------------------------------------------------

std::string ServiceLog(int i) {
  return "Accepted password for user" + std::to_string(i % 5) +
         " from 10.0.0." + std::to_string(i % 9 + 1) + " port " +
         std::to_string(40000 + i) + " ssh2";
}

TopicConfig DiskTopicConfig(const std::string& dir) {
  TopicConfig config;
  config.storage = DiskConfig(dir, /*segment_bytes=*/4096);
  config.initial_train_records = 200;
  config.train_interval_records = 1u << 30;
  config.train_volume_bytes = 1ull << 40;
  config.async_training = false;
  config.num_threads = 2;
  return config;
}

TEST(ServiceStorageTest, DiskTopicRecoversRecordsModelAndQueries) {
  TempDir dir;
  std::vector<std::string> pre_restart_groups;
  uint64_t pre_size = 0;
  {
    ManagedTopic topic("t", DiskTopicConfig(dir.path()));
    ASSERT_TRUE(topic.StorageStatus().ok());
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(topic.Ingest(ServiceLog(i)).ok());
    }
    ASSERT_TRUE(topic.trained());
    // TrainNow checkpoints the model into the manifest at commit.
    ASSERT_TRUE(topic.TrainNow().ok());
    pre_size = topic.size();
    auto q = topic.Query(1.0);
    ASSERT_TRUE(q.ok());
    for (const TemplateGroup& g : q.value()) {
      pre_restart_groups.push_back(g.template_text + "/" +
                                   std::to_string(g.count));
    }
  }

  ManagedTopic topic("t", DiskTopicConfig(dir.path()));
  ASSERT_TRUE(topic.StorageStatus().ok());
  EXPECT_TRUE(topic.trained());
  const TopicStats stats = topic.stats();
  EXPECT_EQ(stats.recovered_records, pre_size);
  EXPECT_EQ(stats.ingested_records, pre_size);
  EXPECT_TRUE(stats.storage_persistent);
  EXPECT_GT(stats.num_templates, 0u);

  // Every recovered record carries a template id the restored model
  // resolves.
  uint64_t scanned = 0;
  std::set<TemplateId> ids;
  ASSERT_TRUE(topic
                  .ScanRecords(0, topic.size(),
                               [&](uint64_t, const LogRecord& rec) {
                                 ++scanned;
                                 ids.insert(rec.template_id);
                               })
                  .ok());
  EXPECT_EQ(scanned, pre_size);
  for (TemplateId id : ids) {
    ASSERT_NE(id, kInvalidTemplateId);
    EXPECT_TRUE(topic.HasTemplate(id)) << id;
  }

  // Queries group exactly as before the restart: records, assignments
  // and the model all survived.
  auto q = topic.Query(1.0);
  ASSERT_TRUE(q.ok());
  std::vector<std::string> post;
  for (const TemplateGroup& g : q.value()) {
    post.push_back(g.template_text + "/" + std::to_string(g.count));
  }
  EXPECT_EQ(post, pre_restart_groups);

  // And the topic keeps working: new ingest matches the restored model.
  const uint64_t matched_before = topic.stats().matched_online;
  ASSERT_TRUE(topic.Ingest(ServiceLog(1)).ok());
  EXPECT_EQ(topic.stats().matched_online, matched_before + 1);
}

TEST(ServiceStorageTest, PostCheckpointAdoptionsRematchedOnRecovery) {
  TempDir dir;
  {
    ManagedTopic topic("t", DiskTopicConfig(dir.path()));
    for (int i = 0; i < 250; ++i) {
      ASSERT_TRUE(topic.Ingest(ServiceLog(i)).ok());
    }
    ASSERT_TRUE(topic.trained());
    // Novel shapes adopted AFTER the last training commit: their
    // temporaries are not in the checkpointed model, so the restart
    // must re-match (and re-adopt) them rather than serve dangling ids.
    for (int shape = 0; shape < 6; ++shape) {
      for (int dup = 0; dup < 3; ++dup) {
        ASSERT_TRUE(topic.Ingest("novel subsystem" + std::to_string(shape) +
                                 " fault " + std::to_string(dup))
                        .ok());
      }
    }
  }

  ManagedTopic topic("t", DiskTopicConfig(dir.path()));
  ASSERT_TRUE(topic.StorageStatus().ok());
  ASSERT_TRUE(topic.trained());
  // Every record resolves to a renderable template — no dangling ids.
  std::set<TemplateId> ids;
  ASSERT_TRUE(topic
                  .ScanRecords(0, topic.size(),
                               [&ids](uint64_t, const LogRecord& rec) {
                                 ids.insert(rec.template_id);
                               })
                  .ok());
  for (TemplateId id : ids) {
    ASSERT_NE(id, kInvalidTemplateId);
    EXPECT_TRUE(topic.HasTemplate(id)) << id;
  }
  auto q = topic.Query(1.0);
  ASSERT_TRUE(q.ok());
  for (const TemplateGroup& g : q.value()) {
    EXPECT_NE(g.template_text, "<unparsed>");
    EXPECT_FALSE(g.template_text.empty());
  }
}

// Memory-backed and disk-backed topics fed the identical stream end in
// the identical observable state (the service-level equivalence half of
// the backend-equivalence suite).
TEST(ServiceStorageTest, DiskTopicEndStateMatchesMemoryTopic) {
  TempDir dir;
  TopicConfig mem_config = DiskTopicConfig(dir.path());
  mem_config.storage = StorageConfig{};  // default: memory
  ManagedTopic memory("m", mem_config);
  ManagedTopic disk("d", DiskTopicConfig(dir.path()));
  ASSERT_TRUE(disk.StorageStatus().ok());

  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(memory.Ingest(ServiceLog(i)).ok());
    ASSERT_TRUE(disk.Ingest(ServiceLog(i)).ok());
  }
  ASSERT_TRUE(memory.TrainNow().ok());
  ASSERT_TRUE(disk.TrainNow().ok());

  auto qm = memory.Query(1.0);
  auto qd = disk.Query(1.0);
  ASSERT_TRUE(qm.ok());
  ASSERT_TRUE(qd.ok());
  ASSERT_EQ(qm.value().size(), qd.value().size());
  for (size_t i = 0; i < qm.value().size(); ++i) {
    EXPECT_EQ(qm.value()[i].template_text, qd.value()[i].template_text);
    EXPECT_EQ(qm.value()[i].count, qd.value()[i].count);
    EXPECT_EQ(qm.value()[i].sequence_numbers,
              qd.value()[i].sequence_numbers);
  }
  EXPECT_EQ(memory.stats().ingested_records, disk.stats().ingested_records);
  EXPECT_EQ(memory.stats().num_templates, disk.stats().num_templates);
}

// The acceptance scenario: a training snapshot over a large disk-backed
// window must NOT copy the window into RAM under the lock — the sealed
// part is read off-lock via mmap; only the unsealed tail (bounded by
// the active segment, not the window) is copied.
TEST(ServiceStorageTest, LargeWindowSnapshotReadsSealedViaMmap) {
#if BYTEBRAIN_UNDER_TSAN
  // TSAN multiplies both runtime and shadow memory; exercise the same
  // path at reduced scale.
  constexpr uint64_t kRecords = 120000;
#else
  constexpr uint64_t kRecords = 1050000;
#endif
  TempDir dir;
  TopicConfig config;
  config.storage = DiskConfig(dir.path(), /*segment_bytes=*/1u << 20);
  config.initial_train_records = 1000;
  config.train_interval_records = 1u << 30;
  config.train_volume_bytes = 1ull << 40;
  config.max_train_records = kRecords + 200000;  // window = whole topic
  config.async_training = false;
  config.num_threads = 2;
  ManagedTopic topic("big", config);
  ASSERT_TRUE(topic.StorageStatus().ok());

  std::vector<std::string> batch;
  batch.reserve(4096);
  for (uint64_t next = 0; next < kRecords;) {
    batch.clear();
    for (int i = 0; i < 4096 && next < kRecords; ++i, ++next) {
      batch.push_back(ServiceLog(static_cast<int>(next % 1000)));
    }
    auto seqs = topic.IngestBatch(batch);
    ASSERT_TRUE(seqs.ok()) << seqs.status().ToString();
  }
  ASSERT_EQ(topic.size(), kRecords);
  ASSERT_GT(topic.stats().storage_sealed_segments, 1u);

  ASSERT_TRUE(topic.TrainNow().ok());
  const TopicStats stats = topic.stats();
  // The window covered (almost) the whole topic...
  EXPECT_EQ(stats.last_snapshot_mapped_records +
                stats.last_snapshot_copied_records,
            kRecords);
  // ...but the snapshot copied only the unsealed tail: the mapped
  // (zero-copy) share dominates and the copied share is bounded by one
  // segment's worth of records, independent of the window size.
  EXPECT_GT(stats.last_snapshot_mapped_records, kRecords * 8 / 10);
  EXPECT_LT(stats.last_snapshot_copied_records, kRecords / 10);
  EXPECT_GT(stats.storage_mapped_bytes, 0u);
  // The training itself succeeded over the mapped window.
  EXPECT_GE(stats.trainings, 2u);
  EXPECT_GT(stats.num_templates, 0u);
}

// Disk-backed concurrency: batches, queries, and an async retrain all
// run against the disk store (TSAN coverage for the storage paths; the
// off-lock mmap scan runs concurrently with ingest into the active
// segment).
TEST(ServiceStorageTest, DiskTopicConcurrentIngestQueryRetrain) {
  TempDir dir;
  TopicConfig config = DiskTopicConfig(dir.path());
  config.async_training = true;
  config.train_interval_records = 400;
  ManagedTopic topic("t", config);
  ASSERT_TRUE(topic.StorageStatus().ok());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> query_errors{0};
  std::thread reader([&] {
    while (!done.load()) {
      auto q = topic.Query(0.5);
      if (!q.ok()) query_errors.fetch_add(1);
      (void)topic.stats();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&topic, w] {
      for (int round = 0; round < 20; ++round) {
        std::vector<std::string> batch;
        for (int i = 0; i < 64; ++i) {
          batch.push_back(ServiceLog(w * 10000 + round * 64 + i));
        }
        ASSERT_TRUE(topic.IngestBatch(std::move(batch)).ok());
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true);
  reader.join();
  topic.WaitForPendingTraining();

  EXPECT_EQ(query_errors.load(), 0u);
  EXPECT_EQ(topic.size(), 2u * 20u * 64u);
  EXPECT_EQ(topic.stats().failed_trainings, 0u);
  for (uint64_t seq = 0; seq < topic.size(); ++seq) {
    ASSERT_TRUE(topic.ReadRecord(seq).ok());
  }
}

}  // namespace
}  // namespace bytebrain
