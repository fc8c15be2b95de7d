// Unit tests for topic storage — the in-memory backend and the checks
// ManagedTopic owns on top of any backend (NotFound text, inverted scan
// ranges, end clamping, concurrent appends).
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "logstore/storage_backend.h"
#include "service/log_service.h"

namespace bytebrain {
namespace {

// The default (kMemory) backend, built and opened the way ManagedTopic
// builds its store.
std::unique_ptr<StorageBackend> OpenMemoryBackend(size_t segment_capacity) {
  StorageConfig cfg;
  cfg.memory_segment_capacity = segment_capacity;
  auto backend = CreateStorageBackend(cfg);
  EXPECT_TRUE(backend->Open().ok());
  return backend;
}

// A memory topic that never trains: appends stay unassigned.
TopicConfig UntrainedConfig() {
  TopicConfig config;
  config.initial_train_records = 1000000;
  config.train_interval_records = 1000000;
  return config;
}

TEST(MemoryBackendTest, AppendAndRead) {
  auto store = OpenMemoryBackend(65536);
  ASSERT_TRUE(store->AppendBatch({{100, "hello", 0}}).ok());
  ASSERT_TRUE(store->AppendBatch({{200, "world", 0}}).ok());
  EXPECT_EQ(store->size(), 2u);
  LogRecord rec;
  ASSERT_TRUE(store->Read(1, &rec).ok());
  EXPECT_EQ(rec.text, "world");
  EXPECT_EQ(rec.timestamp_us, 200u);
}

TEST(MemoryBackendTest, CrossesSegmentBoundaries) {
  auto store = OpenMemoryBackend(/*segment_capacity=*/4);
  for (int i = 0; i < 19; ++i) {
    ASSERT_TRUE(store
                    ->AppendBatch({{static_cast<uint64_t>(i),
                                    "log " + std::to_string(i), 0}})
                    .ok());
  }
  EXPECT_EQ(store->size(), 19u);
  for (int i = 0; i < 19; ++i) {
    LogRecord rec;
    ASSERT_TRUE(store->Read(i, &rec).ok());
    EXPECT_EQ(rec.text, "log " + std::to_string(i));
  }
}

TEST(MemoryBackendTest, ScanRange) {
  auto store = OpenMemoryBackend(3);
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

TEST(MemoryBackendTest, AssignTemplateUpdatesRecord) {
  auto store = OpenMemoryBackend(65536);
  ASSERT_TRUE(store->AppendBatch({{0, "a", 0}}).ok());
  ASSERT_TRUE(store->AssignTemplates(0, {42}).ok());
  LogRecord rec;
  ASSERT_TRUE(store->Read(0, &rec).ok());
  EXPECT_EQ(rec.template_id, 42u);
  EXPECT_TRUE(store->AssignTemplates(5, {42}).IsNotFound());
}

TEST(MemoryBackendTest, TextBytesAccumulates) {
  auto store = OpenMemoryBackend(65536);
  ASSERT_TRUE(store->AppendBatch({{0, "abcd", 0}}).ok());
  ASSERT_TRUE(store->AppendBatch({{0, "ef", 0}}).ok());
  EXPECT_EQ(store->text_bytes(), 6u);
}

TEST(ManagedTopicStorageTest, ReadPastEndFails) {
  ManagedTopic topic("t", UntrainedConfig());
  ASSERT_TRUE(topic.Ingest("x", 1).ok());
  EXPECT_TRUE(topic.ReadRecord(1).status().IsNotFound());
  const Status past = topic.ReadRecord(999).status();
  EXPECT_TRUE(past.IsNotFound());
  EXPECT_NE(past.ToString().find("beyond end of topic t"), std::string::npos)
      << past.ToString();
}

TEST(ManagedTopicStorageTest, ScanClampsEnd) {
  ManagedTopic topic("t", UntrainedConfig());
  ASSERT_TRUE(topic.Ingest("a").ok());
  int n = 0;
  ASSERT_TRUE(
      topic.ScanRecords(0, 100, [&n](uint64_t, const LogRecord&) { ++n; })
          .ok());
  EXPECT_EQ(n, 1);
}

TEST(ManagedTopicStorageTest, ScanRejectsInvertedRange) {
  ManagedTopic topic("t", UntrainedConfig());
  ASSERT_TRUE(topic.Ingest("a").ok());
  EXPECT_TRUE(topic.ScanRecords(5, 2, [](uint64_t, const LogRecord&) {})
                  .IsInvalidArgument());
}

TEST(ManagedTopicStorageTest, ConcurrentIngestBatchesAllLand) {
  TopicConfig config = UntrainedConfig();
  config.storage.memory_segment_capacity = 128;
  ManagedTopic topic("t", config);
  constexpr int kThreads = 8;
  constexpr int kBatches = 50;
  constexpr int kPerBatch = 10;
  std::vector<std::vector<uint64_t>> seqs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&topic, &seqs, t] {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<std::string> texts(kPerBatch, "t" + std::to_string(t));
        auto got = topic.IngestBatch(std::move(texts));
        ASSERT_TRUE(got.ok());
        seqs[t].insert(seqs[t].end(), got->begin(), got->end());
      }
    });
  }
  for (auto& t : threads) t.join();
  constexpr uint64_t kTotal = kThreads * kBatches * kPerBatch;
  EXPECT_EQ(topic.size(), kTotal);
  // Every record landed exactly once, at the sequence number its batch
  // was handed.
  std::set<uint64_t> all;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t seq : seqs[t]) {
      EXPECT_TRUE(all.insert(seq).second) << seq;
      auto rec = topic.ReadRecord(seq);
      ASSERT_TRUE(rec.ok());
      EXPECT_EQ(rec->text, "t" + std::to_string(t));
    }
  }
  EXPECT_EQ(all.size(), kTotal);
}

}  // namespace
}  // namespace bytebrain
