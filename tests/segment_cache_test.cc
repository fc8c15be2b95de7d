// SegmentCache battery: LRU eviction keeps unpinned residency under the
// byte budget, pinned mappings survive eviction pressure (training
// snapshots and scans stay byte-correct while OTHER topics churn the
// cache), per-owner stats feed truthful TopicStats, and the whole
// pin/evict protocol is exercised under concurrent scans + eviction +
// a training snapshot (run under TSAN in CI).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/frontend.h"
#include "api/messages.h"
#include "logstore/disk_backend.h"
#include "logstore/segment_cache.h"
#include "service/log_service.h"

namespace bytebrain {
namespace {

class TempDir {
 public:
  TempDir() {
    static std::atomic<uint64_t> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("bb_segcache_" + std::to_string(::getpid()) + "_" +
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

StorageConfig DiskConfig(const std::string& dir, uint64_t segment_bytes,
                         SegmentCache* cache) {
  StorageConfig cfg;
  cfg.kind = StorageConfig::Kind::kSegmentedDisk;
  cfg.directory = dir;
  cfg.segment_data_bytes = segment_bytes;
  cfg.segment_cache = cache;
  return cfg;
}

std::string TextFor(uint64_t seq) {
  return "record-" + std::to_string(seq) + std::string(seq % 13, 'y');
}

// Appends kRecords records; with the segment size below each backend
// ends up with several sealed segments (and registers them with the
// shared cache without mapping them).
constexpr uint64_t kRecords = 400;

std::unique_ptr<SegmentedDiskBackend> MakeBackend(const std::string& dir,
                                                  SegmentCache* cache) {
  auto backend =
      std::make_unique<SegmentedDiskBackend>(DiskConfig(dir, 2048, cache));
  EXPECT_TRUE(backend->Open().ok());
  for (uint64_t seq = 0; seq < kRecords; ++seq) {
    EXPECT_TRUE(backend->AppendBatch({{seq, TextFor(seq), seq % 3}}).ok());
  }
  EXPECT_GE(backend->stats().storage_sealed_segments, 4u);
  return backend;
}

TEST(SegmentCacheTest, EvictsDownToBudgetAndCounts) {
  TempDir dir;
  SegmentCache cache(/*budget_bytes=*/4096);  // ~2 segments resident
  auto backend = MakeBackend(dir.path(), &cache);

  // Seals register without mapping: nothing resident yet.
  EXPECT_EQ(cache.totals().resident_bytes, 0u);
  EXPECT_EQ(backend->stats().storage_mapped_bytes, 0u);

  // A full scan walks every segment; with only ~2 segments' budget the
  // LRU must evict along the way, and once the scan's transient pins
  // are gone residency settles at/below the budget.
  uint64_t seen = 0;
  ASSERT_TRUE(backend
                  ->Scan(0, kRecords,
                         [&](uint64_t seq, const LogRecord& rec) {
                           EXPECT_EQ(rec.text, TextFor(seq));
                           ++seen;
                         })
                  .ok());
  EXPECT_EQ(seen, kRecords);
  const SegmentCache::Counters totals = cache.totals();
  EXPECT_GT(totals.misses, 0u);
  EXPECT_GT(totals.evictions, 0u);
  EXPECT_LE(totals.resident_bytes, 4096u);
  EXPECT_EQ(backend->stats().storage_mapped_bytes, totals.resident_bytes);

  // The first segment was evicted long ago (LRU): reading it again is
  // a miss that transparently re-maps.
  const uint64_t misses_before = cache.totals().misses;
  LogRecord rec;
  ASSERT_TRUE(backend->Read(0, &rec).ok());
  EXPECT_EQ(rec.text, TextFor(0));
  EXPECT_GT(cache.totals().misses, misses_before);
}

TEST(SegmentCacheTest, PinnedViewSurvivesEvictionPressureFromOtherOwner) {
  TempDir dir;
  SegmentCache cache(/*budget_bytes=*/4096);
  auto victim = MakeBackend(dir.path() + "/victim", &cache);
  auto churner = MakeBackend(dir.path() + "/churner", &cache);

  // The view pins victim's segments as it reads them; the string_views
  // collected here must stay valid for the view's lifetime even while
  // the churner blows through the budget.
  auto view = victim->SnapshotSealed();
  ASSERT_NE(view, nullptr);
  std::vector<std::pair<uint64_t, std::string_view>> texts;
  ASSERT_TRUE(view->ScanTexts(0, view->end_seq(),
                              [&](uint64_t seq, std::string_view text) {
                                texts.emplace_back(seq, text);
                              })
                  .ok());
  ASSERT_GT(texts.size(), 100u);

  for (int round = 0; round < 3; ++round) {
    uint64_t n = 0;
    ASSERT_TRUE(churner
                    ->Scan(0, kRecords,
                           [&n](uint64_t, const LogRecord&) { ++n; })
                    .ok());
    ASSERT_EQ(n, kRecords);
  }
  EXPECT_GT(cache.totals().evictions, 0u);

  // Pinned bytes are exempt from eviction: every collected string_view
  // still reads back byte-identical.
  for (const auto& [seq, text] : texts) {
    EXPECT_EQ(text, TextFor(seq)) << seq;
  }
  // Dropping the view releases its pins; the cache settles under
  // budget again once the next acquisition runs eviction.
  view.reset();
  uint64_t n = 0;
  ASSERT_TRUE(
      churner->Scan(0, 10, [&n](uint64_t, const LogRecord&) { ++n; }).ok());
  EXPECT_LE(cache.totals().resident_bytes, 4096u + 2048u);
}

TEST(SegmentCacheTest, ShrinkingBudgetEvictsResidentSegments) {
  TempDir dir;
  SegmentCache cache;  // default budget: everything fits
  auto backend = MakeBackend(dir.path(), &cache);
  uint64_t n = 0;
  ASSERT_TRUE(
      backend->Scan(0, kRecords, [&n](uint64_t, const LogRecord&) { ++n; })
          .ok());
  ASSERT_GT(cache.totals().resident_bytes, 4096u);
  cache.set_budget_bytes(4096);
  EXPECT_LE(cache.totals().resident_bytes, 4096u);
  EXPECT_GT(cache.totals().evictions, 0u);
  // Reads still work after the shrink (remap on demand).
  LogRecord rec;
  ASSERT_TRUE(backend->Read(1, &rec).ok());
  EXPECT_EQ(rec.text, TextFor(1));
}

// Multi-topic workload under a budget smaller than total sealed bytes,
// with concurrent queries and a training-style snapshot scan: the TSAN
// target for the pin/evict protocol.
TEST(SegmentCacheTest, ConcurrentScansAndSnapshotsUnderEviction) {
  TempDir dir;
  SegmentCache cache(/*budget_bytes=*/6144);
  auto a = MakeBackend(dir.path() + "/a", &cache);
  auto b = MakeBackend(dir.path() + "/b", &cache);

  std::atomic<bool> failed{false};
  auto scan_loop = [&](SegmentedDiskBackend* backend) {
    for (int round = 0; round < 8; ++round) {
      uint64_t expect = 0;
      const Status s =
          backend->Scan(0, kRecords, [&](uint64_t seq, const LogRecord& rec) {
            if (seq != expect || rec.text != TextFor(seq)) failed = true;
            ++expect;
          });
      if (!s.ok() || expect != kRecords) failed = true;
    }
  };
  // Snapshot like the training thread: take the view, then read sealed
  // texts with no topic involvement while scans churn the cache.
  auto snapshot_loop = [&](SegmentedDiskBackend* backend) {
    for (int round = 0; round < 8; ++round) {
      auto view = backend->SnapshotSealed();
      if (view == nullptr) {
        failed = true;
        return;
      }
      uint64_t n = 0;
      const Status s =
          view->ScanTexts(0, view->end_seq(),
                          [&](uint64_t seq, std::string_view text) {
                            if (text != TextFor(seq)) failed = true;
                            ++n;
                          });
      if (!s.ok() || n != view->end_seq()) failed = true;
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(scan_loop, a.get());
  threads.emplace_back(scan_loop, b.get());
  threads.emplace_back(snapshot_loop, a.get());
  threads.emplace_back(snapshot_loop, b.get());
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed);
  EXPECT_GT(cache.totals().evictions, 0u);
  // With all pins released, the steady state respects the budget.
  LogRecord rec;
  ASSERT_TRUE(a->Read(0, &rec).ok());
  EXPECT_LE(cache.totals().resident_bytes, 6144u + 2048u);
}

// Truthful stats end to end: TopicStats reports resident (not total)
// bytes plus the cache counters, and the wire GetStatsResponse carries
// them through encode/decode (append-only tags 28-32).
TEST(SegmentCacheTest, TopicStatsAndWireRoundTripCarryCacheCounters) {
  TopicStats stats;
  stats.storage_mapped_bytes = 111;
  stats.storage_cache_hits = 7;
  stats.storage_cache_misses = 5;
  stats.storage_cache_evictions = 3;
  stats.storage_index_rebuilds = 2;
  stats.storage_scan_record_visits = 999;

  api::GetStatsResponse resp;
  resp.stats = stats;
  std::string bytes;
  resp.EncodeTo(&bytes);
  api::GetStatsResponse decoded;
  ASSERT_TRUE(decoded.DecodeFrom(bytes).ok());
  EXPECT_EQ(decoded.stats.storage_mapped_bytes, 111u);
  EXPECT_EQ(decoded.stats.storage_cache_hits, 7u);
  EXPECT_EQ(decoded.stats.storage_cache_misses, 5u);
  EXPECT_EQ(decoded.stats.storage_cache_evictions, 3u);
  EXPECT_EQ(decoded.stats.storage_index_rebuilds, 2u);
  EXPECT_EQ(decoded.stats.storage_scan_record_visits, 999u);
}

TEST(SegmentCacheTest, TopicStatsReportResidentBytesNotFileBytes) {
  TempDir dir;
  SegmentCache cache(/*budget_bytes=*/4096);
  TopicConfig config;
  config.storage = DiskConfig(dir.path(), 2048, &cache);
  config.async_training = false;
  config.initial_train_records = 1000000;  // no training needed here
  config.train_interval_records = 1000000;
  config.train_volume_bytes = 1ull << 40;
  ManagedTopic topic("stats", config);
  for (uint64_t seq = 0; seq < kRecords; ++seq) {
    ASSERT_TRUE(topic.Ingest(TextFor(seq)).ok());
  }
  TopicStats before = topic.stats();
  ASSERT_GE(before.storage_sealed_segments, 4u);
  // Sealing maps nothing: resident bytes start at zero even though the
  // sealed files hold far more than the budget.
  EXPECT_EQ(before.storage_mapped_bytes, 0u);

  // A full-window query with sequence collection walks every segment
  // through the cache; stats must show the traffic and a residency at
  // or under the budget — not the sum of sealed file sizes.
  auto groups = topic.Query(0.6, 0, topic.size(), true);
  ASSERT_TRUE(groups.ok());
  TopicStats after = topic.stats();
  EXPECT_GT(after.storage_cache_misses, 0u);
  EXPECT_GT(after.storage_cache_evictions, 0u);
  EXPECT_LE(after.storage_mapped_bytes, 4096u + 2048u);
  EXPECT_GT(after.storage_mapped_bytes, 0u);
}

}  // namespace
}  // namespace bytebrain
