// Index-backed query battery (the cursor-pagination fix): fencepost
// seeks return byte-identical records, postings answer count queries
// without touching record bytes (cache-miss accounting proves segments
// stay cold), template-filtered scans and partial counts map only the
// segments a time window cuts, disk AssignTemplates maps and pwrites
// only segments with changed sealed ids, and — the
// regression this PR exists for — page N of a pinned query window does
// O(page) storage work instead of re-scanning the whole window.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "logstore/disk_backend.h"
#include "logstore/fault_injection.h"
#include "logstore/segment_cache.h"
#include "logstore/storage_backend.h"
#include "service/log_service.h"

namespace bytebrain {
namespace {

class TempDir {
 public:
  TempDir() {
    static std::atomic<uint64_t> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("bb_qidx_" + std::to_string(::getpid()) + "_" +
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
                         SegmentCache* cache = nullptr) {
  StorageConfig cfg;
  cfg.kind = StorageConfig::Kind::kSegmentedDisk;
  cfg.directory = dir;
  cfg.segment_data_bytes = segment_bytes;
  cfg.segment_cache = cache;
  return cfg;
}

// Variable-length texts so record byte offsets are NOT an affine
// function of the sequence number — a wrong fencepost seek cannot
// accidentally land on the right frame.
std::string TextFor(uint64_t seq) {
  std::string text = "rec-" + std::to_string(seq) + "-";
  text.append(seq % 7, 'x');
  return text;
}

// ---------------------------------------------------------------------
// Fencepost seeks: Read/Scan over segments larger than the fencepost
// interval (so lookups actually hop from an interior fencepost).
// ---------------------------------------------------------------------

TEST(QueryIndexTest, FencepostSeekReadsAndScansExactly) {
  TempDir dir;
  // ~150 records per sealed segment with the texts above — comfortably
  // past the fencepost interval (64 records), so each segment has
  // multiple fenceposts and most seeks start at an interior one.
  SegmentedDiskBackend backend(DiskConfig(dir.path(), 5000));
  ASSERT_TRUE(backend.Open().ok());
  constexpr uint64_t kRecords = 700;
  for (uint64_t seq = 0; seq < kRecords; ++seq) {
    ASSERT_TRUE(backend.AppendBatch({{seq * 10, TextFor(seq), seq % 5}}).ok());
  }
  ASSERT_GE(backend.stats().storage_sealed_segments, 3u);

  // Point reads across every segment, in a scattered order.
  for (uint64_t step = 0; step < 7; ++step) {
    for (uint64_t seq = step; seq < kRecords; seq += 7) {
      LogRecord rec;
      ASSERT_TRUE(backend.Read(seq, &rec).ok()) << seq;
      EXPECT_EQ(rec.text, TextFor(seq)) << seq;
      EXPECT_EQ(rec.timestamp_us, seq * 10) << seq;
      EXPECT_EQ(rec.template_id, seq % 5) << seq;
    }
  }

  // Range scans starting mid-segment (the seek path, not just offset 0).
  for (uint64_t begin : {0ull, 1ull, 63ull, 64ull, 65ull, 331ull, 699ull}) {
    uint64_t expect = begin;
    ASSERT_TRUE(backend
                    .Scan(begin, kRecords,
                          [&](uint64_t seq, const LogRecord& rec) {
                            EXPECT_EQ(seq, expect);
                            EXPECT_EQ(rec.text, TextFor(seq));
                            ++expect;
                          })
                    .ok());
    EXPECT_EQ(expect, kRecords);
  }
}

// ---------------------------------------------------------------------
// Postings: counts and template-filtered scans against a brute-force
// oracle, plus the cache-miss accounting that proves cold segments
// stay cold.
// ---------------------------------------------------------------------

TEST(QueryIndexTest, TemplateCountsMatchBruteForceAcrossBounds) {
  TempDir dir;
  SegmentedDiskBackend backend(DiskConfig(dir.path(), 2000));
  ASSERT_TRUE(backend.Open().ok());
  constexpr uint64_t kRecords = 500;
  std::vector<TemplateId> tids;
  for (uint64_t seq = 0; seq < kRecords; ++seq) {
    const TemplateId tid = (seq * seq) % 11;
    tids.push_back(tid);
    ASSERT_TRUE(backend.AppendBatch({{seq, TextFor(seq), tid}}).ok());
  }
  for (const auto [begin, end] : std::vector<std::pair<uint64_t, uint64_t>>{
           {0, kRecords}, {0, 1}, {17, 450}, {100, 100}, {64, 128},
           {3, UINT64_MAX}}) {
    std::unordered_map<TemplateId, uint64_t> expect;
    for (uint64_t s = begin; s < std::min(end, kRecords); ++s) {
      ++expect[tids[s]];
    }
    std::unordered_map<TemplateId, uint64_t> got;
    ASSERT_TRUE(backend.TemplateCounts(begin, end, 0, UINT64_MAX, &got).ok());
    EXPECT_EQ(got, expect) << begin << ".." << end;
  }
}

TEST(QueryIndexTest, CountAndFilterQueriesLeaveColdSegmentsUnmapped) {
  TempDir dir;
  SegmentCache cache;  // private cache: counters start at zero
  // 1-byte texts -> 29-byte frames -> exactly 10 records per segment;
  // record seq gets template seq/10 + 1, so each sealed segment holds
  // exactly one distinct template. 100 appends = 10 sealed segments
  // and an EMPTY active segment.
  SegmentedDiskBackend backend(DiskConfig(dir.path(), 290, &cache));
  ASSERT_TRUE(backend.Open().ok());
  for (uint64_t seq = 0; seq < 100; ++seq) {
    ASSERT_TRUE(backend.AppendBatch({{seq, "x", seq / 10 + 1}}).ok());
  }
  ASSERT_EQ(backend.stats().storage_sealed_segments, 10u);
  ASSERT_EQ(backend.size(), 100u);
  const uint64_t misses_before = cache.totals().misses;

  // Fully-covered count query: answered from postings alone — no
  // segment is mapped, no record is visited.
  std::unordered_map<TemplateId, uint64_t> counts;
  ASSERT_TRUE(backend.TemplateCounts(0, 100, 0, UINT64_MAX, &counts).ok());
  ASSERT_EQ(counts.size(), 10u);
  for (const auto& [tid, n] : counts) EXPECT_EQ(n, 10u) << tid;
  EXPECT_EQ(cache.totals().misses, misses_before);
  EXPECT_EQ(backend.stats().storage_scan_record_visits, 0u);

  // Template-filtered scan for ONE segment's template: postings skip
  // the other nine, and the id column filters that one — nothing is
  // mapped, its ten records are visited.
  std::vector<uint64_t> seqs;
  ASSERT_TRUE(backend
                  .ScanTemplates(0, 100, 0, UINT64_MAX, {TemplateId{4}},
                                 [&](uint64_t seq, TemplateId tid) {
                                   EXPECT_EQ(tid, 4u);
                                   seqs.push_back(seq);
                                 })
                  .ok());
  EXPECT_EQ(seqs, (std::vector<uint64_t>{30, 31, 32, 33, 34, 35, 36, 37, 38,
                                         39}));
  EXPECT_EQ(cache.totals().misses, misses_before);
  EXPECT_EQ(backend.stats().storage_scan_record_visits, 10u);

  // A count whose sequence window cuts two segments: the id column
  // answers those (5 + 2 visits), postings the one between them.
  counts.clear();
  ASSERT_TRUE(backend.TemplateCounts(35, 52, 0, UINT64_MAX, &counts).ok());
  EXPECT_EQ(counts, (std::unordered_map<TemplateId, uint64_t>{
                        {4, 5}, {5, 10}, {6, 2}}));
  EXPECT_EQ(cache.totals().misses, misses_before);
  EXPECT_EQ(backend.stats().storage_scan_record_visits, 10u + 7u);

  // A template no segment holds: nothing mapped, nothing visited.
  ASSERT_TRUE(backend
                  .ScanTemplates(0, 100, 0, UINT64_MAX, {TemplateId{999}},
                                 [](uint64_t, TemplateId) { FAIL(); })
                  .ok());
  EXPECT_EQ(cache.totals().misses, misses_before);
  EXPECT_EQ(backend.stats().storage_scan_record_visits, 10u + 7u);
}

// Only a segment whose timestamps the time window cuts is mapped: its
// frames hold the per-record timestamps the in-memory index lacks.
TEST(QueryIndexTest, TimeWindowStraddlingOneSegmentMapsOnlyThatSegment) {
  TempDir dir;
  SegmentCache cache;
  // 10 sealed segments of 10 records, record seq at timestamp seq; all
  // carry template 1, so postings skip no segment.
  SegmentedDiskBackend backend(DiskConfig(dir.path(), 290, &cache));
  ASSERT_TRUE(backend.Open().ok());
  for (uint64_t seq = 0; seq < 100; ++seq) {
    ASSERT_TRUE(backend.AppendBatch({{seq, "x", 1}}).ok());
  }
  ASSERT_EQ(backend.stats().storage_sealed_segments, 10u);
  const uint64_t misses_before = cache.totals().misses;

  // Timestamps 25..59: segment 2 (20..29) is cut, segments 3-5 lie
  // inside, the rest miss. Exactly one segment faults in.
  std::vector<uint64_t> seqs;
  ASSERT_TRUE(backend
                  .ScanTemplates(0, 100, 25, 59, {TemplateId{1}},
                                 [&](uint64_t seq, TemplateId tid) {
                                   EXPECT_EQ(tid, 1u);
                                   seqs.push_back(seq);
                                 })
                  .ok());
  std::vector<uint64_t> expect;
  for (uint64_t seq = 25; seq < 60; ++seq) expect.push_back(seq);
  EXPECT_EQ(seqs, expect);
  EXPECT_EQ(cache.totals().misses, misses_before + 1);
  EXPECT_EQ(backend.stats().storage_scan_record_visits, 40u);

  // The same window counted: the cut segment is now resident (a hit);
  // the covered ones come from postings.
  std::unordered_map<TemplateId, uint64_t> counts;
  ASSERT_TRUE(backend.TemplateCounts(0, 100, 25, 59, &counts).ok());
  EXPECT_EQ(counts, (std::unordered_map<TemplateId, uint64_t>{{1, 35}}));
  EXPECT_EQ(cache.totals().misses, misses_before + 1);
  EXPECT_EQ(backend.stats().storage_scan_record_visits, 40u + 10u);
}

TEST(QueryIndexTest, PostingsFollowTemplateReassignment) {
  TempDir dir;
  SegmentedDiskBackend backend(DiskConfig(dir.path(), 290));
  ASSERT_TRUE(backend.Open().ok());
  for (uint64_t seq = 0; seq < 30; ++seq) {
    ASSERT_TRUE(backend.AppendBatch({{seq, "x", 1}}).ok());
  }
  ASSERT_EQ(backend.stats().storage_sealed_segments, 3u);
  // Rewrite sealed records' templates (a one-record and a ten-record
  // range) and expect the postings-backed counts to track them.
  ASSERT_TRUE(backend.AssignTemplates(5, {7}).ok());
  std::vector<TemplateId> bulk(10, 1);
  bulk[2] = 9;  // seq 12
  ASSERT_TRUE(backend.AssignTemplates(10, bulk).ok());
  std::unordered_map<TemplateId, uint64_t> counts;
  ASSERT_TRUE(backend.TemplateCounts(0, 30, 0, UINT64_MAX, &counts).ok());
  EXPECT_EQ(counts[1], 28u);
  EXPECT_EQ(counts[7], 1u);
  EXPECT_EQ(counts[9], 1u);
}

// ---------------------------------------------------------------------
// AssignTemplates skips unchanged ids: on disk only a changed SEALED
// record costs a syscall (one pwrite; an active-tail rewrite waits for
// the next flush) and only its segment is mapped, and a range past the
// end touches nothing.
// ---------------------------------------------------------------------

TEST(QueryIndexTest, AssignTemplatesPWritesOnlyChangedSealedIds) {
  TempDir dir;
  FaultInjectingFileOps ops;  // no faults: counts every write/pwrite/fsync
  SegmentCache cache;
  StorageConfig cfg = DiskConfig(dir.path(), 290, &cache);
  cfg.file_ops = &ops;
  SegmentedDiskBackend backend(cfg);
  ASSERT_TRUE(backend.Open().ok());
  // 29-byte frames, 10 per segment: seqs 0-99 sealed, 100-104 active.
  constexpr uint64_t kRecords = 105;
  std::vector<TemplateId> ids;
  for (uint64_t seq = 0; seq < kRecords; ++seq) {
    ids.push_back(seq % 3 + 1);
    ASSERT_TRUE(backend.AppendBatch({{seq, "x", ids.back()}}).ok());
  }
  ASSERT_EQ(backend.stats().storage_sealed_segments, 10u);
  ids[4] = 9;
  ids[57] = 9;
  ids[102] = 9;  // active tail
  const uint64_t ops_before = ops.ops_seen();
  const uint64_t misses_before = cache.totals().misses;
  ASSERT_TRUE(backend.AssignTemplates(0, ids).ok());
  EXPECT_EQ(ops.ops_seen() - ops_before, 2u);
  EXPECT_EQ(cache.totals().misses - misses_before, 2u);  // segments 0 and 5
  // The same ids again: nothing changes, nothing is pinned or written.
  const uint64_t hits_before = cache.totals().hits;
  ASSERT_TRUE(backend.AssignTemplates(0, ids).ok());
  EXPECT_EQ(ops.ops_seen() - ops_before, 2u);
  EXPECT_EQ(cache.totals().misses - misses_before, 2u);
  EXPECT_EQ(cache.totals().hits, hits_before);
  for (uint64_t seq : {4, 57, 102}) {
    LogRecord rec;
    ASSERT_TRUE(backend.Read(seq, &rec).ok());
    EXPECT_EQ(rec.template_id, 9u) << seq;
  }
  // Out-of-range bulk assignment fails without touching anything.
  EXPECT_TRUE(backend.AssignTemplates(5, ids).IsNotFound());
  EXPECT_EQ(ops.ops_seen() - ops_before, 2u);
}

// ---------------------------------------------------------------------
// THE regression: page N of a pinned window must do O(page) storage
// work. The old path re-scanned and regrouped the whole window for
// every page, so k pages over W records visited k*W records; the
// index-backed path visits each matching record once across ALL pages
// (counts come from postings, sequence collection is template-filtered
// per page).
// ---------------------------------------------------------------------

TEST(QueryIndexTest, PagedQueryVisitsEachRecordOnceAcrossAllPages) {
  TempDir dir;
  TopicConfig config;
  config.storage = DiskConfig(dir.path(), 4096);
  config.async_training = false;
  config.initial_train_records = 100;
  config.train_interval_records = 1000000;
  config.train_volume_bytes = 1ull << 40;
  ManagedTopic topic("paged", config);

  // 10 clearly distinct shapes. A short interleaved warm-up makes the
  // initial training (at 100 records) see every shape — afterwards new
  // records match existing templates instead of minting their own. The
  // bulk then goes shape-by-shape so each shape's records cluster into
  // a few segments (what makes template-filtered segment skipping
  // visible).
  constexpr int kShapes = 10;
  constexpr int kPerShape = 120;
  constexpr int kWarm = 12;
  auto ingest = [&](int s, int i) {
    auto seq = topic.Ingest("shape" + std::to_string(s) + " unit " +
                            std::to_string(s) + " event " +
                            std::to_string(i));
    ASSERT_TRUE(seq.ok());
  };
  for (int i = 0; i < kWarm; ++i) {
    for (int s = 0; s < kShapes; ++s) ingest(s, i);
  }
  for (int s = 0; s < kShapes; ++s) {
    for (int i = kWarm; i < kPerShape; ++i) ingest(s, i);
  }
  const uint64_t window = topic.size();
  ASSERT_EQ(window, uint64_t{kShapes * kPerShape});

  // Baseline: one unpaged query (the oracle for page concatenation).
  auto full = topic.Query(1.0, 0, window, /*collect_sequences=*/true);
  ASSERT_TRUE(full.ok());
  ASSERT_GE(full->size(), size_t{kShapes});

  const uint64_t visits_before = topic.stats().storage_scan_record_visits;

  // Page through the pinned window one group at a time via resume keys,
  // exactly as the frontend cursor does.
  QueryPageRequest req;
  req.saturation_threshold = 1.0;
  req.begin_seq = 0;
  req.end_seq = window;
  req.max_groups = 1;
  std::vector<TemplateGroup> paged;
  uint64_t pages = 0;
  for (;;) {
    auto page = topic.QueryGroups(req);
    ASSERT_TRUE(page.ok());
    ++pages;
    ASSERT_LE(pages, full->size() + 1);
    for (auto& g : page->groups) paged.push_back(std::move(g));
    if (!page->has_more) break;
    req.has_resume_key = true;
    req.resume_count = page->last_count;
    req.resume_template_id = page->last_template_id;
  }

  // Correctness: page concatenation == the unpaged result, in order.
  ASSERT_EQ(paged.size(), full->size());
  for (size_t i = 0; i < paged.size(); ++i) {
    EXPECT_EQ(paged[i].template_id, (*full)[i].template_id) << i;
    EXPECT_EQ(paged[i].count, (*full)[i].count) << i;
    EXPECT_EQ(paged[i].sequence_numbers, (*full)[i].sequence_numbers) << i;
  }

  // O(page) work: across ALL pages, total record visits stay around one
  // traversal of the window plus a per-page unsealed tail (counts are
  // postings-backed; each page's filtered scan touches only segments
  // holding its templates). The old implementation re-scanned the whole
  // window per page: pages * window visits.
  const uint64_t visits = topic.stats().storage_scan_record_visits -
                          visits_before;
  EXPECT_LE(visits, 4 * window) << pages << " pages";
  EXPECT_LT(visits, pages * window / 2) << pages << " pages";

  // Count-only pages over the (mostly sealed) window: postings answer
  // everything except the unsealed tail — near-zero record visits.
  const uint64_t counts_before = topic.stats().storage_scan_record_visits;
  QueryPageRequest count_req;
  count_req.saturation_threshold = 1.0;
  count_req.begin_seq = 0;
  count_req.end_seq = window;
  count_req.collect_sequences = false;
  auto count_page = topic.QueryGroups(count_req);
  ASSERT_TRUE(count_page.ok());
  EXPECT_EQ(count_page->total_groups, full->size());
  EXPECT_LT(topic.stats().storage_scan_record_visits - counts_before,
            window / 4);
}

TEST(QueryIndexTest, ResumeKeySurvivesConcurrentIngest) {
  TempDir dir;
  TopicConfig config;
  config.storage = DiskConfig(dir.path(), 1024);
  config.async_training = false;
  config.initial_train_records = 1000000;  // never train: ids stay raw
  config.train_interval_records = 1000000;
  config.train_volume_bytes = 1ull << 40;
  ManagedTopic topic("pinned", config);
  for (int s = 0; s < 6; ++s) {
    for (int i = 0; i < 10 - s; ++i) {  // distinct counts: stable order
      ASSERT_TRUE(
          topic.Ingest("kind" + std::to_string(s) + " n " + std::to_string(i))
              .ok());
    }
  }
  const uint64_t window = topic.size();
  auto full = topic.Query(0.6, 0, window, true);
  ASSERT_TRUE(full.ok());

  QueryPageRequest req;
  req.begin_seq = 0;
  req.end_seq = window;  // pinned, as the frontend cursor pins it
  req.max_groups = 2;
  std::vector<TemplateGroup> paged;
  for (;;) {
    auto page = topic.QueryGroups(req);
    ASSERT_TRUE(page.ok());
    for (auto& g : page->groups) paged.push_back(std::move(g));
    if (!page->has_more) break;
    req.has_resume_key = true;
    req.resume_count = page->last_count;
    req.resume_template_id = page->last_template_id;
    // Ingest between pages: the pinned window must hide these.
    ASSERT_TRUE(topic.Ingest("kind0 n late").ok());
  }
  ASSERT_EQ(paged.size(), full->size());
  for (size_t i = 0; i < paged.size(); ++i) {
    EXPECT_EQ(paged[i].template_id, (*full)[i].template_id) << i;
    EXPECT_EQ(paged[i].count, (*full)[i].count) << i;
  }
}

// Storage reads run under the topic lock SHARED, concurrently with each
// other and with a checkpoint's fsyncs; writers run exclusive. Three
// readers loop over every shared-mode storage read while one writer
// ingests and retrains (each training stages a model checkpoint that is
// flushed under the shared lock). TSAN-covered: a per-record
// non-atomic visit counter or a reader-visible checkpoint mutation
// fails here.
TEST(QueryIndexTest, ConcurrentReadersDuringIngestAndCheckpoints) {
  TempDir dir;
  TopicConfig config;
  config.storage = DiskConfig(dir.path(), 2048);
  config.durability = DurabilityMode::kWalGroupCommit;
  config.initial_train_records = 60;
  config.train_interval_records = 1000000;  // trains on TrainNow only
  config.train_volume_bytes = 1ull << 40;
  ManagedTopic topic("concurrent", config);
  ASSERT_TRUE(topic.StorageStatus().ok());

  uint64_t ts = 0;
  auto ingest_batch = [&](int round) {
    std::vector<std::string> texts;
    std::vector<uint64_t> timestamps;
    for (int i = 0; i < 20; ++i) {
      texts.push_back("shape" + std::to_string(i % 6) + " worker " +
                      std::to_string(round) + " op " + std::to_string(i));
      timestamps.push_back(ts++);
    }
    return topic.IngestBatch(std::move(texts), timestamps).ok();
  };
  for (int round = 0; round < 5; ++round) ASSERT_TRUE(ingest_batch(round));
  ASSERT_TRUE(topic.trained());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> failures{0};
  auto reader = [&] {
    uint64_t iteration = 0;
    while (!done.load(std::memory_order_acquire) || iteration < 4) {
      const uint64_t window = topic.size();
      QueryPageRequest req;
      req.saturation_threshold = 0.8;
      req.end_seq = window;
      bool ok = true;
      switch (iteration++ % 4) {
        case 0: {  // paged, with sequences
          req.max_groups = 2;
          for (int pages = 0; pages < 64; ++pages) {
            auto page = topic.QueryGroups(req);
            if (!page.ok()) {
              ok = false;
              break;
            }
            if (!page->has_more) break;
            req.has_resume_key = true;
            req.resume_count = page->last_count;
            req.resume_template_id = page->last_template_id;
          }
          break;
        }
        case 1: {  // count-only: one call sees one consistent window
          req.collect_sequences = false;
          auto page = topic.QueryGroups(req);
          uint64_t total = 0;
          if (page.ok()) {
            for (const TemplateGroup& g : page->groups) total += g.count;
          }
          ok = page.ok() && total == window;
          break;
        }
        case 2: {  // time range
          req.min_timestamp_us = window / 4;
          req.max_timestamp_us = window / 2;
          ok = topic.QueryGroups(req).ok();
          break;
        }
        default: {  // replication read + stats
          ReplicationChunk chunk;
          ok = topic.ReplicationRead(0, 0, 4096, &chunk).ok() &&
               !chunk.data.empty();
          const TopicStats stats = topic.stats();
          ok = ok && stats.storage_ok && stats.storage_sealed_segments > 0;
          break;
        }
      }
      if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) readers.emplace_back(reader);
  for (int round = 5; round < 35; ++round) {
    if (!ingest_batch(round)) failures.fetch_add(1);
    if (round % 10 == 9 && !topic.TrainNow().ok()) failures.fetch_add(1);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(topic.stats().trainings, 4u);

  // Quiescent: paged == unpaged, and every stored id resolves.
  const uint64_t window = topic.size();
  auto full = topic.Query(0.8, 0, window, /*collect_sequences=*/true);
  ASSERT_TRUE(full.ok());
  QueryPageRequest req;
  req.saturation_threshold = 0.8;
  req.end_seq = window;
  req.max_groups = 2;
  std::vector<TemplateGroup> paged;
  for (;;) {
    auto page = topic.QueryGroups(req);
    ASSERT_TRUE(page.ok());
    for (auto& g : page->groups) paged.push_back(std::move(g));
    if (!page->has_more) break;
    req.has_resume_key = true;
    req.resume_count = page->last_count;
    req.resume_template_id = page->last_template_id;
  }
  ASSERT_EQ(paged.size(), full->size());
  for (size_t i = 0; i < paged.size(); ++i) {
    EXPECT_EQ(paged[i].template_id, (*full)[i].template_id) << i;
    EXPECT_EQ(paged[i].count, (*full)[i].count) << i;
    EXPECT_EQ(paged[i].sequence_numbers, (*full)[i].sequence_numbers) << i;
  }
  // Collected first: the scan callback must not re-enter the topic.
  std::vector<TemplateId> ids;
  ASSERT_TRUE(topic
                  .ScanRecords(0, window,
                               [&ids](uint64_t, const LogRecord& rec) {
                                 ids.push_back(rec.template_id);
                               })
                  .ok());
  ASSERT_EQ(ids.size(), window);
  for (uint64_t seq = 0; seq < window; ++seq) {
    EXPECT_TRUE(topic.HasTemplate(ids[seq])) << seq;
  }
}

}  // namespace
}  // namespace bytebrain
