// Query-engine bench: the index-backed read path (ROADMAP "Query
// engine: indexed reads + bounded page cache").
//
// Three series over one disk-backed topic whose sealed segments start
// fully COLD (sealing registers a segment with the cache without
// mapping it):
//   1. indexed vs scan — a count-only query answered wholesale from the
//      per-segment postings (touches no record bytes, maps no segments)
//      against the legacy full grouping scan over the same window;
//   2. cold vs warm — template-filtered pages and full grouping scans
//      read template ids from each sealed segment's in-memory column
//      and map nothing, cold or warm; then the budget is capped below
//      the sealed footprint and a full record (text) scan, which must
//      map every segment, shows LRU evictions keeping residency under
//      budget;
//   3. per-page latency across 100 pages — resume-key pagination keeps
//      page N at page-1 cost instead of regrouping the whole window.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "logstore/segment_cache.h"
#include "service/log_service.h"
#include "util/string_util.h"
#include "util/timer.h"

using namespace bytebrain;

namespace {

constexpr uint64_t kShapes = 400;
constexpr uint64_t kRecordsPerShape = 150;
constexpr uint64_t kPages = 100;

// Shape names are alphabetic so the variable replacer leaves them
// alone (numeric tokens would all merge into one "<*>" template).
std::string ShapeName(uint64_t shape) {
  std::string name;
  do {
    name.push_back(static_cast<char>('a' + shape % 26));
    shape /= 26;
  } while (shape != 0);
  return name;
}

std::string TextFor(uint64_t shape, uint64_t i) {
  std::string text = "job" + ShapeName(shape) + " unit " + ShapeName(shape) +
                     " finished step " + std::to_string(i) + " of " +
                     std::to_string(kRecordsPerShape);
  // Vary the token count so the trainer cannot merge shapes into one
  // wildcard template — the bench needs a stable many-group window.
  for (uint64_t h = 0; h < shape % 7; ++h) text += " hop" + ShapeName(shape);
  return text;
}

struct VisitsAndMisses {
  uint64_t visits = 0;
  uint64_t misses = 0;
  uint64_t hits = 0;
  uint64_t evictions = 0;
};

VisitsAndMisses Counters(const ManagedTopic& topic) {
  const TopicStats s = topic.stats();
  return {s.storage_scan_record_visits, s.storage_cache_misses,
          s.storage_cache_hits, s.storage_cache_evictions};
}

}  // namespace

int main() {
  PrintBenchHeader("Query engine — postings, page cache, cursor pages",
                   "ROADMAP: indexed reads + bounded page cache");

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("bb_bench_query_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  // Private cache so another bench's traffic can't pollute the
  // counters. Declared before the topic: it must outlive the backend.
  SegmentCache cache(/*budget_bytes=*/64ull << 20);

  TopicConfig cfg;
  cfg.storage.kind = StorageConfig::Kind::kSegmentedDisk;
  cfg.storage.directory = dir;
  cfg.storage.segment_data_bytes = 64 * 1024;  // many small segments
  cfg.storage.segment_cache = &cache;
  // A few interleaved warm-up rounds show the initial training every
  // shape (with enough support per shape), so it mints one template per
  // shape; the clustered bulk ingest afterwards matches those instead
  // of adopting temporaries.
  constexpr uint64_t kWarmRounds = 4;
  cfg.initial_train_records = kShapes * kWarmRounds;
  cfg.train_interval_records = 1ull << 40;
  cfg.train_volume_bytes = 1ull << 50;
  cfg.async_training = false;
  {
    ManagedTopic topic("bench_query", cfg);

    uint64_t ts = 0;
    for (uint64_t i = 0; i < kWarmRounds; ++i) {
      for (uint64_t shape = 0; shape < kShapes; ++shape) {
        if (!topic.Ingest(TextFor(shape, i), ts++).ok()) {
          std::fprintf(stderr, "ingest failed\n");
          return 1;
        }
      }
    }
    // Bulk shape-by-shape so each template's records cluster into few
    // segments — the layout postings-based segment skipping rewards.
    for (uint64_t shape = 0; shape < kShapes; ++shape) {
      std::vector<std::string> batch;
      batch.reserve(kRecordsPerShape - kWarmRounds);
      std::vector<uint64_t> stamps;
      stamps.reserve(kRecordsPerShape - kWarmRounds);
      for (uint64_t i = kWarmRounds; i < kRecordsPerShape; ++i) {
        batch.push_back(TextFor(shape, i));
        stamps.push_back(ts++);
      }
      if (!topic.IngestBatch(std::move(batch), stamps).ok()) {
        std::fprintf(stderr, "ingest failed\n");
        return 1;
      }
    }
    const uint64_t window = kShapes * kRecordsPerShape;
    const uint64_t sealed_bytes = [&dir] {
      uint64_t total = 0;
      for (const auto& e : std::filesystem::directory_iterator(dir)) {
        if (e.is_regular_file() && e.path().extension() == ".log") {
          total += e.file_size();
        }
      }
      return total;
    }();
    std::printf("topic: %llu records, %llu shapes, %s sealed\n\n",
                static_cast<unsigned long long>(window),
                static_cast<unsigned long long>(kShapes),
                FormatBytes(sealed_bytes).c_str());

    // Rows and counter columns carry their BENCH_matcher.json names:
    // bench/check_query_counters.py gates the counters by those names.
    TablePrinter table({"Query", "ms", "record_visits", "cache_misses",
                        "cache_hits", "cache_evictions"},
                       {27, 9, 14, 13, 11, 15});
    table.PrintHeader();
    // Prints one row: the wall time and counter deltas of body().
    const auto measure = [&](const char* name, const auto& body) {
      const VisitsAndMisses before = Counters(topic);
      Timer t;
      body();
      const double ms = t.ElapsedSeconds() * 1e3;
      const VisitsAndMisses after = Counters(topic);
      table.PrintRow({name, TablePrinter::Fmt(ms),
                      std::to_string(after.visits - before.visits),
                      std::to_string(after.misses - before.misses),
                      std::to_string(after.hits - before.hits),
                      std::to_string(after.evictions - before.evictions)});
    };
    uint64_t total_groups = 0;
    // With `resume`, the page starts after that page's last group.
    const auto run = [&](const char* name, bool collect_sequences,
                         uint64_t max_groups,
                         const QueryPage* resume = nullptr) {
      QueryPageRequest req;
      req.saturation_threshold = 1.0;
      req.collect_sequences = collect_sequences;
      req.max_groups = max_groups;
      if (resume != nullptr) {
        req.has_resume_key = true;
        req.resume_count = resume->last_count;
        req.resume_template_id = resume->last_template_id;
      }
      measure(name, [&] {
        auto page = topic.QueryGroups(req);
        if (!page.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       page.status().ToString().c_str());
          std::exit(1);
        }
        total_groups = page.value().total_groups;
      });
    };

    // 1. Indexed vs scan, on a fully cold cache: the count-only query is
    // answered from postings (zero record visits, zero segment maps);
    // the legacy whole-window grouping pays the full scan.
    run("QueryCountOnly_postings", /*collect_sequences=*/false,
        /*max_groups=*/0);
    // 2. Cold vs warm template-filtered page deep in the group order
    // (small groups, each clustered into a couple of segments): only
    // segments whose postings hold the page's templates are filtered,
    // from their in-memory id columns.
    const uint64_t page_size = kShapes / kPages;
    const uint64_t tail_page =
        total_groups > page_size ? total_groups - page_size : 0;
    // The tail page's resume key, from an untimed count-only page of the
    // groups before it (postings only: no record visits, no maps).
    QueryPageRequest head_req;
    head_req.saturation_threshold = 1.0;
    head_req.collect_sequences = false;
    head_req.max_groups = tail_page;
    auto head = topic.QueryGroups(head_req);
    if (!head.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   head.status().ToString().c_str());
      std::exit(1);
    }
    const QueryPage* resume = tail_page > 0 ? &head.value() : nullptr;
    run("QueryFilteredPage_cold", /*collect_sequences=*/true,
        /*max_groups=*/page_size, resume);
    run("QueryFilteredPage_warm", /*collect_sequences=*/true,
        /*max_groups=*/page_size, resume);
    // Full grouping scans, twice: neither maps a segment.
    run("QueryFullScan_coldish", /*collect_sequences=*/true, /*max_groups=*/0);
    run("QueryFullScan_warm", /*collect_sequences=*/true, /*max_groups=*/0);

    // Budget capped below the sealed footprint: the grouping scan still
    // maps nothing, and a full text scan must evict as it goes and
    // still land under budget.
    cache.set_budget_bytes(sealed_bytes / 2);
    run("QueryFullScan_budget_half", /*collect_sequences=*/true,
        /*max_groups=*/0);
    measure("QueryTextScan_budget_half", [&] {
      const Status scanned = topic.ScanRecords(
          0, window, [](uint64_t, const LogRecord&) {});
      if (!scanned.ok()) {
        std::fprintf(stderr, "scan failed: %s\n",
                     scanned.ToString().c_str());
        std::exit(1);
      }
    });
    std::printf("\nbudget cap: %s budget (sealed/2), %s resident after scan\n",
                FormatBytes(sealed_bytes / 2).c_str(),
                FormatBytes(topic.stats().storage_mapped_bytes).c_str());
    cache.set_budget_bytes(64ull << 20);

    // 3. Per-page latency across the whole window: page N+1 resumes
    // from page N's (count, template_id) key, so late pages cost the
    // same as early ones instead of regrouping pages 1..N.
    std::vector<double> page_us;
    page_us.reserve(kPages);
    QueryPageRequest req;
    req.saturation_threshold = 1.0;
    req.max_groups = kShapes / kPages;
    uint64_t groups_seen = 0;
    for (;;) {
      Timer t;
      auto page = topic.QueryGroups(req);
      const double us = t.ElapsedSeconds() * 1e6;
      if (!page.ok()) {
        std::fprintf(stderr, "page failed\n");
        return 1;
      }
      page_us.push_back(us);
      groups_seen += page.value().groups.size();
      if (!page.value().has_more) break;
      req.has_resume_key = true;
      req.resume_count = page.value().last_count;
      req.resume_template_id = page.value().last_template_id;
    }
    std::vector<double> sorted = page_us;
    std::sort(sorted.begin(), sorted.end());
    const double p50 = sorted[sorted.size() / 2];
    const double p90 = sorted[sorted.size() * 9 / 10];
    std::printf(
        "\npagination: %zu pages, %llu groups; per-page us: first=%.0f "
        "p50=%.0f p90=%.0f max=%.0f last/first=%.2fx\n",
        page_us.size(), static_cast<unsigned long long>(groups_seen),
        page_us.front(), p50, p90, sorted.back(),
        page_us.back() / page_us.front());
    std::printf(
        "shape check: late pages stay within noise of page 1 (the old\n"
        "cursor re-grouped the whole window per page, so page N cost\n"
        "N x page 1).\n");
  }
  std::filesystem::remove_all(dir);
  return 0;
}
