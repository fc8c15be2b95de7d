// Fig. 10: the token->id dictionary an ordinal encoder would have to
// persist, per dataset, as a function of log volume — the storage that
// hash encoding eliminates entirely. Plus the topic-storage series:
// storage-backend append/scan throughput and on-disk footprint,
// in-memory backend vs the segmented disk backend (mmap'd sealed scans).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "core/preprocess.h"
#include "logstore/storage_backend.h"
#include "util/string_util.h"
#include "util/timer.h"

using namespace bytebrain;

namespace {

struct StorageSeries {
  double append_mps = 0.0;  // million records/s
  double scan_mps = 0.0;
  uint64_t disk_bytes = 0;
  uint64_t segments = 0;
};

StorageSeries RunStorageSeries(const Dataset& ds, bool disk) {
  StorageConfig cfg;
  std::string dir;
  if (disk) {
    dir = (std::filesystem::temp_directory_path() /
           ("bb_fig10_" + std::to_string(::getpid()) + "_" + ds.name))
              .string();
    std::filesystem::remove_all(dir);
    cfg.kind = StorageConfig::Kind::kSegmentedDisk;
    cfg.directory = dir;
    cfg.segment_data_bytes = 1u << 20;
  }
  StorageSeries out;
  {
    std::unique_ptr<StorageBackend> store = CreateStorageBackend(cfg);
    if (!store->Open().ok()) {
      std::fprintf(stderr, "cannot open storage for %s\n", ds.name.c_str());
      std::exit(1);
    }
    // Appends go in 4096-record batches, the way the service ingests.
    Timer append_timer;
    uint64_t ts = 0;
    std::vector<LogRecord> batch;
    for (const auto& l : ds.logs) {
      batch.push_back({ts++, l.text, 0});
      if (batch.size() == 4096) {
        (void)store->AppendBatch(std::move(batch));
        batch.clear();
      }
    }
    (void)store->AppendBatch(std::move(batch));
    out.append_mps = static_cast<double>(ds.logs.size()) /
                     append_timer.ElapsedSeconds() / 1e6;
    Timer scan_timer;
    uint64_t bytes = 0;
    (void)store->Scan(0, store->size(),
                      [&bytes](uint64_t, const LogRecord& rec) {
                        bytes += rec.text.size();
                      });
    out.scan_mps = static_cast<double>(store->size()) /
                   scan_timer.ElapsedSeconds() / 1e6;
    out.segments = store->stats().storage_sealed_segments;
  }
  if (disk) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.is_regular_file()) out.disk_bytes += entry.file_size();
    }
    std::filesystem::remove_all(dir);
  }
  return out;
}

}  // namespace

int main() {
  PrintBenchHeader("Fig. 10 — ordinal-encoding dictionary size vs log size",
                   "paper Fig. 10");

  TablePrinter table({"Dataset", "LogBytes", "DictBytes(ordinal)",
                      "DictBytes(hash)", "Dict/Log ratio"},
                     {13, 14, 20, 17, 15});
  table.PrintHeader();

  for (const DatasetSpec& spec : LogHub2Specs()) {
    Dataset ds = ScaledLogHub2(spec);
    std::vector<std::string> logs;
    logs.reserve(ds.logs.size());
    for (auto& l : ds.logs) logs.push_back(l.text);

    PreprocessOptions opts;
    opts.encoder = EncoderKind::kOrdinal;
    opts.num_threads = 2;
    auto replacer = VariableReplacer::Default();
    auto result = Preprocess(logs, replacer, opts);

    const uint64_t log_bytes = ds.TextBytes();
    table.PrintRow({spec.name, FormatBytes(log_bytes),
                    FormatBytes(result.dictionary_bytes), "0 B",
                    TablePrinter::Fmt(static_cast<double>(result.dictionary_bytes) /
                                          static_cast<double>(log_bytes),
                                      4)});
  }
  std::printf(
      "\nShape check (paper Fig. 10): dictionary size grows with log\n"
      "volume into the 10^5-10^8 byte range at full scale; hash encoding\n"
      "stores nothing. (At the bench's reduced scale the ratio column is\n"
      "the scale-free signal.)\n");

  std::printf(
      "\nTopic-storage series: backend append/scan, in-memory backend\n"
      "vs segmented disk backend (1 MiB checksummed segments, sealed\n"
      "segments scanned via mmap).\n\n");
  TablePrinter storage_table(
      {"Dataset", "Mem app M/s", "Disk app M/s", "Mem scan M/s",
       "Disk scan M/s", "DiskBytes", "Segs"},
      {13, 12, 13, 13, 14, 11, 5});
  storage_table.PrintHeader();
  for (const DatasetSpec& spec : LogHub2Specs()) {
    Dataset ds = ScaledLogHub2(spec);
    const StorageSeries mem = RunStorageSeries(ds, /*disk=*/false);
    const StorageSeries disk = RunStorageSeries(ds, /*disk=*/true);
    storage_table.PrintRow(
        {spec.name, TablePrinter::Fmt(mem.append_mps),
         TablePrinter::Fmt(disk.append_mps), TablePrinter::Fmt(mem.scan_mps),
         TablePrinter::Fmt(disk.scan_mps), FormatBytes(disk.disk_bytes),
         std::to_string(disk.segments)});
  }
  return 0;
}
