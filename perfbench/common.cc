#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/hashing.h"
#include "util/rng.h"

namespace perfbench {

void Report::Info(const std::string& name, double value,
                  const std::string& unit) {
  char line[256];
  std::snprintf(line, sizeof(line), "%-34s %.6g %s", name.c_str(), value,
                unit.c_str());
  info.emplace_back(line);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::vector<double> LatenciesMs(const std::vector<OpSample>& ops) {
  std::vector<double> out;
  out.reserve(ops.size());
  for (const OpSample& op : ops) {
    out.push_back(op.failed ? kFailedLatencyMs : op.latency_ms);
  }
  return out;
}

void Phase::SliceByTime() {
  const uint64_t span = end_ns - begin_ns;
  const uint64_t n = std::max<uint64_t>(1, span / 1'000'000'000);
  cuts.clear();
  for (uint64_t k = 1; k <= n; ++k) cuts.push_back(begin_ns + span * k / n);
}

uint64_t Phase::Failed() const {
  uint64_t n = 0;
  for (const OpSample& op : ops) n += op.failed ? 1 : 0;
  return n;
}

Summary Summarize(const Phase& phase, bool count_ops) {
  std::vector<double> rates, p50s, p99s, peaks;
  uint64_t begin = phase.begin_ns;
  for (uint64_t cut : phase.cuts) {
    double items = 0;
    std::vector<double> latencies;
    for (const OpSample& op : phase.ops) {
      if (op.end_ns < begin || op.end_ns > cut) continue;
      if (!op.failed) items += count_ops ? 1.0 : static_cast<double>(op.items);
      latencies.push_back(op.failed ? kFailedLatencyMs : op.latency_ms);
    }
    if (cut > begin) {
      rates.push_back(items / (static_cast<double>(cut - begin) / 1e9));
    }
    if (!latencies.empty()) {
      p50s.push_back(Percentile(latencies, 0.50));
      p99s.push_back(Percentile(latencies, 0.99));
    }
    uint64_t peak = 0;
    for (const auto& [t, bytes] : phase.rss) {
      if (t >= begin && t <= cut) peak = std::max(peak, bytes);
    }
    if (peak > 0) {
      peaks.push_back(static_cast<double>(peak) / (1 << 20) -
                      static_cast<double>(phase.corpus_bytes) / (1 << 20));
    }
    begin = cut + 1;
  }
  return {Median(rates), Median(p50s), Median(p99s), Median(peaks)};
}

void ReportEndToEnd(const Summary& s, uint64_t samples, double setup_s,
                    double ga, Report* report) {
  report->e2e["setup_s"] = {setup_s, "s"};
  report->e2e["throughput"] = {s.rate, "1/s"};
  report->e2e["p50_ms"] = {s.p50_ms, "ms"};
  report->e2e["p99_ms"] = {s.p99_ms, "ms"};
  report->e2e["ga"] = {ga, "fraction"};
  report->e2e["peak_rss_mb"] = {s.peak_rss_mb, "MB"};
  report->Info("samples", static_cast<double>(samples), "ops");
}

void ReportTraceOverhead(const Summary& untraced, const Summary& traced,
                         Report* report) {
  report->layer["trace.overhead"] = {
      untraced.p50_ms > 0 ? traced.p50_ms / untraced.p50_ms - 1.0 : 0.0,
      "ratio"};
  report->Info("trace.untraced_p50_ms", untraced.p50_ms, "ms");
  report->Info("trace.traced_p50_ms", traced.p50_ms, "ms");
}

namespace {

uint64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

uint64_t StringHeapBytes(const std::string& s) {
  // Short strings live inside the object (SSO); longer ones own a
  // heap block of capacity + 1.
  return s.capacity() > 15 ? s.capacity() + 1 : 0;
}

}  // namespace

RssSampler::RssSampler(std::vector<std::pair<uint64_t, uint64_t>>* out)
    : out_(out) {
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      out_->emplace_back(NowNs(), ResidentBytes());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    out_->emplace_back(NowNs(), ResidentBytes());
  });
}

RssSampler::~RssSampler() {
  stop_ = true;
  thread_.join();
}

uint64_t Corpus::HeapBytes() const {
  uint64_t bytes = texts.capacity() * sizeof(std::string) +
                   labels.capacity() * sizeof(uint32_t);
  for (const std::string& text : texts) bytes += StringHeapBytes(text);
  return bytes;
}

uint64_t Corpus::TextBytes() const {
  uint64_t bytes = 0;
  for (const std::string& text : texts) bytes += text.size();
  return bytes;
}

Corpus MakeCorpus(const bytebrain::DatasetSpec& spec, size_t records,
                  bool preamble, uint64_t seed) {
  // The generator's salt picks the template set and, with the record
  // order, what a first training sees and how clustering splits; both
  // move parse cost and grouping widely. So the canonical LogHub-2.0
  // records keep their templates and order, and the seed changes only
  // values: digits 1-9 go through a seeded permutation (duplicates stay
  // duplicates, token shapes stay the same; 0 is kept so hex prefixes
  // and leading zeros do too), and preambles are drawn from the seed.
  bytebrain::GenOptions gen;
  gen.num_logs = records;
  gen.num_templates = spec.loghub2_templates;
  gen.seed_salt = 2;
  bytebrain::Dataset ds = bytebrain::DatasetGenerator(spec).Generate(gen);
  bytebrain::Rng rng(bytebrain::HashCombine(seed, spec.seed + 1));
  char digits[10] = {'0', '1', '2', '3', '4', '5', '6', '7', '8', '9'};
  for (size_t i = 1; i < 9; ++i) {
    std::swap(digits[i], digits[i + rng.NextBelow(10 - i)]);
  }
  for (bytebrain::LabeledLog& log : ds.logs) {
    for (char& c : log.text) {
      if (c >= '1' && c <= '9') c = digits[c - '0'];
    }
    if (preamble) {
      log.text = bytebrain::RenderPreamble(spec.preamble, &rng) + log.text;
    }
  }
  Corpus corpus;
  corpus.name = spec.name;
  corpus.texts.reserve(ds.logs.size());
  corpus.labels.reserve(ds.logs.size());
  for (bytebrain::LabeledLog& log : ds.logs) {
    corpus.texts.push_back(std::move(log.text));
    corpus.labels.push_back(log.gt_template);
  }
  return corpus;
}

const bytebrain::DatasetSpec& SpecNamed(const std::string& name) {
  const bytebrain::DatasetSpec* spec = bytebrain::FindDatasetSpec(name);
  if (spec == nullptr) throw std::runtime_error("unknown dataset " + name);
  return *spec;
}

uint64_t DirectoryBytes(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return 0;
  uint64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const uint64_t size = it->file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request_id\":" << s.request_id << "}\n";
  }
  return static_cast<bool>(out);
}

bytebrain::TopicConfig DurableTopicConfig() {
  bytebrain::TopicConfig config;
  config.storage.kind = bytebrain::StorageConfig::Kind::kSegmentedDisk;
  config.durability = bytebrain::DurabilityMode::kWalGroupCommit;
  return config;
}

}  // namespace perfbench
