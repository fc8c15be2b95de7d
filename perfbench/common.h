// Shared pieces of the perfbench driver: options, the per-run report,
// timed windows and their summaries, the RSS sampler, corpora, in-memory
// spans, and the per-thread allocation counter (alloc_counter.cc).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/generator.h"
#include "service/log_service.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Deliberate output corruption, used by the self-test to prove that the
/// output checks can fail.
enum class Corrupt { kNone, kDropAck, kDropPage, kScrambleGroups };

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny corpora and windows: the self-test's sizes.
  bool tiny = false;
  Corrupt corrupt = Corrupt::kNone;
  /// Scratch directory for topic storage; removed at exit.
  std::string tmp_dir;
  /// Where the traced run writes its spans (JSON lines).
  std::string spans_out;
};

/// Everything one run reports. End-to-end metrics go to `e2e`, the
/// traced run's layer metrics to `layer`; `info` lines are printed for
/// the reader (the workload's own metric names, sizes, budgets).
struct Report {
  std::map<std::string, std::pair<double, std::string>> e2e;
  std::map<std::string, std::pair<double, std::string>> layer;
  std::vector<std::string> info;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void Info(const std::string& name, double value, const std::string& unit);
};

/// One timed operation as seen by its caller. Failed operations stay in
/// the sample: they count as missing any latency limit.
struct OpSample {
  uint64_t end_ns = 0;
  double latency_ms = 0;
  uint64_t items = 0;  // records or logs the operation completed
  bool failed = false;
};

/// Latency a failed operation is counted with: longer than any run, so
/// it misses every limit.
inline constexpr double kFailedLatencyMs = 1e6;

/// One timed window of a workload, cut into partitions: equal time
/// slices, or the parse workload's passes. Every figure a window reports
/// is the median over its partitions, so one retrain, fsync stall or
/// slow pass moves it less than a whole-window number would.
struct Phase {
  std::vector<OpSample> ops;
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  /// Partition ends, ascending; the last one is end_ns.
  std::vector<uint64_t> cuts;
  /// (time, resident bytes) samples taken during the window.
  std::vector<std::pair<uint64_t, uint64_t>> rss;
  /// Heap bytes of the pre-generated corpus, left out of the peak RSS.
  uint64_t corpus_bytes = 0;

  /// Cuts [begin_ns, end_ns) into whole-second slices.
  void SliceByTime();
  uint64_t Failed() const;
};

struct Summary {
  double rate = 0;  // items (or operations) per second
  double p50_ms = 0;
  double p99_ms = 0;
  double peak_rss_mb = 0;
};

/// Medians over the phase's partitions. `count_ops` rates operations
/// instead of the items they completed.
Summary Summarize(const Phase& phase, bool count_ops);

/// Records the end-to-end metrics every workload reports from its
/// untraced window; `ga` is its grouping accuracy.
void ReportEndToEnd(const Summary& s, uint64_t samples, double setup_s,
                    double ga, Report* report);

/// The traced window's slowdown against the untraced one.
void ReportTraceOverhead(const Summary& untraced, const Summary& traced,
                         Report* report);

/// Nearest-rank percentile of an unsorted sample (copied, then sorted).
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Latencies of `ops`, failed ones at kFailedLatencyMs.
std::vector<double> LatenciesMs(const std::vector<OpSample>& ops);

/// Appends (time, resident bytes) to `*out` every few milliseconds on
/// its own thread while alive.
class RssSampler {
 public:
  explicit RssSampler(std::vector<std::pair<uint64_t, uint64_t>>* out);
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::pair<uint64_t, uint64_t>>* out_;
  std::thread thread_;
};

/// A generated LogHub-2.0 corpus: record texts and their ground-truth
/// template labels.
struct Corpus {
  std::string name;
  std::vector<std::string> texts;
  std::vector<uint32_t> labels;

  /// Heap bytes the corpus occupies, so the peak RSS can exclude it.
  uint64_t HeapBytes() const;
  uint64_t TextBytes() const;
};

/// `records` records of a LogHub-2.0 spec with its Table-1 template
/// count, their values (and preambles) drawn from the run seed.
Corpus MakeCorpus(const bytebrain::DatasetSpec& spec, size_t records,
                  bool preamble, uint64_t seed);
const bytebrain::DatasetSpec& SpecNamed(const std::string& name);

/// Bytes of all regular files under `dir` (0 when absent).
uint64_t DirectoryBytes(const std::string& dir);

/// Allocations made by the calling thread since it started (counting
/// global operator new, alloc_counter.cc).
uint64_t ThreadAllocations();

// --------------------------------------------------------------- spans

/// One span at a layer boundary, recorded by the driver around its own
/// call into the library. `parent` is the index of the span of the same
/// request one boundary further out, or -1.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request_id = 0;
};

/// Spans kept in memory and written out once, at exit.
class SpanLog {
 public:
  int64_t Add(const char* name, uint64_t start_ns, uint64_t end_ns,
              int64_t parent, uint64_t request_id) {
    spans_.push_back({name, start_ns, end_ns, parent, request_id});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Append(const std::vector<Span>& more) {
    spans_.insert(spans_.end(), more.begin(), more.end());
  }
  bool WriteJsonLines(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ workloads

/// A batch stream as the workload sends it: each batch is a run of
/// corpus records. The traced run replays it through every layer.
struct Batch {
  std::vector<std::string_view> texts;
  std::vector<uint64_t> timestamps_us;
};

/// The topic configuration the ingest paths run with (disk segments,
/// group-commit WAL, default training triggers).
bytebrain::TopicConfig DurableTopicConfig();

/// Replays `batches` through the layer boundaries in turn (wire,
/// Dispatch, ManagedTopic::IngestBatch, MatchAll, backend
/// AppendBatch+WaitDurable) and fills the per-layer metrics. Spans of
/// every boundary are added to `spans`. `e2e_batch_ms` is the untraced
/// end-to-end time of one batch the self-time coverage is taken against.
void ReplayLayers(const Options& opt, const bytebrain::TopicConfig& config,
                  const std::vector<Batch>& batches, double e2e_batch_ms,
                  bool measure_queries, SpanLog* spans, Report* report);

/// Per-layer counters read from topic stats (service and logstore
/// layers), summed over `stats`. `batches` and `queries` are the
/// operations the counters are divided by.
void ReportTopicCounters(const std::vector<bytebrain::TopicStats>& stats,
                         uint64_t batches, uint64_t queries, Report* report);

/// A fixed mix of index-backed queries against one topic: count-only at
/// thresholds 0.3/0.6/0.9, cursor-paged walks with sequence numbers,
/// and a time-range page. Returns the mean QueryGroups time in
/// microseconds and the number of calls made.
double QueryMixUs(const bytebrain::ManagedTopic& topic, int rounds,
                  uint64_t min_timestamp_us, uint64_t* queries);

/// Acknowledged sequence numbers of one topic, each with the generator
/// label of the record it stores.
class AckedSeqs {
 public:
  static constexpr uint32_t kMissing = UINT32_MAX;
  void Set(uint64_t seq, uint32_t label) {
    if (seq >= labels_.size()) labels_.resize(seq + 1, kMissing);
    labels_[seq] = label;
  }
  /// Forgets one ack (the self-test's corruption).
  void Drop(uint64_t seq) {
    if (seq < labels_.size()) labels_[seq] = kMissing;
  }
  /// True when the acks are exactly [0, ingested).
  bool Contiguous(uint64_t ingested) const;
  const std::vector<uint32_t>& labels() const { return labels_; }

 private:
  std::vector<uint32_t> labels_;
};

/// Grouping accuracy of the stored records [0, labels.size()) queried
/// at 0.45 with sequence numbers, against the generator labels.
double ServiceGroupingAccuracy(const bytebrain::ManagedTopic& topic,
                               const std::vector<uint32_t>& labels,
                               Report* report);

void RunParse(const Options& opt, SpanLog* spans, Report* report);
void RunIngest(const Options& opt, SpanLog* spans, Report* report);
void RunQuery(const Options& opt, SpanLog* spans, Report* report);

/// Median of the set-up times of `reps` repetitions; `setup(i)` returns
/// the seconds repetition i took and keeps only the last repetition's
/// state.
template <typename Fn>
double MedianSetup(int reps, Fn&& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) times.push_back(setup(i));
  return Median(times);
}

}  // namespace perfbench
