// query_mixed: index-backed reads beside writes. Set-up preloads one disk
// topic with a Hadoop corpus to many sealed segments (with
// timestamps) under a segment-cache budget below the sealed bytes, and
// trains it once over the whole preload. In the window, 3 closed-loop wire
// clients rotate through count-only queries at 0.3/0.6/0.9, cursor-paged
// walks with sequence numbers over random windows, and time-range pages
// over the most recent records, while 1 open-loop client sends batches
// at a fixed rate into the same topic.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <memory>

#include "api/frontend.h"
#include "common.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace api = bytebrain::api;
namespace net = bytebrain::net;

constexpr const char* kTenant = "q";
constexpr const char* kTopicName = "logs";
constexpr uint64_t kBaseTsUs = 1'700'000'000'000'000ULL;
constexpr uint64_t kTsStepUs = 100;  // 10k records per synthetic second
constexpr int kQueryClients = 3;
constexpr double kThresholds[] = {0.3, 0.6, 0.9};

struct Sizes {
  size_t preload;
  size_t page_window;   // records in a paged walk's window
  uint32_t page_groups;
  uint64_t recent_us;   // time-range window
  uint64_t segment_bytes;
  double batches_per_s;
  size_t batch_records;
};

Sizes SizesFor(const Options& opt) {
  if (opt.tiny) return {6000, 1000, 8, 200'000, 16 * 1024, 20, 32};
  return {150'000, 20'000, 16, 2'000'000, 128 * 1024, 5, 256};
}

uint64_t TimestampOf(uint64_t seq) { return kBaseTsUs + seq * kTsStepUs; }

struct Rig {
  std::string dir;
  Corpus corpus;
  uint64_t cache_budget = 0;
  std::unique_ptr<api::ServiceFrontend> frontend;
  std::unique_ptr<net::TcpServer> server;
  AckedSeqs acked;
  size_t next = 0;  // next corpus record the open-loop client sends

  ~Rig() {
    server.reset();
    frontend.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }

  std::shared_ptr<bytebrain::ManagedTopic> Topic() const {
    auto topic = frontend->service()->GetTopic(std::string(kTenant) + "/" +
                                               kTopicName);
    return topic.ok() ? topic.value() : nullptr;
  }
};

bytebrain::TopicConfig QueryTopicConfig(const Sizes& sizes) {
  bytebrain::TopicConfig config = DurableTopicConfig();
  config.storage.segment_data_bytes = sizes.segment_bytes;
  // The first training runs once over the whole preload: a model built
  // from a prefix leaves the rest to online adoption, and which template
  // a prefix happens to split moves grouping accuracy and query cost
  // from seed to seed. No retraining after it: a training between two
  // pages of a cursor walk may regroup records, and the paged == unpaged
  // check must be exact.
  config.initial_train_records = sizes.preload;
  config.max_train_records = sizes.preload;
  config.train_interval_records = UINT64_MAX / 2;
  config.train_volume_bytes = UINT64_MAX / 2;
  return config;
}

std::unique_ptr<Rig> SetUp(const Options& opt, int rep) {
  const Sizes sizes = SizesFor(opt);
  auto rig = std::make_unique<Rig>();
  rig->dir = opt.tmp_dir + "/query-" + std::to_string(rep);
  std::filesystem::remove_all(rig->dir);
  rig->corpus = MakeCorpus(SpecNamed("Hadoop"), sizes.preload, false, opt.seed);
  api::FrontendConfig fc;
  fc.storage_root = rig->dir;
  // Below the sealed bytes: full-window reads must evict.
  rig->cache_budget = std::max<uint64_t>(rig->corpus.TextBytes() / 4, 1);
  fc.segment_cache_budget_bytes = rig->cache_budget;
  rig->frontend = std::make_unique<api::ServiceFrontend>(fc);
  api::CreateTopicRequest create;
  create.name = kTopicName;
  create.config = QueryTopicConfig(sizes);
  api::CreateTopicResponse created;
  const bytebrain::Status s =
      rig->frontend->CreateTopic(kTenant, create, &created);
  if (!s.ok()) throw std::runtime_error("create topic: " + s.ToString());
  constexpr size_t kPreloadBatch = 4096;
  for (size_t begin = 0; begin < sizes.preload; begin += kPreloadBatch) {
    const size_t end = std::min(sizes.preload, begin + kPreloadBatch);
    api::IngestBatchRequest req;
    req.topic = kTopicName;
    req.texts.assign(rig->corpus.texts.begin() + begin,
                     rig->corpus.texts.begin() + end);
    for (size_t i = begin; i < end; ++i) {
      req.timestamps_us.push_back(TimestampOf(i));
    }
    api::IngestBatchResponse resp;
    const bytebrain::Status ingested =
        rig->frontend->IngestBatch(kTenant, std::move(req), &resp);
    if (!ingested.ok() || resp.seqs.size() != end - begin) {
      throw std::runtime_error("preload: " + ingested.ToString());
    }
    for (size_t k = 0; k < resp.seqs.size(); ++k) {
      rig->acked.Set(resp.seqs[k], rig->corpus.labels[begin + k]);
    }
  }
  auto topic = rig->Topic();
  if (topic == nullptr || !topic->trained()) {
    throw std::runtime_error("query topic not trained after preload");
  }
  net::TcpServerConfig sc;
  sc.num_workers = kQueryClients + 1;
  rig->server = std::make_unique<net::TcpServer>(rig->frontend.get(), sc);
  const bytebrain::Status started = rig->server->Start();
  if (!started.ok()) throw std::runtime_error(started.ToString());
  return rig;
}

struct QueryThreadResult {
  std::vector<OpSample> ops;
  std::vector<Span> spans;
  std::vector<std::string> errors;
};

/// One closed-loop query client.
void QueryClient(const Options& opt, const Rig& rig, int client_index,
                 uint64_t deadline_ns, const std::atomic<uint64_t>& newest_ts,
                 bool trace, QueryThreadResult* out) {
  const Sizes sizes = SizesFor(opt);
  net::NetClient client;
  if (!client.Connect("127.0.0.1", rig.server->port()).ok()) {
    out->ops.push_back({NowNs(), kFailedLatencyMs, 0, true});
    return;
  }
  bytebrain::Rng rng(bytebrain::HashCombine(opt.seed, client_index + 1));
  uint64_t request_id = 0;
  // One request; returns false when it failed.
  const auto call = [&](const api::QueryRequest& req,
                        api::QueryResponse* resp) {
    const uint64_t t0 = NowNs();
    const bytebrain::Status s =
        client.Call(api::ApiMethod::kQuery, kTenant, req, resp);
    const uint64_t t1 = NowNs();
    out->ops.push_back(
        {t1, static_cast<double>(t1 - t0) / 1e6, 1, !s.ok()});
    if (trace) {
      out->spans.push_back({"client.query", t0, t1, -1,
                            (static_cast<uint64_t>(client_index) << 48) |
                                ++request_id});
    }
    if (s.ok() && resp->groups.empty()) {
      out->errors.push_back("query_mixed: a query returned no groups");
    }
    return s.ok();
  };
  const auto sum_counts = [](const api::QueryResponse& resp) {
    uint64_t total = 0;
    for (const bytebrain::TemplateGroup& g : resp.groups) total += g.count;
    return total;
  };

  for (uint64_t round = client_index; NowNs() < deadline_ns; ++round) {
    api::QueryRequest req;
    req.topic = kTopicName;
    req.saturation_threshold = kThresholds[(round / 3) % 3];
    switch (round % 3) {
      case 0: {  // count-only over the whole topic
        req.include_sequence_numbers = false;
        api::QueryResponse resp;
        call(req, &resp);
        break;
      }
      case 1: {  // cursor-paged walk with sequences, then the unpaged count
        const uint64_t begin =
            rng.NextBelow(sizes.preload - sizes.page_window);
        req.begin_seq = begin;
        req.end_seq = begin + sizes.page_window;
        req.max_groups = sizes.page_groups;
        uint64_t paged = 0;
        bool ok = true;
        for (int page = 0;; ++page) {
          api::QueryResponse resp;
          if (!call(req, &resp)) {
            ok = false;
            break;
          }
          const uint64_t counted = sum_counts(resp);
          if (!(opt.corrupt == Corrupt::kDropPage && page == 1)) {
            paged += counted;
          }
          uint64_t seqs = 0;
          for (const auto& g : resp.groups) seqs += g.sequence_numbers.size();
          if (seqs != counted) {
            out->errors.push_back(
                "query_mixed: page sequence numbers disagree with counts");
          }
          if (resp.next_cursor.empty()) break;
          req.cursor = resp.next_cursor;
        }
        api::QueryRequest whole;
        whole.topic = kTopicName;
        whole.saturation_threshold = req.saturation_threshold;
        whole.begin_seq = req.begin_seq;
        whole.end_seq = req.end_seq;
        whole.include_sequence_numbers = false;
        api::QueryResponse resp;
        if (call(whole, &resp) && ok && sum_counts(resp) != paged) {
          out->errors.push_back(
              "query_mixed: paged counts " + std::to_string(paged) +
              " != unpaged " + std::to_string(sum_counts(resp)));
        }
        break;
      }
      default: {  // the most recent records, first page
        req.min_timestamp_us = newest_ts.load() - sizes.recent_us;
        req.max_groups = sizes.page_groups;
        api::QueryResponse resp;
        call(req, &resp);
        break;
      }
    }
  }
}

struct Scheduled {
  uint64_t due_ns = 0;
  size_t start = 0;
  size_t n = 0;
  uint64_t request_id = 0;
};

/// The open-loop writer: batch i is due at begin + i / rate, sent when
/// due whatever the state of earlier ones; latency counts from the due
/// time.
void OpenLoopWriter(const Options& opt, Rig* rig, uint64_t begin_ns,
                    uint64_t deadline_ns, std::atomic<uint64_t>* newest_ts,
                    bool trace, std::vector<OpSample>* ops,
                    std::vector<double>* lateness_ms,
                    std::vector<Span>* spans) {
  const Sizes sizes = SizesFor(opt);
  net::NetClient client;
  if (!client.Connect("127.0.0.1", rig->server->port()).ok()) {
    ops->push_back({NowNs(), kFailedLatencyMs, 0, true});
    return;
  }
  const double period_ns = 1e9 / sizes.batches_per_s;
  const size_t corpus_size = rig->corpus.texts.size();
  std::deque<Scheduled> inflight;
  bool broken = false;
  for (uint64_t i = 0; !broken;) {
    const uint64_t due =
        begin_ns + static_cast<uint64_t>(static_cast<double>(i) * period_ns);
    const uint64_t now = NowNs();
    if (due < deadline_ns && due <= now) {
      Scheduled s;
      s.due_ns = due;
      s.start = rig->next;
      s.n = sizes.batch_records;
      api::IngestBatchRequestView view;
      view.topic = kTopicName;
      const uint64_t first_seq = rig->acked.labels().size() +
                                 (inflight.size() * sizes.batch_records);
      for (size_t k = 0; k < s.n; ++k) {
        view.texts.push_back(rig->corpus.texts[(rig->next + k) % corpus_size]);
        view.timestamps_us.push_back(TimestampOf(first_seq + k));
      }
      rig->next = (rig->next + s.n) % corpus_size;
      lateness_ms->push_back(static_cast<double>(NowNs() - due) / 1e6);
      auto id = client.SendRequest(api::ApiMethod::kIngestBatch, kTenant, view);
      if (!id.ok()) {
        ops->push_back({NowNs(), kFailedLatencyMs, 0, true});
        broken = true;
        break;
      }
      s.request_id = id.value();
      inflight.push_back(s);
      ++i;
      continue;
    }
    if (!inflight.empty()) {
      const Scheduled s = inflight.front();
      inflight.pop_front();
      api::IngestBatchResponse resp;
      const bytebrain::Status st = client.ReadResponse(&resp);
      const uint64_t done = NowNs();
      OpSample op{done, static_cast<double>(done - s.due_ns) / 1e6, 0, false};
      if (st.ok() && resp.seqs.size() == s.n) {
        for (size_t k = 0; k < s.n; ++k) {
          rig->acked.Set(resp.seqs[k],
                         rig->corpus.labels[(s.start + k) % corpus_size]);
        }
        newest_ts->store(TimestampOf(resp.seqs.back()));
        op.items = s.n;
      } else {
        op.failed = true;
        broken = st.IsIOError();
      }
      ops->push_back(op);
      if (trace) {
        spans->push_back({"client.ingest_batch", s.due_ns, done, -1,
                          s.request_id});
      }
      continue;
    }
    if (due >= deadline_ns) break;
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
  }
  for (size_t k = 0; k < inflight.size(); ++k) {
    ops->push_back({NowNs(), kFailedLatencyMs, 0, true});
  }
}

struct QueryPhase {
  Phase queries;
  std::vector<OpSample> writes;
  std::vector<double> lateness_ms;
};

QueryPhase RunWindow(const Options& opt, Rig* rig, double seconds,
                     SpanLog* spans, Report* report) {
  QueryPhase out;
  std::vector<QueryThreadResult> results(kQueryClients);
  std::vector<Span> writer_spans;
  std::atomic<uint64_t> newest_ts{TimestampOf(rig->acked.labels().size() - 1)};
  out.queries.corpus_bytes = rig->corpus.HeapBytes();
  {
    RssSampler rss(&out.queries.rss);
    const uint64_t begin = NowNs();
    const uint64_t deadline = begin + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (int c = 0; c < kQueryClients; ++c) {
      threads.emplace_back([&, c] {
        QueryClient(opt, *rig, c, deadline, newest_ts, spans != nullptr,
                    &results[c]);
      });
    }
    threads.emplace_back([&] {
      OpenLoopWriter(opt, rig, begin, deadline, &newest_ts, spans != nullptr,
                     &out.writes, &out.lateness_ms, &writer_spans);
    });
    for (std::thread& t : threads) t.join();
    out.queries.begin_ns = begin;
    out.queries.end_ns = NowNs();
  }
  out.queries.SliceByTime();
  for (QueryThreadResult& r : results) {
    out.queries.ops.insert(out.queries.ops.end(), r.ops.begin(), r.ops.end());
    for (const std::string& e : r.errors) report->Check(false, e);
    if (spans != nullptr) spans->Append(r.spans);
  }
  if (spans != nullptr) spans->Append(writer_spans);
  return out;
}

}  // namespace

void RunQuery(const Options& opt, SpanLog* spans, Report* report) {
  const Sizes sizes = SizesFor(opt);
  std::unique_ptr<Rig> rig;
  const double setup_s = MedianSetup(opt.trace ? 1 : 3, [&](int rep) {
    rig.reset();
    ::malloc_trim(0);
    const uint64_t t0 = NowNs();
    rig = SetUp(opt, rep);
    return static_cast<double>(NowNs() - t0) / 1e9;
  });
  auto topic = rig->Topic();
  const bytebrain::TopicStats before = topic->stats();

  const double window = opt.trace ? opt.seconds / 2 : opt.seconds;
  const QueryPhase phase = RunWindow(opt, rig.get(), window, nullptr, report);
  QueryPhase traced;
  if (opt.trace) traced = RunWindow(opt, rig.get(), window, spans, report);
  const Summary s = Summarize(phase.queries, true);
  const std::vector<double> write_ms = LatenciesMs(phase.writes);

  topic->WaitForPendingTraining();
  const bytebrain::TopicStats after = topic->stats();
  report->Check(rig->acked.Contiguous(after.ingested_records),
                "query_mixed: acked sequence numbers are not exactly [0, "
                "ingested_records=" +
                    std::to_string(after.ingested_records) + ")");
  report->Check(after.storage_index_rebuilds == 0,
                "query_mixed: index rebuilds");
  report->Check(after.storage_ok, "query_mixed: storage degraded");
  std::vector<uint32_t> preload_labels(
      rig->acked.labels().begin(),
      rig->acked.labels().begin() + static_cast<ptrdiff_t>(sizes.preload));
  const double ga = ServiceGroupingAccuracy(*topic, preload_labels, report);

  const uint64_t queries = phase.queries.ops.size() + traced.queries.ops.size();
  report->attempted += queries + phase.writes.size() + traced.writes.size();
  report->failed += phase.queries.Failed() + traced.queries.Failed();
  for (const OpSample& op : phase.writes) report->failed += op.failed ? 1 : 0;
  for (const OpSample& op : traced.writes) report->failed += op.failed ? 1 : 0;
  report->Info("preload_records", static_cast<double>(sizes.preload), "logs");
  report->Info("sealed_segments",
               static_cast<double>(after.storage_sealed_segments), "segments");
  report->Info("segment_cache_budget_bytes",
               static_cast<double>(rig->cache_budget), "B");
  report->Info("open_loop_rate",
               sizes.batches_per_s * static_cast<double>(sizes.batch_records),
               "logs/s");
  report->Info("queries_per_s", s.rate, "queries/s");
  report->Info("query_p50_ms", s.p50_ms, "ms");
  report->Info("query_p99_ms", s.p99_ms, "ms");
  report->Info("mixed_ingest_p50_ms", Percentile(write_ms, 0.50), "ms");
  report->Info("mixed_ingest_p99_ms", Percentile(write_ms, 0.99), "ms");
  report->Info("gen.lateness_p99_ms", Percentile(phase.lateness_ms, 0.99),
               "ms");
  report->Info("query_ga", ga, "fraction");
  report->Info("peak_rss_mb", s.peak_rss_mb, "MB");
  if (!opt.trace) {
    ReportEndToEnd(s, phase.queries.ops.size(), setup_s, ga, report);
    return;
  }

  ReportTraceOverhead(s, Summarize(traced.queries, true), report);
  report->layer["gen.lateness_ms"] = {Percentile(phase.lateness_ms, 0.99),
                                      "ms"};
  report->layer["gen.mixed_ingest_p99_ms"] = {Percentile(write_ms, 0.99),
                                              "ms"};

  // The replayed stream is the open-loop writer's: corpus records from
  // the start, in its batch size, with its timestamps.
  const size_t cap = opt.tiny ? 2048 : 65536;
  std::vector<Batch> stream;
  for (size_t i = 0; i < cap && i < rig->corpus.texts.size(); ++i) {
    if (stream.empty() || stream.back().texts.size() == sizes.batch_records) {
      stream.emplace_back();
    }
    stream.back().texts.push_back(rig->corpus.texts[i]);
    stream.back().timestamps_us.push_back(TimestampOf(i));
  }
  bytebrain::TopicConfig replay_config = QueryTopicConfig(sizes);
  replay_config.initial_train_records =
      DurableTopicConfig().initial_train_records;
  ReplayLayers(opt, replay_config, stream, Percentile(write_ms, 0.50),
               /*measure_queries=*/false, spans, report);

  // Query-path counters come from the workload's own topic: its window
  // is what exercises the cache budget.
  uint64_t mix_queries = 0;
  report->layer["service.query_groups_us"] = {
      QueryMixUs(*topic, 8, TimestampOf(sizes.preload) - sizes.recent_us,
                 &mix_queries),
      "us"};
  bytebrain::TopicStats delta = topic->stats();
  delta.storage_cache_hits -= before.storage_cache_hits;
  delta.storage_cache_misses -= before.storage_cache_misses;
  delta.storage_cache_evictions -= before.storage_cache_evictions;
  delta.storage_scan_record_visits -= before.storage_scan_record_visits;
  delta.wal_group_commits -= before.wal_group_commits;
  delta.wal_fsyncs -= before.wal_fsyncs;
  ReportTopicCounters({delta}, phase.writes.size() + traced.writes.size(),
                      queries + mix_queries, report);
  const net::TcpServerStats net_stats = rig->server->stats();
  const double records =
      static_cast<double>(after.ingested_records - before.ingested_records);
  report->layer["net.bytes_per_record"] = {
      static_cast<double>(net_stats.bytes_read + net_stats.bytes_written) /
          std::max(1.0, records),
      "B"};
  report->layer["net.watermark_pauses"] = {
      static_cast<double>(net_stats.watermark_pauses), "count"};
  report->layer["net.throttle_pauses"] = {
      static_cast<double>(net_stats.throttle_pauses), "count"};
}

}  // namespace perfbench
