// ingest_durable: closed-loop IngestBatch over real loopback sockets into
// 2 tenants x 2 disk topics with group-commit WALs — the ack-means-
// durable request path from socket read to the fsync wait and back.
// Each of 4 connections feeds one topic one LogHub-2.0 corpus (with
// preambles), pipelining 512-record batches with 4 in flight.
#include <malloc.h>

#include <deque>
#include <filesystem>
#include <memory>

#include "api/frontend.h"
#include "common.h"
#include "net/client.h"
#include "net/tcp_server.h"

namespace perfbench {
namespace {

namespace api = bytebrain::api;
namespace net = bytebrain::net;

struct TopicPlan {
  const char* tenant;
  const char* name;
  const char* spec;
};

// High- and low-duplicate corpora with the slowest parses of Fig. 6.
constexpr TopicPlan kTopics[] = {{"t0", "hdfs", "HDFS"},
                                 {"t0", "bgl", "BGL"},
                                 {"t1", "spark", "Spark"},
                                 {"t1", "thunderbird", "Thunderbird"}};
constexpr size_t kNumTopics = sizeof(kTopics) / sizeof(kTopics[0]);
constexpr int kWindow = 4;

struct Feed {
  Corpus corpus;
  AckedSeqs acked;
  size_t next = 0;  // next corpus record to send (wraps around)
};

/// One set-up instance: frontend, server, topics and their feeds. The
/// server is declared after the frontend so it shuts down first.
struct Rig {
  std::string dir;
  std::unique_ptr<api::ServiceFrontend> frontend;
  std::unique_ptr<net::TcpServer> server;
  std::vector<Feed> feeds;

  ~Rig() {
    server.reset();
    frontend.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }

  std::shared_ptr<bytebrain::ManagedTopic> Topic(size_t i) const {
    auto topic = frontend->service()->GetTopic(std::string(kTopics[i].tenant) +
                                               "/" + kTopics[i].name);
    return topic.ok() ? topic.value() : nullptr;
  }
};

size_t BatchSize(const Options& opt) { return opt.tiny ? 64 : 512; }

/// The next batch of a feed: `n` records from `start`, wrapping.
Batch NextBatch(Feed* feed, size_t n, size_t* start) {
  Batch batch;
  *start = feed->next;
  const size_t size = feed->corpus.texts.size();
  for (size_t k = 0; k < n; ++k) {
    batch.texts.push_back(feed->corpus.texts[(feed->next + k) % size]);
  }
  feed->next = (feed->next + n) % size;
  return batch;
}

std::unique_ptr<Rig> SetUp(const Options& opt, int rep) {
  auto rig = std::make_unique<Rig>();
  rig->dir = opt.tmp_dir + "/ingest-" + std::to_string(rep);
  std::filesystem::remove_all(rig->dir);
  api::FrontendConfig fc;
  fc.storage_root = rig->dir;
  rig->frontend = std::make_unique<api::ServiceFrontend>(fc);
  const size_t records = opt.tiny ? 3000 : 100000;
  const bytebrain::TopicConfig config = DurableTopicConfig();
  for (size_t i = 0; i < kNumTopics; ++i) {
    Feed feed;
    feed.corpus = MakeCorpus(SpecNamed(kTopics[i].spec), records, true,
                             opt.seed + i);
    api::CreateTopicRequest create;
    create.name = kTopics[i].name;
    create.config = config;
    api::CreateTopicResponse created;
    const bytebrain::Status s =
        rig->frontend->CreateTopic(kTopics[i].tenant, create, &created);
    if (!s.ok()) throw std::runtime_error("create topic: " + s.ToString());
    // The first training happens here, not in the timed window.
    api::IngestBatchRequest first;
    first.topic = kTopics[i].name;
    const size_t n = config.initial_train_records;
    first.texts.assign(feed.corpus.texts.begin(),
                       feed.corpus.texts.begin() + n);
    api::IngestBatchResponse resp;
    const bytebrain::Status ingested =
        rig->frontend->IngestBatch(kTopics[i].tenant, std::move(first), &resp);
    if (!ingested.ok() || resp.seqs.size() != n) {
      throw std::runtime_error("initial ingest: " + ingested.ToString());
    }
    for (size_t k = 0; k < n; ++k) {
      feed.acked.Set(resp.seqs[k], feed.corpus.labels[k]);
    }
    feed.next = n;
    rig->feeds.push_back(std::move(feed));
  }
  for (size_t i = 0; i < kNumTopics; ++i) {
    auto topic = rig->Topic(i);
    if (topic == nullptr || !topic->trained()) {
      throw std::runtime_error("topic not trained after set-up");
    }
  }
  net::TcpServerConfig sc;
  sc.num_workers = static_cast<int>(kNumTopics);
  rig->server = std::make_unique<net::TcpServer>(rig->frontend.get(), sc);
  const bytebrain::Status started = rig->server->Start();
  if (!started.ok()) throw std::runtime_error(started.ToString());
  return rig;
}

struct Inflight {
  uint64_t send_ns = 0;
  size_t start = 0;
  size_t n = 0;
  uint64_t request_id = 0;
};

/// One connection's closed loop: keep kWindow batches in flight until
/// the deadline, then drain.
void DriveConnection(const Options& opt, const Rig& rig, size_t topic,
                     Feed* feed, uint64_t deadline_ns,
                     std::vector<OpSample>* ops, std::vector<Span>* spans) {
  net::NetClient client;
  if (!client.Connect("127.0.0.1", rig.server->port()).ok()) {
    ops->push_back({NowNs(), kFailedLatencyMs, 0, true});
    return;
  }
  const size_t batch_size = BatchSize(opt);
  const size_t corpus_size = feed->corpus.texts.size();
  std::deque<Inflight> inflight;
  bool broken = false;
  while (!broken && (NowNs() < deadline_ns || !inflight.empty())) {
    while (NowNs() < deadline_ns && inflight.size() < kWindow) {
      Inflight f;
      Batch batch = NextBatch(feed, batch_size, &f.start);
      f.n = batch.texts.size();
      api::IngestBatchRequestView view;
      view.topic = kTopics[topic].name;
      view.texts = std::move(batch.texts);
      f.send_ns = NowNs();
      auto id = client.SendRequest(api::ApiMethod::kIngestBatch,
                                   kTopics[topic].tenant, view);
      if (!id.ok()) {
        ops->push_back({NowNs(), kFailedLatencyMs, 0, true});
        broken = true;
        break;
      }
      f.request_id = id.value();
      inflight.push_back(f);
    }
    if (inflight.empty()) break;
    const Inflight f = inflight.front();
    inflight.pop_front();
    api::IngestBatchResponse resp;
    const bytebrain::Status s = client.ReadResponse(&resp);
    const uint64_t now = NowNs();
    OpSample op{now, static_cast<double>(now - f.send_ns) / 1e6, 0, false};
    if (s.ok() && resp.seqs.size() == f.n) {
      for (size_t k = 0; k < f.n; ++k) {
        feed->acked.Set(resp.seqs[k],
                        feed->corpus.labels[(f.start + k) % corpus_size]);
      }
      op.items = f.n;
    } else {
      op.failed = true;
      broken = s.IsIOError();
    }
    ops->push_back(op);
    if (spans != nullptr) {
      spans->push_back({"client.ingest_batch", f.send_ns, now, -1,
                        f.request_id});
    }
  }
  // A broken connection fails whatever it still had in flight.
  for (size_t k = 0; k < inflight.size(); ++k) {
    ops->push_back({NowNs(), kFailedLatencyMs, 0, true});
  }
}

Phase IngestPhase(const Options& opt, Rig* rig, double seconds,
                  uint64_t corpus_bytes, SpanLog* spans) {
  Phase phase;
  phase.corpus_bytes = corpus_bytes;
  std::vector<std::vector<OpSample>> ops(kNumTopics);
  std::vector<std::vector<Span>> thread_spans(kNumTopics);
  {
    RssSampler rss(&phase.rss);
    phase.begin_ns = NowNs();
    const uint64_t deadline =
        phase.begin_ns + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kNumTopics; ++i) {
      threads.emplace_back([&, i] {
        DriveConnection(opt, *rig, i, &rig->feeds[i], deadline, &ops[i],
                        spans != nullptr ? &thread_spans[i] : nullptr);
      });
    }
    for (std::thread& t : threads) t.join();
    phase.end_ns = NowNs();
  }
  for (size_t i = 0; i < kNumTopics; ++i) {
    phase.ops.insert(phase.ops.end(), ops[i].begin(), ops[i].end());
    if (spans != nullptr) spans->Append(thread_spans[i]);
  }
  phase.SliceByTime();
  return phase;
}

}  // namespace

void RunIngest(const Options& opt, SpanLog* spans, Report* report) {
  std::unique_ptr<Rig> rig;
  const double setup_s = MedianSetup(opt.trace ? 1 : 5, [&](int rep) {
    rig.reset();
    ::malloc_trim(0);
    const uint64_t t0 = NowNs();
    rig = SetUp(opt, rep);
    return static_cast<double>(NowNs() - t0) / 1e9;
  });
  uint64_t corpus_bytes = 0;
  for (const Feed& feed : rig->feeds) corpus_bytes += feed.corpus.HeapBytes();

  const double window = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Phase phase = IngestPhase(opt, rig.get(), window, corpus_bytes, nullptr);
  Phase traced;
  if (opt.trace) traced = IngestPhase(opt, rig.get(), window, corpus_bytes, spans);
  const Summary s = Summarize(phase, false);

  if (opt.corrupt == Corrupt::kDropAck) rig->feeds[0].acked.Drop(1);

  // Output checks and service-path accuracy, after the window.
  std::vector<bytebrain::TopicStats> stats;
  double ga = 0;
  uint64_t input_bytes = 0;
  for (size_t i = 0; i < kNumTopics; ++i) {
    auto topic = rig->Topic(i);
    if (topic == nullptr) throw std::runtime_error("topic vanished");
    topic->WaitForPendingTraining();
    api::GetStatsRequest get;
    get.topic = kTopics[i].name;
    api::GetStatsResponse got;
    report->Check(rig->frontend->GetStats(kTopics[i].tenant, get, &got).ok(),
                  "ingest_durable: GetStats failed");
    const bytebrain::TopicStats& s = got.stats;
    const std::string name = kTopics[i].name;
    report->Check(rig->feeds[i].acked.Contiguous(s.ingested_records),
                  "ingest_durable: acked sequence numbers of " + name +
                      " are not exactly [0, ingested_records=" +
                      std::to_string(s.ingested_records) + ")");
    report->Check(s.storage_index_rebuilds == 0,
                  "ingest_durable: index rebuilds on " + name);
    report->Check(s.storage_ok, "ingest_durable: storage degraded on " + name);
    const double topic_ga =
        ServiceGroupingAccuracy(*topic, rig->feeds[i].acked.labels(), report);
    report->Info("ingest_ga." + name, topic_ga, "fraction");
    ga += topic_ga / kNumTopics;
    input_bytes += s.ingested_bytes;
    stats.push_back(s);
  }
  const double disk_ratio = static_cast<double>(DirectoryBytes(rig->dir)) /
                            static_cast<double>(input_bytes);

  report->attempted += phase.ops.size() + traced.ops.size();
  report->failed += phase.Failed() + traced.Failed();
  report->Info("topics", kNumTopics, "topics");
  report->Info("records_per_corpus",
               static_cast<double>(rig->feeds[0].corpus.texts.size()), "logs");
  report->Info("batch_records", static_cast<double>(BatchSize(opt)), "logs");
  report->Info("ingest_logs_per_s", s.rate, "logs/s");
  report->Info("ingest_batch_p50_ms", s.p50_ms, "ms");
  report->Info("ingest_batch_p99_ms", s.p99_ms, "ms");
  report->Info("ingest_ga", ga, "fraction");
  report->Info("disk_bytes_per_input_byte", disk_ratio, "ratio");
  report->Info("peak_rss_mb", s.peak_rss_mb, "MB");
  if (!opt.trace) {
    ReportEndToEnd(s, phase.ops.size(), setup_s, ga, report);
    return;
  }

  ReportTraceOverhead(s, Summarize(traced, false), report);
  uint64_t batches = 0;
  uint64_t records = 0;
  for (const Phase* p : std::initializer_list<const Phase*>{&phase, &traced}) {
    for (const OpSample& op : p->ops) {
      batches += op.failed ? 0 : 1;
      records += op.items;
    }
  }
  report->layer["gen.lateness_ms"] = {0, "ms"};
  report->layer["gen.mixed_ingest_p99_ms"] = {0, "ms"};

  // Replay the stream as the connections sent it: one batch per topic
  // in turn, from the first record after set-up.
  const size_t cap = opt.tiny ? 2048 : 65536;
  std::vector<Batch> stream;
  for (size_t i = 0; i < kNumTopics; ++i) {
    rig->feeds[i].next = DurableTopicConfig().initial_train_records;
  }
  for (size_t taken = 0; taken < cap;) {
    for (size_t i = 0; i < kNumTopics && taken < cap; ++i) {
      size_t start = 0;
      stream.push_back(NextBatch(&rig->feeds[i], BatchSize(opt), &start));
      taken += stream.back().texts.size();
    }
  }
  ReplayLayers(opt, DurableTopicConfig(), stream, s.p50_ms,
               /*measure_queries=*/true, spans, report);
  // The workload's own topics and server carry the service, logstore
  // and net counters of the real run.
  ReportTopicCounters(stats, batches, 0, report);
  const net::TcpServerStats net_stats = rig->server->stats();
  report->layer["net.bytes_per_record"] = {
      static_cast<double>(net_stats.bytes_read + net_stats.bytes_written) /
          static_cast<double>(records),
      "B"};
  report->layer["net.watermark_pauses"] = {
      static_cast<double>(net_stats.watermark_pauses), "count"};
  report->layer["net.throttle_pauses"] = {
      static_cast<double>(net_stats.throttle_pauses), "count"};
  report->layer["logstore.disk_bytes_per_input_byte"] = {disk_ratio, "ratio"};
}

}  // namespace perfbench
