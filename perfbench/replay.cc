// The traced run's layer replay: the workload's own batch stream goes
// through each layer boundary in turn — wire (NetClient -> TcpServer),
// ServiceFrontend::Dispatch, ManagedTopic::IngestBatch, MatchAll, and the
// storage backend's AppendBatch + WaitDurable — each on a fresh instance
// with the workload's topic configuration. A layer's self time is its
// span minus the next inner boundary's span for the same batches.
#include <algorithm>
#include <filesystem>

#include "api/frontend.h"
#include "common.h"
#include "core/preprocess.h"
#include "eval/metrics.h"
#include "logstore/storage_backend.h"
#include "net/client.h"
#include "net/tcp_server.h"

namespace perfbench {

namespace api = bytebrain::api;
namespace net = bytebrain::net;
using bytebrain::Status;
using bytebrain::TemplateId;

bool AckedSeqs::Contiguous(uint64_t ingested) const {
  if (labels_.size() != ingested) return false;
  return std::find(labels_.begin(), labels_.end(), kMissing) == labels_.end();
}

double ServiceGroupingAccuracy(const bytebrain::ManagedTopic& topic,
                               const std::vector<uint32_t>& labels,
                               Report* report) {
  bytebrain::QueryPageRequest req;
  req.saturation_threshold = 0.45;
  req.begin_seq = 0;
  req.end_seq = labels.size();
  auto page = topic.QueryGroups(req);
  if (!page.ok()) {
    report->Check(false, "grouping query failed: " + page.status().ToString());
    return 0;
  }
  std::vector<uint64_t> predicted(labels.size(), UINT64_MAX);
  for (const bytebrain::TemplateGroup& g : page.value().groups) {
    for (uint64_t seq : g.sequence_numbers) {
      if (seq < predicted.size()) predicted[seq] = g.template_id;
    }
  }
  report->Check(
      std::find(predicted.begin(), predicted.end(), UINT64_MAX) ==
          predicted.end(),
      "a stored record is missing from the grouped query result");
  return bytebrain::GroupingAccuracy(predicted, labels);
}

void ReportTopicCounters(const std::vector<bytebrain::TopicStats>& stats,
                         uint64_t batches, uint64_t queries, Report* report) {
  bytebrain::TopicStats sum;
  for (const bytebrain::TopicStats& s : stats) {
    sum.adopted_templates += s.adopted_templates;
    sum.trainings += s.trainings;
    sum.last_swap_seconds = std::max(sum.last_swap_seconds, s.last_swap_seconds);
    sum.wal_group_commits += s.wal_group_commits;
    sum.wal_fsyncs += s.wal_fsyncs;
    sum.storage_cache_hits += s.storage_cache_hits;
    sum.storage_cache_misses += s.storage_cache_misses;
    sum.storage_cache_evictions += s.storage_cache_evictions;
    sum.storage_index_rebuilds += s.storage_index_rebuilds;
    sum.storage_scan_record_visits += s.storage_scan_record_visits;
  }
  const auto ratio = [](uint64_t a, uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  report->layer["service.adopted_templates"] = {
      static_cast<double>(sum.adopted_templates), "count"};
  report->layer["service.trainings"] = {static_cast<double>(sum.trainings),
                                        "count"};
  report->layer["service.last_swap_ms"] = {sum.last_swap_seconds * 1e3, "ms"};
  report->layer["logstore.commits_per_fsync"] = {
      ratio(sum.wal_group_commits, sum.wal_fsyncs), "ratio"};
  report->layer["logstore.fsyncs_per_batch"] = {
      ratio(sum.wal_fsyncs, batches), "ratio"};
  report->layer["logstore.index_rebuilds"] = {
      static_cast<double>(sum.storage_index_rebuilds), "count"};
  if (queries == 0) return;
  report->layer["logstore.cache_hit_ratio"] = {
      ratio(sum.storage_cache_hits,
            sum.storage_cache_hits + sum.storage_cache_misses),
      "ratio"};
  report->layer["logstore.cache_evictions"] = {
      static_cast<double>(sum.storage_cache_evictions), "count"};
  report->layer["logstore.scan_visits_per_query"] = {
      ratio(sum.storage_scan_record_visits, queries), "count"};
}

double QueryMixUs(const bytebrain::ManagedTopic& topic, int rounds,
                  uint64_t min_timestamp_us, uint64_t* queries) {
  constexpr double kThresholds[] = {0.3, 0.6, 0.9};
  const uint64_t size = topic.size();
  double total_us = 0;
  uint64_t calls = 0;
  const auto timed = [&](const bytebrain::QueryPageRequest& req) {
    const uint64_t t0 = NowNs();
    auto page = topic.QueryGroups(req);
    total_us += static_cast<double>(NowNs() - t0) / 1e3;
    ++calls;
    return page;
  };
  for (int r = 0; r < rounds; ++r) {
    bytebrain::QueryPageRequest req;
    req.saturation_threshold = kThresholds[r % 3];
    req.collect_sequences = false;
    timed(req);
    // A paged walk with sequences over a window that moves per round.
    bytebrain::QueryPageRequest paged;
    paged.saturation_threshold = req.saturation_threshold;
    paged.begin_seq = size / 8 * static_cast<uint64_t>(r % 8);
    paged.end_seq = paged.begin_seq + size / 8;
    paged.max_groups = 16;
    for (int page = 0; page < 64; ++page) {
      auto result = timed(paged);
      if (!result.ok() || !result.value().has_more) break;
      paged.has_resume_key = true;
      paged.resume_count = result.value().last_count;
      paged.resume_template_id = result.value().last_template_id;
    }
    bytebrain::QueryPageRequest recent;
    recent.saturation_threshold = req.saturation_threshold;
    recent.min_timestamp_us = min_timestamp_us;
    recent.max_groups = 16;
    timed(recent);
  }
  *queries = calls;
  return calls == 0 ? 0 : total_us / static_cast<double>(calls);
}

namespace {

double MeanUs(const std::vector<uint64_t>& ns) {
  if (ns.empty()) return 0;
  double total = 0;
  for (uint64_t v : ns) total += static_cast<double>(v);
  return total / static_cast<double>(ns.size()) / 1e3;
}

api::IngestBatchRequestView ViewOf(const Batch& batch) {
  api::IngestBatchRequestView view;
  view.topic = "t";
  view.texts = batch.texts;
  view.timestamps_us = batch.timestamps_us;
  return view;
}

std::vector<std::string> Owned(const std::vector<std::string_view>& views) {
  return std::vector<std::string>(views.begin(), views.end());
}

void CreateReplayTopic(api::ServiceFrontend* frontend,
                       const bytebrain::TopicConfig& config) {
  api::CreateTopicRequest create;
  create.name = "t";
  create.config = config;
  create.config.storage.directory.clear();
  api::CreateTopicResponse created;
  const Status s = frontend->CreateTopic("r", create, &created);
  if (!s.ok()) throw std::runtime_error("replay topic: " + s.ToString());
}

}  // namespace

void ReplayLayers(const Options& opt, const bytebrain::TopicConfig& config,
                  const std::vector<Batch>& batches, double e2e_batch_ms,
                  bool measure_queries, SpanLog* spans, Report* report) {
  const std::string root = opt.tmp_dir + "/replay";
  std::filesystem::remove_all(root);
  const size_t nb = batches.size();
  uint64_t records = 0;
  std::vector<std::string_view> all_texts;
  for (const Batch& b : batches) {
    records += b.texts.size();
    all_texts.insert(all_texts.end(), b.texts.begin(), b.texts.end());
  }
  std::vector<int64_t> outer(nb, -1);  // span of each batch one level out
  const auto add_span = [&](const char* name, size_t b, uint64_t t0,
                            uint64_t t1) {
    return spans->Add(name, t0, t1, outer[b], b + 1);
  };

  // 1. Wire: client encode, then send -> decoded response.
  std::vector<uint64_t> encode_ns, roundtrip_ns;
  {
    api::FrontendConfig fc;
    fc.storage_root = root + "/wire";
    api::ServiceFrontend frontend(fc);
    CreateReplayTopic(&frontend, config);
    net::TcpServerConfig sc;
    sc.num_workers = 1;
    net::TcpServer server(&frontend, sc);
    if (!server.Start().ok()) throw std::runtime_error("replay server");
    net::NetClient client;
    if (!client.Connect("127.0.0.1", server.port()).ok()) {
      throw std::runtime_error("replay connect");
    }
    for (size_t b = 0; b < nb; ++b) {
      const uint64_t t0 = NowNs();
      const std::string frame = api::EncodeRequest(
          api::ApiMethod::kIngestBatch, "r", ViewOf(batches[b]), b + 1);
      const uint64_t t1 = NowNs();
      std::string response;
      Status s = client.SendFrame(frame);
      if (s.ok()) s = client.ReceiveFrame(&response);
      const uint64_t t2 = NowNs();
      api::IngestBatchResponse resp;
      if (s.ok()) s = api::DecodeResponse(response, &resp);
      report->Check(s.ok() && resp.seqs.size() == batches[b].texts.size(),
                    "replay: wire ingest failed: " + s.ToString());
      encode_ns.push_back(t1 - t0);
      roundtrip_ns.push_back(t2 - t1);
      spans->Add("api.encode", t0, t1, -1, b + 1);
      outer[b] = add_span("net.roundtrip", b, t1, t2);
    }
    const net::TcpServerStats st = server.stats();
    report->layer["net.bytes_per_record"] = {
        static_cast<double>(st.bytes_read + st.bytes_written) /
            static_cast<double>(records),
        "B"};
    report->layer["net.watermark_pauses"] = {
        static_cast<double>(st.watermark_pauses), "count"};
    report->layer["net.throttle_pauses"] = {
        static_cast<double>(st.throttle_pauses), "count"};
    server.Shutdown();
  }

  // 2. Dispatch, in process, on the identical encoded bytes.
  std::vector<uint64_t> dispatch_ns;
  {
    api::FrontendConfig fc;
    fc.storage_root = root + "/dispatch";
    api::ServiceFrontend frontend(fc);
    CreateReplayTopic(&frontend, config);
    for (size_t b = 0; b < nb; ++b) {
      const std::string frame = api::EncodeRequest(
          api::ApiMethod::kIngestBatch, "r", ViewOf(batches[b]), b + 1);
      api::ServiceFrontend::DispatchInfo info;
      const uint64_t t0 = NowNs();
      const std::string out = frontend.Dispatch(frame, &info);
      const uint64_t t1 = NowNs();
      report->Check(info.code == Status::Code::kOk, "replay: dispatch failed");
      dispatch_ns.push_back(t1 - t0);
      outer[b] = add_span("api.dispatch", b, t0, t1);
    }
  }

  // 3. ManagedTopic::IngestBatch, counting this thread's allocations.
  std::vector<uint64_t> ingest_ns;
  {
    bytebrain::TopicConfig tc = config;
    tc.storage.directory = root + "/service";
    bytebrain::ManagedTopic topic("replay", tc);
    uint64_t allocations = 0;
    for (size_t b = 0; b < nb; ++b) {
      const uint64_t a0 = ThreadAllocations();
      const uint64_t t0 = NowNs();
      auto seqs = topic.IngestBatch(batches[b].texts, batches[b].timestamps_us);
      const uint64_t t1 = NowNs();
      allocations += ThreadAllocations() - a0;
      report->Check(seqs.ok(), "replay: IngestBatch failed");
      ingest_ns.push_back(t1 - t0);
      outer[b] = add_span("service.ingest_batch", b, t0, t1);
    }
    topic.WaitForPendingTraining();
    report->layer["service.allocs_per_record"] = {
        static_cast<double>(allocations) / static_cast<double>(records),
        "count"};
    const bytebrain::TopicStats before = topic.stats();
    uint64_t queries = 0;
    const double query_us =
        measure_queries ? QueryMixUs(topic, 8, 0, &queries) : 0;
    report->layer["service.query_groups_us"] = {query_us, "us"};
    bytebrain::TopicStats after = topic.stats();
    after.storage_cache_hits -= before.storage_cache_hits;
    after.storage_cache_misses -= before.storage_cache_misses;
    after.storage_cache_evictions -= before.storage_cache_evictions;
    after.storage_scan_record_visits -= before.storage_scan_record_visits;
    ReportTopicCounters({after}, nb, queries, report);
    report->layer["logstore.disk_bytes_per_input_byte"] = {
        static_cast<double>(DirectoryBytes(tc.storage.directory)) /
            static_cast<double>(after.ingested_bytes),
        "ratio"};
  }

  // 4. Core: preprocess and train on the stream, then match each batch
  // single-threaded against the model the topic's first training builds.
  std::vector<uint64_t> match_ns;
  std::vector<std::vector<TemplateId>> ids(nb);
  {
    bytebrain::ByteBrainOptions options = config.parser_options;
    options.trainer.num_threads = 1;
    options.trainer.preprocess.num_threads = 1;
    const std::vector<std::string> owned = Owned(all_texts);
    bytebrain::ByteBrainParser full(options);
    uint64_t t0 = NowNs();
    const bytebrain::PreprocessResult pre = bytebrain::Preprocess(
        all_texts, full.replacer(), options.trainer.preprocess);
    const uint64_t preprocess_ns = NowNs() - t0;
    t0 = NowNs();
    report->Check(full.Train(owned).ok(), "replay: Train failed");
    const uint64_t train_ns = NowNs() - t0;
    const double n = static_cast<double>(records);
    report->layer["core.preprocess_ns_per_log"] = {
        static_cast<double>(preprocess_ns) / n, "ns"};
    report->layer["core.dedup_distinct_ratio"] = {
        static_cast<double>(pre.logs.size()) /
            static_cast<double>(pre.total_logs),
        "ratio"};
    report->layer["core.train_ns_per_log"] = {
        (static_cast<double>(train_ns) - static_cast<double>(preprocess_ns)) /
            n,
        "ns"};

    const size_t initial = std::min<size_t>(
        owned.size(), static_cast<size_t>(config.initial_train_records));
    bytebrain::ByteBrainParser first(options);
    report->Check(
        first.Train(std::vector<std::string>(owned.begin(),
                                             owned.begin() + initial))
            .ok(),
        "replay: initial Train failed");
    uint64_t misses = 0;
    for (size_t b = 0; b < nb; ++b) {
      const uint64_t m0 = NowNs();
      ids[b] = first.MatchAll(batches[b].texts, 1);
      const uint64_t m1 = NowNs();
      match_ns.push_back(m1 - m0);
      spans->Add("core.match", m0, m1, outer[b], b + 1);
      misses += static_cast<uint64_t>(std::count(
          ids[b].begin(), ids[b].end(), bytebrain::kInvalidTemplateId));
    }
    report->layer["core.match_ns_per_log"] = {
        MeanUs(match_ns) * 1e3 * static_cast<double>(nb) / n, "ns"};
    report->layer["core.match_miss_ratio"] = {
        static_cast<double>(misses) / n, "ratio"};
    t0 = NowNs();
    full.MatchAll(all_texts, 1);
    const double one = static_cast<double>(NowNs() - t0);
    t0 = NowNs();
    full.MatchAll(all_texts, 4);
    const double four = static_cast<double>(NowNs() - t0);
    report->layer["threading.match_speedup"] = {one / four, "x"};
  }

  // 5. Storage backend: AppendBatch, then the group-commit wait.
  std::vector<uint64_t> append_ns, wait_ns;
  {
    bytebrain::StorageConfig sc = config.storage;
    sc.directory = root + "/backend";
    sc.durability = config.durability;
    auto backend = bytebrain::CreateStorageBackend(sc);
    report->Check(backend->Open().ok(), "replay: backend open failed");
    for (size_t b = 0; b < nb; ++b) {
      std::vector<bytebrain::LogRecord> recs(batches[b].texts.size());
      for (size_t k = 0; k < recs.size(); ++k) {
        recs[k].text = std::string(batches[b].texts[k]);
        recs[k].template_id = ids[b][k];
        if (!batches[b].timestamps_us.empty()) {
          recs[k].timestamp_us = batches[b].timestamps_us[k];
        }
      }
      const uint64_t t0 = NowNs();
      const Status appended = backend->AppendBatch(std::move(recs));
      const uint64_t t1 = NowNs();
      const Status durable = backend->WaitDurable();
      const uint64_t t2 = NowNs();
      report->Check(appended.ok() && durable.ok(),
                    "replay: backend append failed");
      append_ns.push_back(t1 - t0);
      wait_ns.push_back(t2 - t1);
      spans->Add("logstore.append_batch", t0, t1, outer[b], b + 1);
      spans->Add("logstore.wal_wait", t1, t2, outer[b], b + 1);
    }
  }
  std::filesystem::remove_all(root);

  const double roundtrip = MeanUs(roundtrip_ns);
  const double dispatch = MeanUs(dispatch_ns);
  const double ingest = MeanUs(ingest_ns);
  const double match = MeanUs(match_ns);
  const double append = MeanUs(append_ns);
  const double wait = MeanUs(wait_ns);
  report->layer["api.encode_us"] = {MeanUs(encode_ns), "us"};
  report->layer["net.roundtrip_us"] = {roundtrip, "us"};
  report->layer["api.dispatch_us"] = {dispatch, "us"};
  report->layer["service.ingest_batch_us"] = {ingest, "us"};
  report->layer["logstore.append_batch_us"] = {append, "us"};
  report->layer["logstore.wal_wait_us"] = {wait, "us"};
  const double net_self = roundtrip - dispatch;
  const double api_self = dispatch - ingest;
  const double service_self = ingest - match - append - wait;
  report->layer["net.self_us"] = {net_self, "us"};
  report->layer["api.self_us"] = {api_self, "us"};
  report->layer["service.self_us"] = {service_self, "us"};
  const double covered = std::max(0.0, net_self) + std::max(0.0, api_self) +
                         std::max(0.0, service_self) + match + append + wait;
  report->layer["trace.coverage"] = {
      e2e_batch_ms > 0 ? covered / (e2e_batch_ms * 1e3) : 0, "ratio"};
  report->Info("replay.batches", static_cast<double>(nb), "batches");
  report->Info("replay.records", static_cast<double>(records), "logs");
}

}  // namespace perfbench
