// Service-API battery: wire round-trips for every message, decode
// robustness under truncation and seeded corruption (a decode NEVER
// crashes), forward-compatible unknown-field skipping, and the
// ServiceFrontend contract — lifecycle end-to-end, tenant isolation,
// admission control (topic quota, token buckets with a fake clock,
// in-flight batch cap), cursor pagination equivalence, live config
// updates, and TSAN-clean concurrent use.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/frontend.h"
#include "api/messages.h"
#include "util/serde.h"
#include "service/log_service.h"

namespace bytebrain {
namespace api {
namespace {

class TempDir {
 public:
  TempDir() {
    static std::atomic<uint64_t> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("bb_api_" + std::to_string(::getpid()) + "_" +
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

std::string SshLog(int i) {
  return "Accepted password for user" + std::to_string(i % 5) +
         " from 10.0.0." + std::to_string(i % 9 + 1) + " port " +
         std::to_string(40000 + i) + " ssh2";
}

std::string DiskLog(int i) {
  return "Disk quota exceeded for volume vol" + std::to_string(i % 3);
}

TopicConfig SmallConfig() {
  TopicConfig config;
  config.initial_train_records = 50;
  config.train_interval_records = 1u << 30;
  config.train_volume_bytes = 1ull << 40;
  config.num_threads = 2;
  config.async_training = false;
  return config;
}

template <typename Msg>
std::string Encode(const Msg& msg) {
  std::string bytes;
  msg.EncodeTo(&bytes);
  return bytes;
}

// ---------------------------------------------------------------------
// Wire round-trips
// ---------------------------------------------------------------------

TEST(ApiMessagesTest, EnvelopeRoundTrip) {
  RequestEnvelope req;
  req.method = ApiMethod::kIngestBatch;
  req.tenant = "acme";
  req.payload = "opaque-bytes\0with-nul";
  RequestEnvelope req2;
  ASSERT_TRUE(req2.DecodeFrom(Encode(req)).ok());
  EXPECT_EQ(req2.api_version, kApiVersion);
  EXPECT_EQ(req2.method, ApiMethod::kIngestBatch);
  EXPECT_EQ(req2.tenant, "acme");
  EXPECT_EQ(req2.payload, req.payload);

  ResponseEnvelope resp;
  resp.status = Status::ResourceExhausted("slow down");
  resp.retry_after_us = 12345;
  resp.payload = "partial";
  ResponseEnvelope resp2;
  ASSERT_TRUE(resp2.DecodeFrom(Encode(resp)).ok());
  EXPECT_TRUE(resp2.status.IsResourceExhausted());
  EXPECT_EQ(resp2.status.message(), "slow down");
  EXPECT_EQ(resp2.retry_after_us, 12345u);
  EXPECT_EQ(resp2.payload, "partial");
}

TEST(ApiMessagesTest, AllStatusCodesCrossTheWire) {
  const Status statuses[] = {
      Status::OK(),
      Status::InvalidArgument("a"),
      Status::NotFound("b"),
      Status::Corruption("c"),
      Status::IOError("d"),
      Status::NotSupported("e"),
      Status::Aborted("f"),
      Status::AlreadyExists("g"),
      Status::ResourceExhausted("h"),
      Status::PermissionDenied("i"),
  };
  for (const Status& s : statuses) {
    ResponseEnvelope env;
    env.status = s;
    ResponseEnvelope decoded;
    ASSERT_TRUE(decoded.DecodeFrom(Encode(env)).ok());
    EXPECT_EQ(decoded.status.code(), s.code());
    EXPECT_EQ(decoded.status.message(), s.message());
  }
  // An unknown code is framing corruption, not a guess.
  EXPECT_TRUE(StatusFromWire(250, "x").IsCorruption());
}

TEST(ApiMessagesTest, CreateTopicRoundTripCarriesConfig) {
  CreateTopicRequest req;
  req.name = "events";
  req.config.train_volume_bytes = 111;
  req.config.train_interval_records = 222;
  req.config.initial_train_records = 333;
  req.config.max_train_records = 444;
  req.config.num_threads = 5;
  req.config.num_ingest_shards = 6;
  req.config.async_training = false;
  req.config.storage.kind = StorageConfig::Kind::kSegmentedDisk;
  req.config.storage.directory = "/tmp/x";
  req.config.storage.segment_data_bytes = 777;
  req.config.storage.memory_segment_capacity = 888;
  req.config.durability = DurabilityMode::kWalGroupCommit;
  req.config.variable_rules = {{"hex", "0x[0-9a-f]+"}, {"num", "[0-9]+"}};

  CreateTopicRequest got;
  ASSERT_TRUE(got.DecodeFrom(Encode(req)).ok());
  EXPECT_EQ(got.name, "events");
  EXPECT_EQ(got.config.train_volume_bytes, 111u);
  EXPECT_EQ(got.config.train_interval_records, 222u);
  EXPECT_EQ(got.config.initial_train_records, 333u);
  EXPECT_EQ(got.config.max_train_records, 444u);
  EXPECT_EQ(got.config.num_threads, 5);
  EXPECT_EQ(got.config.num_ingest_shards, 6);
  EXPECT_FALSE(got.config.async_training);
  EXPECT_EQ(got.config.storage.kind, StorageConfig::Kind::kSegmentedDisk);
  EXPECT_EQ(got.config.storage.directory, "/tmp/x");
  EXPECT_EQ(got.config.storage.segment_data_bytes, 777u);
  EXPECT_EQ(got.config.storage.memory_segment_capacity, 888u);
  EXPECT_EQ(got.config.durability, DurabilityMode::kWalGroupCommit);
  EXPECT_EQ(got.config.variable_rules, req.config.variable_rules);
}

TEST(ApiMessagesTest, UnknownDurabilityModeIsRejected) {
  TopicConfig config;
  config.durability = static_cast<DurabilityMode>(9);
  std::string bytes;
  EncodeTopicConfig(config, &bytes);
  TopicConfig got;
  const Status decoded = DecodeTopicConfig(bytes, &got);
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.IsInvalidArgument());
}

TEST(ApiMessagesTest, PatchRoundTripPreservesAbsence) {
  UpdateTopicConfigRequest req;
  req.name = "t";
  req.patch.train_interval_records = 1000;
  req.patch.num_ingest_shards = 4;
  UpdateTopicConfigRequest got;
  ASSERT_TRUE(got.DecodeFrom(Encode(req)).ok());
  EXPECT_EQ(got.name, "t");
  ASSERT_TRUE(got.patch.train_interval_records.has_value());
  EXPECT_EQ(*got.patch.train_interval_records, 1000u);
  ASSERT_TRUE(got.patch.num_ingest_shards.has_value());
  EXPECT_EQ(*got.patch.num_ingest_shards, 4);
  EXPECT_FALSE(got.patch.train_volume_bytes.has_value());
  EXPECT_FALSE(got.patch.num_threads.has_value());
  EXPECT_FALSE(got.patch.async_training.has_value());
}

TEST(ApiMessagesTest, IngestAndBatchRoundTrip) {
  IngestRequest one;
  one.topic = "t";
  one.text = "hello world 42";
  one.timestamp_us = 99;
  IngestRequest one2;
  ASSERT_TRUE(one2.DecodeFrom(Encode(one)).ok());
  EXPECT_EQ(one2.topic, "t");
  EXPECT_EQ(one2.text, one.text);
  EXPECT_EQ(one2.timestamp_us, 99u);

  IngestBatchRequest batch;
  batch.topic = "t";
  batch.texts = {"a", "", "long line with spaces", std::string(3000, 'x')};
  batch.timestamps_us = {1, 2, 3, 4};
  IngestBatchRequest batch2;
  ASSERT_TRUE(batch2.DecodeFrom(Encode(batch)).ok());
  EXPECT_EQ(batch2.topic, "t");
  EXPECT_EQ(batch2.texts, batch.texts);
  EXPECT_EQ(batch2.timestamps_us, batch.timestamps_us);

  IngestResponse r1;
  r1.seq = 7;
  IngestResponse r2;
  ASSERT_TRUE(r2.DecodeFrom(Encode(r1)).ok());
  EXPECT_EQ(r2.seq, 7u);

  IngestBatchResponse b1;
  b1.seqs = {5, 6, 7, 8};
  IngestBatchResponse b2;
  ASSERT_TRUE(b2.DecodeFrom(Encode(b1)).ok());
  EXPECT_EQ(b2.seqs, b1.seqs);
}

TEST(ApiMessagesTest, QueryAndStatsAndAnomalyRoundTrip) {
  QueryRequest q;
  q.topic = "t";
  q.saturation_threshold = 0.75;
  q.begin_seq = 10;
  q.end_seq = 90;
  q.max_groups = 3;
  q.cursor = "cursor-bytes";
  q.include_sequence_numbers = false;
  QueryRequest q2;
  ASSERT_TRUE(q2.DecodeFrom(Encode(q)).ok());
  EXPECT_EQ(q2.topic, "t");
  EXPECT_DOUBLE_EQ(q2.saturation_threshold, 0.75);
  EXPECT_EQ(q2.begin_seq, 10u);
  EXPECT_EQ(q2.end_seq, 90u);
  EXPECT_EQ(q2.max_groups, 3u);
  EXPECT_EQ(q2.cursor, "cursor-bytes");
  EXPECT_FALSE(q2.include_sequence_numbers);

  QueryResponse qr;
  TemplateGroup g;
  g.template_id = 12;
  g.template_text = "Accepted password for * from *";
  g.saturation = 0.9;
  g.count = 3;
  g.sequence_numbers = {1, 4, 9};
  qr.groups.push_back(g);
  g.template_id = 13;
  g.sequence_numbers.clear();
  qr.groups.push_back(g);
  qr.next_cursor = "more";
  QueryResponse qr2;
  ASSERT_TRUE(qr2.DecodeFrom(Encode(qr)).ok());
  ASSERT_EQ(qr2.groups.size(), 2u);
  EXPECT_EQ(qr2.groups[0].template_id, 12u);
  EXPECT_EQ(qr2.groups[0].template_text, g.template_text);
  EXPECT_DOUBLE_EQ(qr2.groups[0].saturation, 0.9);
  EXPECT_EQ(qr2.groups[0].count, 3u);
  EXPECT_EQ(qr2.groups[0].sequence_numbers, (std::vector<uint64_t>{1, 4, 9}));
  EXPECT_TRUE(qr2.groups[1].sequence_numbers.empty());
  EXPECT_EQ(qr2.next_cursor, "more");

  GetStatsResponse s;
  s.stats.ingested_records = 1;
  s.stats.ingested_bytes = 2;
  s.stats.trainings = 3;
  s.stats.num_templates = 4;
  s.stats.last_training_seconds = 0.5;
  s.stats.storage_persistent = true;
  s.stats.storage_ok = false;
  s.stats.shards.resize(2);
  s.stats.shards[1].records = 42;
  s.stats.wal_bytes = 4096;
  s.stats.wal_group_commits = 10;
  s.stats.wal_fsyncs = 3;
  s.stats.wal_replayed_records = 5;
  s.tenant.admitted_requests = 100;
  s.tenant.denied_requests = 4;
  s.tenant.admitted_bytes = 5000;
  s.tenant.denied_bytes = 200;
  s.tenant.admitted_records = 120;
  s.tenant.denied_records = 6;
  s.stats.storage_cache_hits = 31;
  s.stats.storage_cache_misses = 32;
  s.stats.storage_cache_evictions = 33;
  s.stats.storage_index_rebuilds = 34;
  s.stats.storage_scan_record_visits = 35;
  GetStatsResponse s2;
  ASSERT_TRUE(s2.DecodeFrom(Encode(s)).ok());
  EXPECT_EQ(s2.stats.ingested_records, 1u);
  EXPECT_EQ(s2.stats.num_templates, 4u);
  EXPECT_DOUBLE_EQ(s2.stats.last_training_seconds, 0.5);
  EXPECT_TRUE(s2.stats.storage_persistent);
  EXPECT_FALSE(s2.stats.storage_ok);
  ASSERT_EQ(s2.stats.shards.size(), 2u);
  EXPECT_EQ(s2.stats.shards[1].records, 42u);
  EXPECT_EQ(s2.stats.wal_bytes, 4096u);
  EXPECT_EQ(s2.stats.wal_group_commits, 10u);
  EXPECT_EQ(s2.stats.wal_fsyncs, 3u);
  EXPECT_EQ(s2.stats.wal_replayed_records, 5u);
  EXPECT_EQ(s2.tenant.admitted_requests, 100u);
  EXPECT_EQ(s2.tenant.denied_requests, 4u);
  EXPECT_EQ(s2.tenant.admitted_bytes, 5000u);
  EXPECT_EQ(s2.tenant.denied_bytes, 200u);
  EXPECT_EQ(s2.tenant.admitted_records, 120u);
  EXPECT_EQ(s2.tenant.denied_records, 6u);
  EXPECT_EQ(s2.stats.storage_cache_hits, 31u);
  EXPECT_EQ(s2.stats.storage_cache_misses, 32u);
  EXPECT_EQ(s2.stats.storage_cache_evictions, 33u);
  EXPECT_EQ(s2.stats.storage_index_rebuilds, 34u);
  EXPECT_EQ(s2.stats.storage_scan_record_visits, 35u);

  DetectAnomaliesRequest ar;
  ar.topic = "t";
  ar.window1_begin = 1;
  ar.window1_end = 2;
  ar.window2_begin = 3;
  ar.window2_end = 4;
  ar.min_change_ratio = 2.5;
  DetectAnomaliesRequest ar2;
  ASSERT_TRUE(ar2.DecodeFrom(Encode(ar)).ok());
  EXPECT_EQ(ar2.window2_end, 4u);
  EXPECT_DOUBLE_EQ(ar2.min_change_ratio, 2.5);

  DetectAnomaliesResponse an;
  TemplateAnomaly a;
  a.template_id = 9;
  a.template_text = "FATAL *";
  a.count_before = 0;
  a.count_after = 60;
  a.is_new = true;
  a.change_ratio = 60.0;
  an.anomalies.push_back(a);
  DetectAnomaliesResponse an2;
  ASSERT_TRUE(an2.DecodeFrom(Encode(an)).ok());
  ASSERT_EQ(an2.anomalies.size(), 1u);
  EXPECT_EQ(an2.anomalies[0].template_id, 9u);
  EXPECT_TRUE(an2.anomalies[0].is_new);
  EXPECT_DOUBLE_EQ(an2.anomalies[0].change_ratio, 60.0);
}

TEST(ApiMessagesTest, ListAndSimpleMessagesRoundTrip) {
  ListTopicsResponse l;
  l.names = {"a", "b", "c"};
  ListTopicsResponse l2;
  ASSERT_TRUE(l2.DecodeFrom(Encode(l)).ok());
  EXPECT_EQ(l2.names, l.names);

  DeleteTopicRequest d;
  d.name = "t";
  d.purge_storage = false;
  DeleteTopicRequest d2;
  ASSERT_TRUE(d2.DecodeFrom(Encode(d)).ok());
  EXPECT_EQ(d2.name, "t");
  EXPECT_FALSE(d2.purge_storage);

  GetStatsRequest g;
  g.topic = "t";
  GetStatsRequest g2;
  ASSERT_TRUE(g2.DecodeFrom(Encode(g)).ok());
  EXPECT_EQ(g2.topic, "t");

  TrainNowRequest t;
  t.topic = "t";
  TrainNowRequest t2;
  ASSERT_TRUE(t2.DecodeFrom(Encode(t)).ok());
  EXPECT_EQ(t2.topic, "t");

  // Empty messages decode from empty payloads.
  CreateTopicResponse cr;
  EXPECT_TRUE(cr.DecodeFrom("").ok());
  ListTopicsRequest lr;
  EXPECT_TRUE(lr.DecodeFrom("").ok());
  TrainNowResponse tr;
  EXPECT_TRUE(tr.DecodeFrom("").ok());
}

// ---------------------------------------------------------------------
// Versioning + decode robustness
// ---------------------------------------------------------------------

TEST(ApiMessagesTest, UnknownFieldsAreSkipped) {
  IngestRequest req;
  req.topic = "t";
  req.text = "body";
  std::string bytes = Encode(req);
  // A future encoder appends a field this decoder has never heard of.
  FieldWriter w(&bytes);
  w.PutBytes(999, "from-the-future");
  w.PutU64(1000, 42);
  IngestRequest got;
  ASSERT_TRUE(got.DecodeFrom(bytes).ok());
  EXPECT_EQ(got.topic, "t");
  EXPECT_EQ(got.text, "body");
}

TEST(ApiMessagesTest, HigherVersionEnvelopeStillDecodes) {
  RequestEnvelope req;
  req.api_version = kApiVersion + 5;
  req.method = ApiMethod::kListTopics;
  req.tenant = "acme";
  RequestEnvelope got;
  ASSERT_TRUE(got.DecodeFrom(Encode(req)).ok());
  EXPECT_EQ(got.api_version, kApiVersion + 5);
  EXPECT_EQ(got.method, ApiMethod::kListTopics);
}

TEST(ApiMessagesTest, VersionZeroIsRejected) {
  RequestEnvelope req;
  req.api_version = 0;
  RequestEnvelope got;
  EXPECT_TRUE(got.DecodeFrom(Encode(req)).IsInvalidArgument());
  ResponseEnvelope resp;
  resp.api_version = 0;
  ResponseEnvelope got2;
  EXPECT_TRUE(got2.DecodeFrom(Encode(resp)).IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Golden wire bytes
// ---------------------------------------------------------------------

// One instance of every wire message with EVERY field populated
// (conditional fields included: non-default envelope ids and tokens,
// timestamps, sequence numbers, time-range bounds, ReplPullResponse's
// config and model), next to the hex of its v2 encoding. A round trip
// cannot catch a byte change — encoder and decoder would drift
// together — but a checked-in byte string can: these bytes are the wire
// format, and a diff here is a protocol change.
std::string Unhex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 15]);
  }
  return hex;
}

TopicConfig FullTopicConfig() {
  TopicConfig c;
  c.train_volume_bytes = 111;
  c.train_interval_records = 222;
  c.initial_train_records = 333;
  c.max_train_records = 444;
  c.num_threads = 3;
  c.num_ingest_shards = 5;
  c.async_training = false;
  c.storage.kind = StorageConfig::Kind::kSegmentedDisk;
  c.storage.directory = "data/events";
  c.storage.segment_data_bytes = 4096;
  c.storage.memory_segment_capacity = 888;
  c.variable_rules = {{"hex", "0x[0-9a-f]+"}, {"id", "[0-9]+"}};
  c.durability = DurabilityMode::kWalGroupCommit;
  return c;
}

TemplateGroup FullGroup(uint64_t id) {
  TemplateGroup g;
  g.template_id = id;
  g.template_text = "user * logged in";
  g.saturation = 0.75;
  g.count = 3;
  g.sequence_numbers = {4, 9, 16};
  return g;
}

// Golden<Msg>: Sample() builds the instance, kHex is its encoding, and
// kHeader is the unframed prefix (the envelopes' leading version u32).
template <typename Msg>
struct Golden;

struct BodyMessage {
  static constexpr size_t kHeader = 0;
};
struct EnvelopeMessage {
  static constexpr size_t kHeader = 4;
};

template <>
struct Golden<RequestEnvelope> : EnvelopeMessage {
  static RequestEnvelope Sample() {
    RequestEnvelope m;
    m.method = ApiMethod::kIngestBatch;
    m.tenant = "acme";
    m.payload = std::string("pay\0load", 8);
    m.request_id = 0x1122334455667788ull;
    m.auth_token = "s3cret";
    return m;
  }
  static constexpr std::string_view kHex =
      "02000000010000000400000006000000020000000400000061636d6503000000"
      "08000000706179006c6f61640400000008000000887766554433221105000000"
      "06000000733363726574";
};

// Decode-only: checked against RequestEnvelope's bytes.
template <>
struct Golden<RequestEnvelopeView> : EnvelopeMessage {
  static constexpr std::string_view kHex = Golden<RequestEnvelope>::kHex;
};

template <>
struct Golden<ResponseEnvelope> : EnvelopeMessage {
  static ResponseEnvelope Sample() {
    ResponseEnvelope m;
    m.status = Status::NotFound("no such topic");
    m.retry_after_us = 250;
    m.payload = "body";
    m.request_id = 77;
    return m;
  }
  static constexpr std::string_view kHex =
      "02000000010000000400000002000000020000000d0000006e6f207375636820"
      "746f7069630300000008000000fa000000000000000400000004000000626f64"
      "7905000000080000004d00000000000000";
};

template <>
struct Golden<CreateTopicRequest> : BodyMessage {
  static CreateTopicRequest Sample() {
    CreateTopicRequest m;
    m.name = "events";
    m.config = FullTopicConfig();
    return m;
  }
  static constexpr std::string_view kHex =
      "01000000060000006576656e747302000000f500000001000000080000006f00"
      "0000000000000200000008000000de0000000000000003000000080000004d01"
      "0000000000000400000008000000bc0100000000000005000000040000000300"
      "0000060000000400000005000000070000000400000000000000090000000400"
      "0000010000000a0000000b000000646174612f6576656e74730b000000080000"
      "0000100000000000000c0000000800000078030000000000000d0000001e0000"
      "000100000003000000686578020000000b00000030785b302d39612d665d2b0d"
      "000000180000000100000002000000696402000000060000005b302d395d2b0e"
      "0000000400000002000000";
};

template <>
struct Golden<UpdateTopicConfigRequest> : BodyMessage {
  static UpdateTopicConfigRequest Sample() {
    UpdateTopicConfigRequest m;
    m.name = "events";
    m.patch.train_volume_bytes = 1;
    m.patch.train_interval_records = 2;
    m.patch.initial_train_records = 3;
    m.patch.max_train_records = 4;
    m.patch.num_threads = 5;
    m.patch.num_ingest_shards = 6;
    m.patch.async_training = false;
    return m;
  }
  static constexpr std::string_view kHex =
      "01000000060000006576656e7473020000006400000001000000080000000100"
      "0000000000000200000008000000020000000000000003000000080000000300"
      "0000000000000400000008000000040000000000000005000000040000000500"
      "0000060000000400000006000000070000000400000000000000";
};

template <>
struct Golden<DeleteTopicRequest> : BodyMessage {
  static DeleteTopicRequest Sample() {
    DeleteTopicRequest m;
    m.name = "events";
    m.purge_storage = false;
    return m;
  }
  static constexpr std::string_view kHex =
      "01000000060000006576656e7473020000000400000000000000";
};

template <>
struct Golden<ListTopicsResponse> : BodyMessage {
  static ListTopicsResponse Sample() {
    ListTopicsResponse m;
    m.names = {"alpha", "beta"};
    return m;
  }
  static constexpr std::string_view kHex =
      "0100000005000000616c706861010000000400000062657461";
};

template <>
struct Golden<IngestRequest> : BodyMessage {
  static IngestRequest Sample() {
    IngestRequest m;
    m.topic = "events";
    m.text = "disk full on vol1";
    m.timestamp_us = 1700000000000001ull;
    return m;
  }
  static constexpr std::string_view kHex =
      "01000000060000006576656e747302000000110000006469736b2066756c6c20"
      "6f6e20766f6c31030000000800000001401e18240a0600";
};

template <>
struct Golden<IngestResponse> : BodyMessage {
  static IngestResponse Sample() {
    IngestResponse m;
    m.seq = 42;
    return m;
  }
  static constexpr std::string_view kHex = "01000000080000002a00000000000000";
};

template <>
struct Golden<IngestBatchRequest> : BodyMessage {
  static IngestBatchRequest Sample() {
    IngestBatchRequest m;
    m.topic = "events";
    m.texts = {"alpha", "beta", "gamma"};
    m.timestamps_us = {10, 20, 30};
    return m;
  }
  static constexpr std::string_view kHex =
      "01000000060000006576656e74730200000005000000616c7068610200000004"
      "00000062657461020000000500000067616d6d6103000000180000000a000000"
      "0000000014000000000000001e00000000000000";
};

template <>
struct Golden<IngestBatchRequestView> : BodyMessage {
  static IngestBatchRequestView Sample() {
    IngestBatchRequestView m;
    m.topic = "events";
    m.texts = {"alpha", "beta", "gamma"};
    m.timestamps_us = {10, 20, 30};
    return m;
  }
  static constexpr std::string_view kHex = Golden<IngestBatchRequest>::kHex;
};

template <>
struct Golden<IngestBatchResponse> : BodyMessage {
  static IngestBatchResponse Sample() {
    IngestBatchResponse m;
    m.seqs = {7, 8, 9};
    return m;
  }
  static constexpr std::string_view kHex =
      "0100000018000000070000000000000008000000000000000900000000000000";
};

template <>
struct Golden<QueryRequest> : BodyMessage {
  static QueryRequest Sample() {
    QueryRequest m;
    m.topic = "events";
    m.saturation_threshold = 0.8;
    m.begin_seq = 5;
    m.end_seq = 500;
    m.max_groups = 10;
    m.cursor = "opaque-cursor";
    m.include_sequence_numbers = false;
    m.min_timestamp_us = 1000;
    m.max_timestamp_us = 2000;
    return m;
  }
  static constexpr std::string_view kHex =
      "01000000060000006576656e747302000000080000009a9999999999e93f0300"
      "00000800000005000000000000000400000008000000f4010000000000000500"
      "0000040000000a000000060000000d0000006f70617175652d637572736f7207"
      "00000004000000000000000800000008000000e8030000000000000900000008"
      "000000d007000000000000";
};

template <>
struct Golden<QueryResponse> : BodyMessage {
  static QueryResponse Sample() {
    QueryResponse m;
    m.groups = {FullGroup(1), FullGroup(2)};
    m.next_cursor = "next";
    return m;
  }
  static constexpr std::string_view kHex =
      "0100000068000000010000000800000001000000000000000200000010000000"
      "75736572202a206c6f6767656420696e0300000008000000000000000000e83f"
      "0400000008000000030000000000000005000000180000000400000000000000"
      "0900000000000000100000000000000001000000680000000100000008000000"
      "0200000000000000020000001000000075736572202a206c6f6767656420696e"
      "0300000008000000000000000000e83f04000000080000000300000000000000"
      "0500000018000000040000000000000009000000000000001000000000000000"
      "02000000040000006e657874";
};

template <>
struct Golden<GetStatsRequest> : BodyMessage {
  static GetStatsRequest Sample() {
    GetStatsRequest m;
    m.topic = "events";
    return m;
  }
  static constexpr std::string_view kHex = "01000000060000006576656e7473";
};

template <>
struct Golden<GetStatsResponse> : BodyMessage {
  static GetStatsResponse Sample() {
    GetStatsResponse m;
    TopicStats& s = m.stats;
    s.ingested_records = 1;
    s.ingested_bytes = 2;
    s.trainings = 3;
    s.matched_online = 4;
    s.adopted_templates = 5;
    s.model_bytes = 6;
    s.last_training_seconds = 7.5;
    s.num_templates = 8;
    s.async_trainings = 9;
    s.pending_trainings = 10;
    s.coalesced_triggers = 11;
    s.failed_trainings = 12;
    s.last_swap_seconds = 13.25;
    s.shard_merges = 14;
    s.storage_persistent = true;
    s.storage_ok = false;
    s.storage_sealed_segments = 17;
    s.storage_mapped_bytes = 18;
    s.recovered_records = 19;
    s.last_snapshot_copied_records = 20;
    s.last_snapshot_mapped_records = 21;
    for (uint64_t i = 0; i < 2; ++i) {
      ShardStats shard;
      shard.records = 100 + i;
      shard.bytes = 200 + i;
      shard.matched_shared = 300 + i;
      shard.matched_pending = 400 + i;
      shard.adopted = 500 + i;
      shard.merges = 600 + i;
      s.shards.push_back(shard);
    }
    s.wal_bytes = 23;
    s.wal_group_commits = 24;
    s.wal_fsyncs = 25;
    s.wal_replayed_records = 26;
    m.tenant.admitted_requests = 271;
    m.tenant.denied_requests = 272;
    m.tenant.admitted_bytes = 273;
    m.tenant.denied_bytes = 274;
    m.tenant.admitted_records = 275;
    m.tenant.denied_records = 276;
    s.storage_cache_hits = 28;
    s.storage_cache_misses = 29;
    s.storage_cache_evictions = 30;
    s.storage_index_rebuilds = 31;
    s.storage_scan_record_visits = 32;
    s.replication_lag_bytes = 33;
    s.replication_lag_records = 34;
    s.replication_lag_segments = 35;
    s.replica_role = 1;
    return m;
  }
  static constexpr std::string_view kHex =
      "0100000008000000010000000000000002000000080000000200000000000000"
      "0300000008000000030000000000000004000000080000000400000000000000"
      "0500000008000000050000000000000006000000080000000600000000000000"
      "07000000080000000000000000001e4008000000080000000800000000000000"
      "090000000800000009000000000000000a000000080000000a00000000000000"
      "0b000000080000000b000000000000000c000000080000000c00000000000000"
      "0d000000080000000000000000802a400e000000080000000e00000000000000"
      "0f00000004000000010000001000000004000000000000001100000008000000"
      "1100000000000000120000000800000012000000000000001300000008000000"
      "1300000000000000140000000800000014000000000000001500000008000000"
      "1500000000000000160000006000000001000000080000006400000000000000"
      "0200000008000000c80000000000000003000000080000002c01000000000000"
      "040000000800000090010000000000000500000008000000f401000000000000"
      "0600000008000000580200000000000016000000600000000100000008000000"
      "65000000000000000200000008000000c9000000000000000300000008000000"
      "2d01000000000000040000000800000091010000000000000500000008000000"
      "f501000000000000060000000800000059020000000000001700000008000000"
      "1700000000000000180000000800000018000000000000001900000008000000"
      "19000000000000001a000000080000001a000000000000001b00000060000000"
      "01000000080000000f0100000000000002000000080000001001000000000000"
      "0300000008000000110100000000000004000000080000001201000000000000"
      "0500000008000000130100000000000006000000080000001401000000000000"
      "1c000000080000001c000000000000001d000000080000001d00000000000000"
      "1e000000080000001e000000000000001f000000080000001f00000000000000"
      "2000000008000000200000000000000021000000080000002100000000000000"
      "2200000008000000220000000000000023000000080000002300000000000000"
      "240000000400000001000000";
};

template <>
struct Golden<TrainNowRequest> : BodyMessage {
  static TrainNowRequest Sample() {
    TrainNowRequest m;
    m.topic = "events";
    return m;
  }
  static constexpr std::string_view kHex = "01000000060000006576656e7473";
};

template <>
struct Golden<DetectAnomaliesRequest> : BodyMessage {
  static DetectAnomaliesRequest Sample() {
    DetectAnomaliesRequest m;
    m.topic = "events";
    m.window1_begin = 1;
    m.window1_end = 2;
    m.window2_begin = 3;
    m.window2_end = 4;
    m.min_change_ratio = 2.5;
    return m;
  }
  static constexpr std::string_view kHex =
      "01000000060000006576656e7473020000000800000001000000000000000300"
      "0000080000000200000000000000040000000800000003000000000000000500"
      "000008000000040000000000000006000000080000000000000000000440";
};

template <>
struct Golden<DetectAnomaliesResponse> : BodyMessage {
  static DetectAnomaliesResponse Sample() {
    DetectAnomaliesResponse m;
    for (uint64_t i = 1; i <= 2; ++i) {
      TemplateAnomaly a;
      a.template_id = i;
      a.template_text = "disk * full";
      a.count_before = 10 * i;
      a.count_after = 30 * i;
      a.is_new = i == 2;
      a.change_ratio = 3.0;
      m.anomalies.push_back(a);
    }
    return m;
  }
  static constexpr std::string_view kHex =
      "010000005f00000001000000080000000100000000000000020000000b000000"
      "6469736b202a2066756c6c03000000080000000a000000000000000400000008"
      "0000001e00000000000000050000000400000000000000060000000800000000"
      "00000000000840010000005f0000000100000008000000020000000000000002"
      "0000000b0000006469736b202a2066756c6c0300000008000000140000000000"
      "000004000000080000003c000000000000000500000004000000010000000600"
      "0000080000000000000000000840";
};

template <>
struct Golden<ReplPullRequest> : BodyMessage {
  static ReplPullRequest Sample() {
    ReplPullRequest m;
    m.topic = "acme/events";
    m.segment_index = 3;
    m.offset = 4096;
    m.max_bytes = 65536;
    m.model_generation = 7;
    m.want_config = true;
    return m;
  }
  static constexpr std::string_view kHex =
      "010000000b00000061636d652f6576656e747302000000080000000300000000"
      "0000000300000008000000001000000000000004000000080000000000010000"
      "00000005000000080000000700000000000000060000000400000001000000";
};

template <>
struct Golden<ReplPullResponse> : BodyMessage {
  static ReplPullResponse Sample() {
    ReplPullResponse m;
    m.topics = {"acme/a", "acme/b"};
    m.segment_index = 2;
    m.offset = 128;
    m.data = std::string("fr\0me", 5);
    m.segment_sealed = true;
    m.segment_records = 6;
    m.segment_checksum = 0xC0FFEEull;
    m.segment_data_len = 8;
    m.source_records = 9;
    m.source_segments = 10;
    m.source_bytes = 11;
    m.has_config = true;
    m.config = FullTopicConfig();
    m.has_model = true;
    m.model_blob = "model-bytes";
    m.model_generation = 16;
    return m;
  }
  static constexpr std::string_view kHex =
      "010000000600000061636d652f61010000000600000061636d652f6202000000"
      "0800000002000000000000000300000008000000800000000000000004000000"
      "050000006672006d650500000004000000010000000600000008000000060000"
      "00000000000700000008000000eeffc000000000000800000008000000080000"
      "0000000000090000000800000009000000000000000a000000080000000a0000"
      "00000000000b000000080000000b000000000000000c00000004000000010000"
      "000d000000f500000001000000080000006f0000000000000002000000080000"
      "00de0000000000000003000000080000004d0100000000000004000000080000"
      "00bc010000000000000500000004000000030000000600000004000000050000"
      "000700000004000000000000000900000004000000010000000a0000000b0000"
      "00646174612f6576656e74730b0000000800000000100000000000000c000000"
      "0800000078030000000000000d0000001e000000010000000300000068657802"
      "0000000b00000030785b302d39612d665d2b0d00000018000000010000000200"
      "0000696402000000060000005b302d395d2b0e00000004000000020000000e00"
      "000004000000010000000f0000000b0000006d6f64656c2d6279746573100000"
      "00080000001000000000000000";
};

template <>
struct Golden<PromoteResponse> : BodyMessage {
  static PromoteResponse Sample() {
    PromoteResponse m;
    m.sealed_topics = 3;
    return m;
  }
  static constexpr std::string_view kHex = "01000000080000000300000000000000";
};

// Field-less messages encode to nothing.
#define BB_EMPTY_GOLDEN(Msg)                     \
  template <>                                    \
  struct Golden<Msg> : BodyMessage {             \
    static Msg Sample() { return Msg(); }        \
    static constexpr std::string_view kHex = ""; \
  };
BB_EMPTY_GOLDEN(CreateTopicResponse)
BB_EMPTY_GOLDEN(UpdateTopicConfigResponse)
BB_EMPTY_GOLDEN(DeleteTopicResponse)
BB_EMPTY_GOLDEN(ListTopicsRequest)
BB_EMPTY_GOLDEN(TrainNowResponse)
BB_EMPTY_GOLDEN(PromoteRequest)
BB_EMPTY_GOLDEN(DemoteRequest)
BB_EMPTY_GOLDEN(DemoteResponse)
#undef BB_EMPTY_GOLDEN

// Every message type messages.h declares.
using WireMessages = ::testing::Types<
    RequestEnvelope, RequestEnvelopeView, ResponseEnvelope,
    CreateTopicRequest, CreateTopicResponse, UpdateTopicConfigRequest,
    UpdateTopicConfigResponse, DeleteTopicRequest, DeleteTopicResponse,
    ListTopicsRequest, ListTopicsResponse, IngestRequest, IngestResponse,
    IngestBatchRequest, IngestBatchRequestView, IngestBatchResponse,
    QueryRequest, QueryResponse, GetStatsRequest, GetStatsResponse,
    TrainNowRequest, TrainNowResponse, DetectAnomaliesRequest,
    DetectAnomaliesResponse, ReplPullRequest, ReplPullResponse,
    PromoteRequest, PromoteResponse, DemoteRequest, DemoteResponse>;

template <typename Msg>
constexpr bool kHasEncoder = requires(const Msg& m, std::string* out) {
  m.EncodeTo(out);
};

template <typename Msg>
class WireGoldenTest : public ::testing::Test {};
TYPED_TEST_SUITE(WireGoldenTest, WireMessages);

TYPED_TEST(WireGoldenTest, EncodingMatchesGoldenBytes) {
  using Msg = TypeParam;
  const std::string golden = Unhex(Golden<Msg>::kHex);
  if constexpr (kHasEncoder<Msg>) {
    // On a mismatch the actual hex is printed: that is the new golden
    // value, to be checked in only for an intended protocol change.
    EXPECT_EQ(Hex(Encode(Golden<Msg>::Sample())), Golden<Msg>::kHex);
    Msg decoded;
    ASSERT_TRUE(decoded.DecodeFrom(golden).ok());
    EXPECT_EQ(Hex(Encode(decoded)), Golden<Msg>::kHex);
  } else {
    // RequestEnvelopeView has no encoder: it must decode the owning
    // envelope's bytes to the same fields.
    const RequestEnvelope want = Golden<RequestEnvelope>::Sample();
    Msg view;
    ASSERT_TRUE(view.DecodeFrom(golden).ok());
    EXPECT_EQ(view.api_version, want.api_version);
    EXPECT_EQ(view.method, want.method);
    EXPECT_EQ(view.tenant, want.tenant);
    EXPECT_EQ(view.payload, want.payload);
    EXPECT_EQ(view.request_id, want.request_id);
    EXPECT_EQ(view.auth_token, want.auth_token);
  }
}

// Decode robustness, seeded from the golden bytes: every prefix and a
// seeded fuzz of byte flips must return a verdict — never crash, never
// read out of bounds. A prefix that ends on a field boundary is a
// shorter valid message; one that cuts a field (or the envelope's
// version word) must be an ERROR, never a silent success.
TYPED_TEST(WireGoldenTest, TruncatedAndCorruptedBytesNeverCrash) {
  using Msg = TypeParam;
  const std::string bytes = Unhex(Golden<Msg>::kHex);
  const size_t header = Golden<Msg>::kHeader;
  std::set<size_t> boundaries;
  if (bytes.size() >= header) {
    boundaries.insert(header);
    FieldReader fields(std::string_view(bytes).substr(header));
    uint32_t tag = 0;
    std::string_view payload;
    while (fields.Next(&tag, &payload)) {
      boundaries.insert(static_cast<size_t>(
          payload.data() + payload.size() - bytes.data()));
    }
    ASSERT_FALSE(fields.error());
  }
  for (size_t len = 0; len < bytes.size(); ++len) {
    Msg victim;
    const bool ok =
        victim.DecodeFrom(std::string_view(bytes.data(), len)).ok();
    EXPECT_EQ(ok, boundaries.count(len) != 0) << "prefix of " << len;
  }
  if (bytes.empty()) return;
  std::mt19937_64 rng(0xB0B5EED);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = bytes;
    const size_t pos = rng() % mutated.size();
    mutated[pos] = static_cast<char>(rng() & 0xFF);
    Msg victim;
    (void)victim.DecodeFrom(mutated);
  }
}

// TopicConfig tag 8 (the first-training knob) is retired. Bytes from a
// peer that still writes it — CreateTopicRequest's golden encoding
// before the retirement — decode OK with every other field intact.
TEST(ApiMessagesTest, RetiredTopicConfigTagIsSkipped) {
  constexpr std::string_view kWithTag8 =
      "01000000060000006576656e7473020000000101000001000000080000006f00"
      "0000000000000200000008000000de0000000000000003000000080000004d01"
      "0000000000000400000008000000bc0100000000000005000000040000000300"
      "0000060000000400000005000000070000000400000000000000080000000400"
      "0000000000000900000004000000010000000a0000000b000000646174612f65"
      "76656e74730b0000000800000000100000000000000c00000008000000780300"
      "00000000000d0000001e0000000100000003000000686578020000000b000000"
      "30785b302d39612d665d2b0d0000001800000001000000020000006964020000"
      "00060000005b302d395d2b0e0000000400000002000000";
  CreateTopicRequest decoded;
  ASSERT_TRUE(decoded.DecodeFrom(Unhex(kWithTag8)).ok());
  EXPECT_EQ(Hex(Encode(decoded)), Golden<CreateTopicRequest>::kHex);
}

TEST(ApiMessagesTest, RetiredShardStatsTagIsSkipped) {
  // The golden bytes from before ShardStats tag 7 (memo_hits) retired:
  // each shard message still carries it.
  constexpr std::string_view kWithTag7 =
      "0100000008000000010000000000000002000000080000000200000000000000"
      "0300000008000000030000000000000004000000080000000400000000000000"
      "0500000008000000050000000000000006000000080000000600000000000000"
      "07000000080000000000000000001e4008000000080000000800000000000000"
      "090000000800000009000000000000000a000000080000000a00000000000000"
      "0b000000080000000b000000000000000c000000080000000c00000000000000"
      "0d000000080000000000000000802a400e000000080000000e00000000000000"
      "0f00000004000000010000001000000004000000000000001100000008000000"
      "1100000000000000120000000800000012000000000000001300000008000000"
      "1300000000000000140000000800000014000000000000001500000008000000"
      "1500000000000000160000007000000001000000080000006400000000000000"
      "0200000008000000c80000000000000003000000080000002c01000000000000"
      "040000000800000090010000000000000500000008000000f401000000000000"
      "060000000800000058020000000000000700000008000000bc02000000000000"
      "1600000070000000010000000800000065000000000000000200000008000000"
      "c90000000000000003000000080000002d010000000000000400000008000000"
      "91010000000000000500000008000000f5010000000000000600000008000000"
      "59020000000000000700000008000000bd020000000000001700000008000000"
      "1700000000000000180000000800000018000000000000001900000008000000"
      "19000000000000001a000000080000001a000000000000001b00000060000000"
      "01000000080000000f0100000000000002000000080000001001000000000000"
      "0300000008000000110100000000000004000000080000001201000000000000"
      "0500000008000000130100000000000006000000080000001401000000000000"
      "1c000000080000001c000000000000001d000000080000001d00000000000000"
      "1e000000080000001e000000000000001f000000080000001f00000000000000"
      "2000000008000000200000000000000021000000080000002100000000000000"
      "2200000008000000220000000000000023000000080000002300000000000000"
      "240000000400000001000000";
  GetStatsResponse decoded;
  ASSERT_TRUE(decoded.DecodeFrom(Unhex(kWithTag7)).ok());
  EXPECT_EQ(Hex(Encode(decoded)), Golden<GetStatsResponse>::kHex);
}

TEST(ApiFrontendTest, DispatchOnGarbageNeverCrashes) {
  ServiceFrontend frontend;
  std::mt19937_64 rng(0xFADEFEED);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage(rng() % 64, '\0');
    for (char& c : garbage) c = static_cast<char>(rng() & 0xFF);
    const std::string response = frontend.Dispatch(garbage);
    // Whatever came in, a well-formed envelope goes out.
    ResponseEnvelope env;
    ASSERT_TRUE(env.DecodeFrom(response).ok()) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------
// Frontend: lifecycle, isolation, pagination
// ---------------------------------------------------------------------

Status CreateSmallTopic(ServiceFrontend& frontend, const std::string& tenant,
                        const std::string& name) {
  CreateTopicRequest req;
  req.name = name;
  req.config = SmallConfig();
  CreateTopicResponse resp;
  return frontend.CreateTopic(tenant, req, &resp);
}

Status IngestTexts(ServiceFrontend& frontend, const std::string& tenant,
                   const std::string& topic, std::vector<std::string> texts,
                   uint64_t* retry_after_us = nullptr) {
  IngestBatchRequest req;
  req.topic = topic;
  req.texts = std::move(texts);
  IngestBatchResponse resp;
  return frontend.IngestBatch(tenant, std::move(req), &resp, retry_after_us);
}

TEST(ApiFrontendTest, EndToEndLifecycle) {
  ServiceFrontend frontend;
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "events").ok());
  EXPECT_TRUE(CreateSmallTopic(frontend, "acme", "events")
                  .IsAlreadyExists());

  std::vector<std::string> texts;
  for (int i = 0; i < 120; ++i) texts.push_back(SshLog(i));
  for (int i = 0; i < 40; ++i) texts.push_back(DiskLog(i));
  ASSERT_TRUE(IngestTexts(frontend, "acme", "events", texts).ok());

  TrainNowRequest train;
  train.topic = "events";
  TrainNowResponse trained;
  ASSERT_TRUE(frontend.TrainNow("acme", train, &trained).ok());

  GetStatsRequest stats_req;
  stats_req.topic = "events";
  GetStatsResponse stats;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  EXPECT_EQ(stats.stats.ingested_records, 160u);
  EXPECT_GT(stats.stats.num_templates, 0u);

  QueryRequest query;
  query.topic = "events";
  query.saturation_threshold = 0.5;
  QueryResponse result;
  ASSERT_TRUE(frontend.Query("acme", query, &result).ok());
  ASSERT_GE(result.groups.size(), 2u);
  uint64_t total = 0;
  for (const TemplateGroup& g : result.groups) total += g.count;
  EXPECT_EQ(total, 160u);
  EXPECT_TRUE(result.next_cursor.empty());

  ListTopicsResponse listing;
  ASSERT_TRUE(frontend.ListTopics("acme", {}, &listing).ok());
  EXPECT_EQ(listing.names, (std::vector<std::string>{"events"}));

  DeleteTopicRequest drop;
  drop.name = "events";
  DeleteTopicResponse dropped;
  ASSERT_TRUE(frontend.DeleteTopic("acme", drop, &dropped).ok());
  EXPECT_TRUE(frontend.Query("acme", query, &result).IsNotFound());
  ASSERT_TRUE(frontend.ListTopics("acme", {}, &listing).ok());
  EXPECT_TRUE(listing.names.empty());
  EXPECT_TRUE(frontend.DeleteTopic("acme", drop, &dropped).IsNotFound());
}

TEST(ApiFrontendTest, WireLevelDispatchEndToEnd) {
  ServiceFrontend frontend;

  CreateTopicRequest create;
  create.name = "wire";
  create.config = SmallConfig();
  ResponseEnvelope env;
  CreateTopicResponse created;
  ASSERT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kCreateTopic, "acme", create)),
                             &created)
                  .ok());

  IngestBatchRequest batch;
  batch.topic = "wire";
  for (int i = 0; i < 80; ++i) batch.texts.push_back(SshLog(i));
  IngestBatchResponse seqs;
  ASSERT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kIngestBatch, "acme", batch)),
                             &seqs)
                  .ok());
  ASSERT_EQ(seqs.seqs.size(), 80u);
  EXPECT_EQ(seqs.seqs.front(), 0u);
  EXPECT_EQ(seqs.seqs.back(), 79u);

  QueryRequest query;
  query.topic = "wire";
  query.saturation_threshold = 0.5;
  QueryResponse result;
  ASSERT_TRUE(
      DecodeResponse(
          frontend.Dispatch(EncodeRequest(ApiMethod::kQuery, "acme", query)),
          &result)
          .ok());
  uint64_t total = 0;
  for (const TemplateGroup& g : result.groups) total += g.count;
  EXPECT_EQ(total, 80u);

  // Unknown method → NotSupported envelope, not a crash.
  RequestEnvelope unknown;
  unknown.method = static_cast<ApiMethod>(77);
  unknown.tenant = "acme";
  std::string unknown_bytes;
  unknown.EncodeTo(&unknown_bytes);
  ResponseEnvelope unknown_resp;
  ASSERT_TRUE(unknown_resp.DecodeFrom(frontend.Dispatch(unknown_bytes)).ok());
  EXPECT_TRUE(unknown_resp.status.IsNotSupported());

  // Missing tenant → InvalidArgument through the wire.
  DeleteTopicRequest drop;
  drop.name = "wire";
  DeleteTopicResponse dropped;
  uint64_t retry = 0;
  EXPECT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kDeleteTopic, "", drop)),
                             &dropped, &retry)
                  .IsInvalidArgument());
}

TEST(ApiFrontendTest, TenantIsolation) {
  ServiceFrontend frontend;
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "shared-name").ok());
  std::vector<std::string> texts;
  for (int i = 0; i < 60; ++i) texts.push_back(SshLog(i));
  ASSERT_TRUE(IngestTexts(frontend, "acme", "shared-name", texts).ok());

  // Tenant B sees nothing of A's topic: not in listings, not readable,
  // not deletable — and can claim the same visible name.
  ListTopicsResponse listing;
  ASSERT_TRUE(frontend.ListTopics("globex", {}, &listing).ok());
  EXPECT_TRUE(listing.names.empty());

  GetStatsRequest stats_req;
  stats_req.topic = "shared-name";
  GetStatsResponse stats;
  EXPECT_TRUE(
      frontend.GetStats("globex", stats_req, &stats).IsNotFound());

  DeleteTopicRequest drop;
  drop.name = "shared-name";
  DeleteTopicResponse dropped;
  EXPECT_TRUE(frontend.DeleteTopic("globex", drop, &dropped).IsNotFound());

  ASSERT_TRUE(CreateSmallTopic(frontend, "globex", "shared-name").ok());
  ASSERT_TRUE(
      IngestTexts(frontend, "globex", "shared-name", {DiskLog(1)}).ok());

  GetStatsResponse a_stats, b_stats;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &a_stats).ok());
  ASSERT_TRUE(frontend.GetStats("globex", stats_req, &b_stats).ok());
  EXPECT_EQ(a_stats.stats.ingested_records, 60u);
  EXPECT_EQ(b_stats.stats.ingested_records, 1u);

  // A's delete removes only A's topic.
  ASSERT_TRUE(frontend.DeleteTopic("acme", drop, &dropped).ok());
  EXPECT_TRUE(frontend.GetStats("acme", stats_req, &a_stats).IsNotFound());
  EXPECT_TRUE(frontend.GetStats("globex", stats_req, &b_stats).ok());

  // Names that could escape the namespace — or, under storage_root,
  // the directory sandbox — are rejected: separators and the two path
  // traversal components.
  EXPECT_TRUE(CreateSmallTopic(frontend, "a/b", "t").IsInvalidArgument());
  EXPECT_TRUE(CreateSmallTopic(frontend, "", "t").IsInvalidArgument());
  EXPECT_TRUE(CreateSmallTopic(frontend, "acme", "a/b").IsInvalidArgument());
  EXPECT_TRUE(CreateSmallTopic(frontend, "..", "t").IsInvalidArgument());
  EXPECT_TRUE(CreateSmallTopic(frontend, "acme", "..").IsInvalidArgument());
  EXPECT_TRUE(CreateSmallTopic(frontend, ".", "t").IsInvalidArgument());
  EXPECT_TRUE(CreateSmallTopic(frontend, "acme", ".").IsInvalidArgument());
}

TEST(ApiFrontendTest, PaginatedQueryEqualsUnpaginated) {
  ServiceFrontend frontend;
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "events").ok());
  std::vector<std::string> texts;
  for (int i = 0; i < 150; ++i) {
    texts.push_back(SshLog(i));
    texts.push_back(DiskLog(i));
    texts.push_back("FATAL replication lag on shard " + std::to_string(i % 4));
  }
  ASSERT_TRUE(IngestTexts(frontend, "acme", "events", texts).ok());
  TrainNowRequest train;
  train.topic = "events";
  TrainNowResponse trained;
  ASSERT_TRUE(frontend.TrainNow("acme", train, &trained).ok());

  QueryRequest query;
  query.topic = "events";
  query.saturation_threshold = 0.6;
  QueryResponse full;
  ASSERT_TRUE(frontend.Query("acme", query, &full).ok());
  ASSERT_GE(full.groups.size(), 3u);

  query.max_groups = 2;
  std::vector<TemplateGroup> paged;
  int pages = 0;
  for (;;) {
    QueryResponse page;
    ASSERT_TRUE(frontend.Query("acme", query, &page).ok());
    EXPECT_LE(page.groups.size(), 2u);
    for (TemplateGroup& g : page.groups) paged.push_back(std::move(g));
    ++pages;
    ASSERT_LT(pages, 200);
    if (page.next_cursor.empty()) break;
    query.cursor = page.next_cursor;
  }
  ASSERT_EQ(paged.size(), full.groups.size());
  for (size_t i = 0; i < paged.size(); ++i) {
    EXPECT_EQ(paged[i].template_id, full.groups[i].template_id) << i;
    EXPECT_EQ(paged[i].template_text, full.groups[i].template_text) << i;
    EXPECT_EQ(paged[i].count, full.groups[i].count) << i;
    EXPECT_EQ(paged[i].sequence_numbers, full.groups[i].sequence_numbers)
        << i;
  }

  // The cursor pins the window: records ingested between pages are
  // invisible to the remaining pages.
  query.cursor.clear();
  query.max_groups = 1;
  QueryResponse first_page;
  ASSERT_TRUE(frontend.Query("acme", query, &first_page).ok());
  ASSERT_FALSE(first_page.next_cursor.empty());
  ASSERT_TRUE(
      IngestTexts(frontend, "acme", "events", {SshLog(1), SshLog(2)}).ok());
  uint64_t paged_total = 0;
  for (const TemplateGroup& g : first_page.groups) paged_total += g.count;
  query.cursor = first_page.next_cursor;
  for (;;) {
    QueryResponse page;
    ASSERT_TRUE(frontend.Query("acme", query, &page).ok());
    for (const TemplateGroup& g : page.groups) paged_total += g.count;
    if (page.next_cursor.empty()) break;
    query.cursor = page.next_cursor;
  }
  EXPECT_EQ(paged_total, texts.size());

  // Sequence-number omission leaves grouping untouched.
  query.cursor.clear();
  query.max_groups = 0;
  query.include_sequence_numbers = false;
  QueryResponse lean;
  ASSERT_TRUE(frontend.Query("acme", query, &lean).ok());
  // The two extra records may have shifted counts; compare against a
  // fresh full query instead of the stale one.
  QueryResponse full_now;
  query.include_sequence_numbers = true;
  ASSERT_TRUE(frontend.Query("acme", query, &full_now).ok());
  ASSERT_EQ(lean.groups.size(), full_now.groups.size());
  for (size_t i = 0; i < lean.groups.size(); ++i) {
    EXPECT_EQ(lean.groups[i].template_id, full_now.groups[i].template_id);
    EXPECT_EQ(lean.groups[i].count, full_now.groups[i].count);
    EXPECT_TRUE(lean.groups[i].sequence_numbers.empty());
  }

  // A corrupted cursor is an InvalidArgument, not a crash.
  query.cursor = "not a cursor";
  QueryResponse broken;
  EXPECT_TRUE(frontend.Query("acme", query, &broken).IsInvalidArgument());
}

// Cursors page by resume key only. A token without one (minted before
// v8, when pages resumed at a positional group offset under tag 3) is
// rejected rather than served from the first group again; the retired
// tag 3 on an otherwise current cursor is skipped.
TEST(ApiFrontendTest, CursorWithoutResumeKeyIsRejected) {
  ServiceFrontend frontend;
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "events").ok());
  std::vector<std::string> texts;
  for (int i = 0; i < 120; ++i) {
    texts.push_back(i % 2 == 0 ? SshLog(i) : DiskLog(i));
  }
  ASSERT_TRUE(IngestTexts(frontend, "acme", "events", texts).ok());

  QueryRequest query;
  query.topic = "events";
  query.max_groups = 1;
  QueryResponse first;
  ASSERT_TRUE(frontend.Query("acme", query, &first).ok());
  ASSERT_FALSE(first.next_cursor.empty());

  std::string legacy;
  FieldWriter w(&legacy);
  w.PutU64(1, 0);
  w.PutU64(2, texts.size());
  w.PutU64(3, 1);  // the retired positional offset
  w.PutDouble(4, 0.6);
  w.PutBool(5, true);
  query.cursor = legacy;
  QueryResponse rejected;
  EXPECT_TRUE(frontend.Query("acme", query, &rejected).IsInvalidArgument());

  query.cursor = first.next_cursor;
  QueryResponse second;
  ASSERT_TRUE(frontend.Query("acme", query, &second).ok());
  FieldWriter(&query.cursor).PutU64(3, 1);
  QueryResponse second_again;
  ASSERT_TRUE(frontend.Query("acme", query, &second_again).ok());
  ASSERT_EQ(second.groups.size(), 1u);
  ASSERT_EQ(second_again.groups.size(), 1u);
  EXPECT_EQ(second_again.groups[0].template_id, second.groups[0].template_id);
  EXPECT_NE(second.groups[0].template_id, first.groups[0].template_id);
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

TEST(ApiFrontendTest, TopicQuotaEnforcedAndReleasedOnDelete) {
  FrontendConfig config;
  config.max_topics_per_tenant = 2;
  ServiceFrontend frontend(config);
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "a").ok());
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "b").ok());
  const Status third = CreateSmallTopic(frontend, "acme", "c");
  EXPECT_TRUE(third.IsResourceExhausted()) << third.ToString();
  // Another tenant has its own quota.
  EXPECT_TRUE(CreateSmallTopic(frontend, "globex", "a").ok());
  // Deleting frees the slot; a failed create never consumes one.
  DeleteTopicRequest drop;
  drop.name = "a";
  DeleteTopicResponse dropped;
  ASSERT_TRUE(frontend.DeleteTopic("acme", drop, &dropped).ok());
  EXPECT_TRUE(CreateSmallTopic(frontend, "acme", "c").ok());
  EXPECT_TRUE(CreateSmallTopic(frontend, "acme", "b").IsAlreadyExists());
  EXPECT_TRUE(CreateSmallTopic(frontend, "acme", "d").IsResourceExhausted());
}

TEST(ApiFrontendTest, RateQuotaDeniesWithRetryHintAndRecovers) {
  uint64_t fake_now_us = 1'000'000;
  FrontendConfig config;
  config.max_ingest_records_per_sec = 1000;
  config.burst_seconds = 1.0;  // capacity: 1000 records
  config.clock_us = [&fake_now_us] { return fake_now_us; };
  ServiceFrontend frontend(config);
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "t").ok());

  std::vector<std::string> batch;
  for (int i = 0; i < 800; ++i) batch.push_back(SshLog(i));

  // First 800 drain the bucket to 200; the next 800 must wait for 600
  // records to refill → 600ms hint.
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", batch).ok());
  uint64_t retry_after_us = 0;
  const Status denied =
      IngestTexts(frontend, "acme", "t", batch, &retry_after_us);
  ASSERT_TRUE(denied.IsResourceExhausted()) << denied.ToString();
  EXPECT_NEAR(static_cast<double>(retry_after_us), 600'000.0, 1'000.0);

  // A denial consumes nothing: the same request succeeds exactly when
  // the hint says.
  fake_now_us += retry_after_us;
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", batch, &retry_after_us).ok());

  // Single-record Ingest is metered by the same buckets.
  IngestRequest one;
  one.topic = "t";
  one.text = SshLog(0);
  IngestResponse one_resp;
  const Status one_denied =
      frontend.Ingest("acme", one, &one_resp, &retry_after_us);
  EXPECT_TRUE(one_denied.IsResourceExhausted());
  EXPECT_GT(retry_after_us, 0u);
  fake_now_us += retry_after_us;
  EXPECT_TRUE(frontend.Ingest("acme", one, &one_resp, &retry_after_us).ok());

  // Other tenants are unaffected throughout.
  ASSERT_TRUE(CreateSmallTopic(frontend, "globex", "t").ok());
  EXPECT_TRUE(IngestTexts(frontend, "globex", "t", {SshLog(1)}).ok());
}

TEST(ApiFrontendTest, TenantMeterCountsAdmittedAndDenied) {
  uint64_t fake_now_us = 1'000'000;
  FrontendConfig config;
  config.max_ingest_records_per_sec = 1000;
  config.burst_seconds = 1.0;  // capacity: 1000 records
  config.clock_us = [&fake_now_us] { return fake_now_us; };
  ServiceFrontend frontend(config);
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "t").ok());

  std::vector<std::string> batch;
  uint64_t batch_bytes = 0;
  for (int i = 0; i < 800; ++i) {
    batch.push_back(SshLog(i));
    batch_bytes += batch.back().size();
  }
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", batch).ok());
  uint64_t retry_after_us = 0;
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", batch, &retry_after_us)
                  .IsResourceExhausted());

  GetStatsRequest stats_req;
  stats_req.topic = "t";
  GetStatsResponse stats;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  EXPECT_EQ(stats.tenant.admitted_requests, 1u);
  EXPECT_EQ(stats.tenant.admitted_records, 800u);
  EXPECT_EQ(stats.tenant.admitted_bytes, batch_bytes);
  // The denial was counted — and consumed nothing (denied, not lost).
  EXPECT_EQ(stats.tenant.denied_requests, 1u);
  EXPECT_EQ(stats.tenant.denied_records, 800u);
  EXPECT_EQ(stats.tenant.denied_bytes, batch_bytes);

  // The meter is tenant-wide: another tenant starts from zero.
  ASSERT_TRUE(CreateSmallTopic(frontend, "globex", "t").ok());
  GetStatsResponse other;
  ASSERT_TRUE(frontend.GetStats("globex", stats_req, &other).ok());
  EXPECT_EQ(other.tenant.admitted_requests, 0u);
  EXPECT_EQ(other.tenant.denied_requests, 0u);
}

TEST(ApiFrontendTest, TenantMeterCountsEvenWithoutRateLimits) {
  // Unlimited rates skip the token buckets entirely — the meter must
  // still record usage.
  ServiceFrontend frontend;
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "t").ok());
  ASSERT_TRUE(
      IngestTexts(frontend, "acme", "t", {SshLog(1), SshLog(2)}).ok());
  IngestRequest one;
  one.topic = "t";
  one.text = SshLog(3);
  IngestResponse one_resp;
  ASSERT_TRUE(frontend.Ingest("acme", one, &one_resp).ok());

  GetStatsRequest stats_req;
  stats_req.topic = "t";
  GetStatsResponse stats;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  EXPECT_EQ(stats.tenant.admitted_requests, 2u);
  EXPECT_EQ(stats.tenant.admitted_records, 3u);
  EXPECT_EQ(stats.tenant.admitted_bytes,
            SshLog(1).size() + SshLog(2).size() + SshLog(3).size());
  EXPECT_EQ(stats.tenant.denied_requests, 0u);
}

TEST(ApiFrontendTest, OversizedBatchAdmittedOnlyAgainstFullBucket) {
  uint64_t fake_now_us = 1'000'000;
  FrontendConfig config;
  config.max_ingest_records_per_sec = 100;  // capacity: 100
  config.clock_us = [&fake_now_us] { return fake_now_us; };
  ServiceFrontend frontend(config);
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "t").ok());

  std::vector<std::string> huge;
  for (int i = 0; i < 500; ++i) huge.push_back(SshLog(i));
  // Admitted against the full bucket (otherwise it could never run) —
  // and the overdraft delays the next request by the full debt.
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", huge).ok());
  uint64_t retry_after_us = 0;
  const Status denied =
      IngestTexts(frontend, "acme", "t", {SshLog(0)}, &retry_after_us);
  ASSERT_TRUE(denied.IsResourceExhausted());
  // Debt: -400 tokens; one record needs 401 refilled → ~4.01s.
  EXPECT_GT(retry_after_us, 4'000'000u);
  fake_now_us += retry_after_us;
  EXPECT_TRUE(
      IngestTexts(frontend, "acme", "t", {SshLog(0)}, &retry_after_us).ok());
}

TEST(ApiFrontendTest, InflightBatchCapRefusesConcurrentBatch) {
  FrontendConfig config;
  config.max_inflight_batches = 1;
  ServiceFrontend* frontend_ptr = nullptr;
  std::atomic<int> denials{0};
  std::atomic<bool> reentered{false};
  config.on_ingest_batch_start = [&](std::string_view tenant) {
    // Runs with the first batch's in-flight slot held: a second batch
    // for the same tenant must be refused, fast, with a hint.
    if (reentered.exchange(true)) return;  // only probe from the outer call
    IngestBatchRequest inner;
    inner.topic = "t";
    inner.texts = {"probe line"};
    IngestBatchResponse resp;
    uint64_t retry_after_us = 0;
    const Status denied = frontend_ptr->IngestBatch(
        std::string(tenant), std::move(inner), &resp, &retry_after_us);
    if (denied.IsResourceExhausted() && retry_after_us > 0) ++denials;
  };
  ServiceFrontend frontend(config);
  frontend_ptr = &frontend;
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "t").ok());
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", {SshLog(0)}).ok());
  EXPECT_EQ(denials.load(), 1);
  // The slot was released: the next batch sails through (its own probe
  // is suppressed by the reentered flag).
  EXPECT_TRUE(IngestTexts(frontend, "acme", "t", {SshLog(1)}).ok());
  // The cap rejection was metered as a denial like a rate-limit one.
  GetStatsRequest stats_req;
  stats_req.topic = "t";
  GetStatsResponse stats;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  EXPECT_EQ(stats.tenant.denied_requests, 1u);
  EXPECT_EQ(stats.tenant.denied_records, 1u);
  EXPECT_EQ(stats.tenant.admitted_requests, 2u);
}

// ---------------------------------------------------------------------
// Config validation + live updates
// ---------------------------------------------------------------------

TEST(ApiFrontendTest, CreateTopicValidatesConfigUpFront) {
  ServiceFrontend frontend;
  CreateTopicRequest req;
  req.name = "t";
  CreateTopicResponse resp;

  req.config = SmallConfig();
  req.config.num_ingest_shards = 0;
  Status s = frontend.CreateTopic("acme", req, &resp);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("num_ingest_shards"), std::string::npos);

  req.config = SmallConfig();
  req.config.train_interval_records = 0;
  s = frontend.CreateTopic("acme", req, &resp);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("train_interval_records"), std::string::npos);

  req.config = SmallConfig();
  req.config.variable_rules = {{"broken", "(unclosed"}};
  s = frontend.CreateTopic("acme", req, &resp);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("broken"), std::string::npos);

  req.config = SmallConfig();
  req.config.storage.kind = StorageConfig::Kind::kSegmentedDisk;
  req.config.storage.directory = "";
  s = frontend.CreateTopic("acme", req, &resp);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("storage.directory"), std::string::npos);

  req.config = SmallConfig();  // kMemory storage
  req.config.durability = DurabilityMode::kWalGroupCommit;
  s = frontend.CreateTopic("acme", req, &resp);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("durability"), std::string::npos);

  // None of the rejected creates consumed the name or a quota slot.
  req.config = SmallConfig();
  EXPECT_TRUE(frontend.CreateTopic("acme", req, &resp).ok());
}

TEST(ApiFrontendTest, UpdateTopicConfigAppliesLive) {
  ServiceFrontend frontend;
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "t").ok());
  std::vector<std::string> texts;
  for (int i = 0; i < 60; ++i) texts.push_back(SshLog(i));
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", texts).ok());

  GetStatsRequest stats_req;
  stats_req.topic = "t";
  GetStatsResponse stats;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  ASSERT_EQ(stats.stats.trainings, 1u);  // initial training at 50

  // Tighten the retrain cadence live: the next 200 records must now
  // trigger retrains (the original interval was effectively infinite).
  UpdateTopicConfigRequest update;
  update.name = "t";
  update.patch.train_interval_records = 100;
  UpdateTopicConfigResponse updated;
  ASSERT_TRUE(frontend.UpdateTopicConfig("acme", update, &updated).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(IngestTexts(frontend, "acme", "t", {SshLog(i)}).ok());
  }
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  EXPECT_GE(stats.stats.trainings, 2u);

  // Live reshard: stats reflect the new shard set and ingest keeps
  // grouping correctly through it.
  update.patch = TopicConfigPatch();
  update.patch.num_ingest_shards = 4;
  ASSERT_TRUE(frontend.UpdateTopicConfig("acme", update, &updated).ok());
  std::vector<std::string> more;
  for (int i = 0; i < 128; ++i) more.push_back(DiskLog(i));
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", more).ok());
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  EXPECT_EQ(stats.stats.shards.size(), 4u);

  QueryRequest query;
  query.topic = "t";
  query.saturation_threshold = 0.5;
  QueryResponse result;
  ASSERT_TRUE(frontend.Query("acme", query, &result).ok());
  uint64_t total = 0;
  for (const TemplateGroup& g : result.groups) total += g.count;
  EXPECT_EQ(total, 60u + 200u + 128u);

  // Invalid patch: rejected atomically, nothing applied.
  update.patch = TopicConfigPatch();
  update.patch.num_threads = 0;
  const Status bad = frontend.UpdateTopicConfig("acme", update, &updated);
  ASSERT_TRUE(bad.IsInvalidArgument());
  EXPECT_NE(bad.message().find("num_threads"), std::string::npos);
}

// ---------------------------------------------------------------------
// Lifecycle vs storage and background training
// ---------------------------------------------------------------------

TEST(ApiFrontendTest, DeleteTopicPurgesOrKeepsDiskStorage) {
  TempDir root;
  FrontendConfig fconfig;
  fconfig.storage_root = root.path();
  ServiceFrontend frontend(fconfig);
  CreateTopicRequest create;
  create.name = "t";
  create.config = SmallConfig();
  create.config.storage.kind = StorageConfig::Kind::kSegmentedDisk;
  create.config.storage.segment_data_bytes = 4096;
  CreateTopicResponse created;

  // With a storage root, clients must not pick their own directory —
  // a wire-supplied path could alias (and purge-delete) another
  // tenant's bytes.
  create.config.storage.directory = root.path() + "/globex/t";
  const Status hijack = frontend.CreateTopic("acme", create, &created);
  ASSERT_TRUE(hijack.IsInvalidArgument()) << hijack.ToString();
  EXPECT_NE(hijack.message().find("storage.directory"), std::string::npos);

  // The frontend assigns <root>/<tenant>/<topic>.
  create.config.storage.directory.clear();
  ASSERT_TRUE(frontend.CreateTopic("acme", create, &created).ok());
  const std::string assigned = root.path() + "/acme/t";
  std::vector<std::string> texts;
  for (int i = 0; i < 200; ++i) texts.push_back(SshLog(i));
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", texts).ok());
  ASSERT_TRUE(std::filesystem::exists(assigned));

  // Keep the bytes: the directory survives and a re-create RECOVERS
  // the records.
  DeleteTopicRequest drop;
  drop.name = "t";
  drop.purge_storage = false;
  DeleteTopicResponse dropped;
  ASSERT_TRUE(frontend.DeleteTopic("acme", drop, &dropped).ok());
  ASSERT_TRUE(std::filesystem::exists(assigned));
  ASSERT_TRUE(frontend.CreateTopic("acme", create, &created).ok());
  GetStatsRequest stats_req;
  stats_req.topic = "t";
  GetStatsResponse stats;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  EXPECT_EQ(stats.stats.recovered_records, 200u);

  // Purge: the directory goes with the topic.
  drop.purge_storage = true;
  ASSERT_TRUE(frontend.DeleteTopic("acme", drop, &dropped).ok());
  EXPECT_FALSE(std::filesystem::exists(assigned));
}

TEST(ApiFrontendTest, DeleteTopicDrainsInFlightTraining) {
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<bool> training_started{false};

  FrontendConfig fconfig;
  ServiceFrontend frontend(fconfig);
  CreateTopicRequest create;
  create.name = "t";
  create.config = SmallConfig();
  create.config.async_training = true;
  create.config.train_interval_records = 50;
  create.config.on_async_training_start = [&] {
    training_started.store(true);
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  CreateTopicResponse created;
  ASSERT_TRUE(frontend.CreateTopic("acme", create, &created).ok());

  // The first batch trips the initial training, which the ingest waits
  // for (no hook); the second trips a retrain, which parks at the gate.
  std::vector<std::string> texts;
  for (int i = 0; i < 60; ++i) texts.push_back(SshLog(i));
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", texts).ok());
  EXPECT_FALSE(training_started.load());
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", texts).ok());
  while (!training_started.load()) std::this_thread::yield();

  // Delete while the training is gated in flight; the destructor must
  // drain it (not deadlock, not crash). Open the gate from a helper
  // thread once the delete is underway.
  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    {
      std::lock_guard<std::mutex> lock(gate_mu);
      gate_open = true;
    }
    gate_cv.notify_all();
  });
  DeleteTopicRequest drop;
  drop.name = "t";
  DeleteTopicResponse dropped;
  EXPECT_TRUE(frontend.DeleteTopic("acme", drop, &dropped).ok());
  opener.join();
  ListTopicsResponse listing;
  ASSERT_TRUE(frontend.ListTopics("acme", {}, &listing).ok());
  EXPECT_TRUE(listing.names.empty());
}

// ---------------------------------------------------------------------
// Concurrency (run under TSAN via the ci tsan job)
// ---------------------------------------------------------------------

TEST(ApiFrontendTest, ConcurrentFrontendUseIsClean) {
  FrontendConfig config;
  config.max_inflight_batches = 8;
  ServiceFrontend frontend(config);
  TopicConfig topic_config = SmallConfig();
  topic_config.async_training = true;
  topic_config.train_interval_records = 500;
  CreateTopicRequest create;
  create.name = "t";
  create.config = topic_config;
  CreateTopicResponse created;
  ASSERT_TRUE(frontend.CreateTopic("acme", create, &created).ok());
  ASSERT_TRUE(frontend.CreateTopic("globex", create, &created).ok());

  constexpr int kBatches = 20;
  constexpr int kBatchSize = 64;
  std::atomic<uint64_t> acme_ok{0};

  auto ingester = [&](const std::string& tenant, int salt,
                      std::atomic<uint64_t>* ok_records) {
    for (int b = 0; b < kBatches; ++b) {
      IngestBatchRequest req;
      req.topic = "t";
      for (int i = 0; i < kBatchSize; ++i) {
        req.texts.push_back(SshLog(salt * 10000 + b * kBatchSize + i));
      }
      IngestBatchResponse resp;
      const Status s =
          frontend.IngestBatch(tenant, std::move(req), &resp, nullptr);
      if (s.ok() && ok_records != nullptr) {
        ok_records->fetch_add(resp.seqs.size());
      }
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(ingester, "acme", 1, &acme_ok);
  threads.emplace_back(ingester, "acme", 2, &acme_ok);
  threads.emplace_back(ingester, "globex", 3, nullptr);
  threads.emplace_back([&] {
    for (int i = 0; i < 50; ++i) {
      QueryRequest query;
      query.topic = "t";
      query.saturation_threshold = 0.6;
      query.max_groups = 4;
      query.include_sequence_numbers = false;
      QueryResponse result;
      (void)frontend.Query("acme", query, &result);
      GetStatsRequest stats_req;
      stats_req.topic = "t";
      GetStatsResponse stats;
      (void)frontend.GetStats("acme", stats_req, &stats);
      ListTopicsResponse listing;
      (void)frontend.ListTopics("acme", {}, &listing);
      std::this_thread::yield();
    }
  });
  threads.emplace_back([&] {
    // Churn a third tenant's lifecycle while the others run.
    for (int i = 0; i < 10; ++i) {
      CreateTopicRequest c;
      c.name = "scratch";
      c.config = SmallConfig();
      CreateTopicResponse cr;
      (void)frontend.CreateTopic("initech", c, &cr);
      IngestBatchRequest req;
      req.topic = "scratch";
      req.texts = {DiskLog(i)};
      IngestBatchResponse resp;
      (void)frontend.IngestBatch("initech", std::move(req), &resp, nullptr);
      DeleteTopicRequest d;
      d.name = "scratch";
      DeleteTopicResponse dr;
      (void)frontend.DeleteTopic("initech", d, &dr);
    }
  });
  for (std::thread& t : threads) t.join();

  GetStatsRequest stats_req;
  stats_req.topic = "t";
  GetStatsResponse stats;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  EXPECT_EQ(stats.stats.ingested_records, acme_ok.load());
  EXPECT_EQ(acme_ok.load(),
            static_cast<uint64_t>(2 * kBatches * kBatchSize));
}

TEST(ApiFrontendTest, ConcurrentLiveReshardIsClean) {
  ServiceFrontend frontend;
  TopicConfig topic_config = SmallConfig();
  topic_config.num_ingest_shards = 4;
  CreateTopicRequest create;
  create.name = "t";
  create.config = topic_config;
  CreateTopicResponse created;
  ASSERT_TRUE(frontend.CreateTopic("acme", create, &created).ok());
  // Train first so batches take the sharded path from the start.
  std::vector<std::string> seed;
  for (int i = 0; i < 60; ++i) seed.push_back(SshLog(i));
  ASSERT_TRUE(IngestTexts(frontend, "acme", "t", seed).ok());

  constexpr int kBatches = 30;
  constexpr int kBatchSize = 64;
  std::atomic<uint64_t> ok_records{0};
  auto ingester = [&](int salt) {
    for (int b = 0; b < kBatches; ++b) {
      IngestBatchRequest req;
      req.topic = "t";
      for (int i = 0; i < kBatchSize; ++i) {
        req.texts.push_back(SshLog(salt * 100000 + b * kBatchSize + i));
      }
      IngestBatchResponse resp;
      if (frontend.IngestBatch("acme", std::move(req), &resp, nullptr).ok()) {
        ok_records.fetch_add(resp.seqs.size());
      }
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back(ingester, 1);
  threads.emplace_back(ingester, 2);
  threads.emplace_back([&] {
    // Flip the shard count under live traffic: batches racing the
    // reshard must fall back safely (generation bump), never touch a
    // stale shard set, and lose no records.
    const int shard_counts[] = {1, 4, 2, 8, 1, 4};
    for (int n : shard_counts) {
      UpdateTopicConfigRequest update;
      update.name = "t";
      update.patch.num_ingest_shards = n;
      UpdateTopicConfigResponse updated;
      ASSERT_TRUE(frontend.UpdateTopicConfig("acme", update, &updated).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (std::thread& t : threads) t.join();

  GetStatsRequest stats_req;
  stats_req.topic = "t";
  GetStatsResponse stats;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &stats).ok());
  EXPECT_EQ(stats.stats.ingested_records, 60u + ok_records.load());
  EXPECT_EQ(ok_records.load(),
            static_cast<uint64_t>(2 * kBatches * kBatchSize));

  // Every record still groups and resolves.
  QueryRequest query;
  query.topic = "t";
  query.saturation_threshold = 0.5;
  query.include_sequence_numbers = false;
  QueryResponse result;
  ASSERT_TRUE(frontend.Query("acme", query, &result).ok());
  uint64_t total = 0;
  for (const TemplateGroup& g : result.groups) total += g.count;
  EXPECT_EQ(total, 60u + ok_records.load());
}

// ---------------------------------------------------------------------
// Envelope v2: request ids + auth tokens
// ---------------------------------------------------------------------

TEST(ApiMessagesTest, EnvelopeV2FieldsRoundTrip) {
  RequestEnvelope req;
  req.method = ApiMethod::kIngest;
  req.tenant = "acme";
  req.payload = "p";
  req.request_id = 0xDEADBEEFCAFEull;
  req.auth_token = "s3cret\0bytes";

  RequestEnvelope got;
  ASSERT_TRUE(got.DecodeFrom(Encode(req)).ok());
  EXPECT_EQ(got.request_id, req.request_id);
  EXPECT_EQ(got.auth_token, req.auth_token);

  // The view aliases the encoded buffer — keep it alive while reading.
  const std::string encoded = Encode(req);
  RequestEnvelopeView view;
  ASSERT_TRUE(view.DecodeFrom(encoded).ok());
  EXPECT_EQ(view.request_id, req.request_id);
  EXPECT_EQ(view.auth_token, req.auth_token);

  ResponseEnvelope resp;
  resp.status = Status::OK();
  resp.request_id = 77;
  ResponseEnvelope resp2;
  ASSERT_TRUE(resp2.DecodeFrom(Encode(resp)).ok());
  EXPECT_EQ(resp2.request_id, 77u);
}

TEST(ApiMessagesTest, V2FieldsAreOptionalOnTheWire) {
  // Zero request_id / empty token encode NOTHING — byte-identical to
  // what a v1 encoder produced, so v1 peers round-trip unchanged.
  RequestEnvelope v1_shape;
  v1_shape.method = ApiMethod::kQuery;
  v1_shape.tenant = "t";
  v1_shape.payload = "x";
  RequestEnvelope with_fields = v1_shape;
  with_fields.request_id = 0;
  with_fields.auth_token = "";
  EXPECT_EQ(Encode(v1_shape), Encode(with_fields));

  // And a v1-version envelope (api_version = 1, no v2 tags) decodes
  // with the v2 defaults.
  RequestEnvelope old_peer = v1_shape;
  old_peer.api_version = 1;
  RequestEnvelope got;
  ASSERT_TRUE(got.DecodeFrom(Encode(old_peer)).ok());
  EXPECT_EQ(got.api_version, 1u);
  EXPECT_EQ(got.request_id, 0u);
  EXPECT_TRUE(got.auth_token.empty());
}

TEST(ApiFrontendTest, DispatchEchoesRequestId) {
  ServiceFrontend frontend;
  CreateTopicRequest create;
  create.name = "t";
  create.config = SmallConfig();
  ServiceFrontend::DispatchInfo info;
  const std::string response = frontend.Dispatch(
      EncodeRequest(ApiMethod::kCreateTopic, "acme", create, /*request_id=*/42),
      &info);
  CreateTopicResponse created;
  uint64_t echoed = 0;
  ASSERT_TRUE(DecodeResponse(response, &created, nullptr, &echoed).ok());
  EXPECT_EQ(echoed, 42u);
  EXPECT_EQ(info.request_id, 42u);
  EXPECT_EQ(info.code, Status::Code::kOk);

  // Errors echo the id too — correlation matters MOST for failures.
  const std::string err_response = frontend.Dispatch(
      EncodeRequest(ApiMethod::kCreateTopic, "acme", create, /*request_id=*/43),
      &info);
  CreateTopicResponse dup;
  echoed = 0;
  EXPECT_TRUE(DecodeResponse(err_response, &dup, nullptr, &echoed)
                  .IsAlreadyExists());
  EXPECT_EQ(echoed, 43u);
  EXPECT_EQ(info.code, Status::Code::kAlreadyExists);
}

TEST(ApiFrontendTest, AuthRejectsBeforeAdmissionAccounting) {
  FrontendConfig config;
  config.tenant_tokens = {{"acme", "acme-token"}, {"globex", "globex-token"}};
  ServiceFrontend frontend(config);

  CreateTopicRequest create;
  create.name = "t";
  create.config = SmallConfig();

  // No token, wrong token, right-token-wrong-tenant, unknown tenant:
  // all PermissionDenied, all indistinguishable.
  auto denied_msg = [&](std::string_view tenant, std::string_view token) {
    ServiceFrontend::DispatchInfo info;
    const std::string response = frontend.Dispatch(
        EncodeRequest(ApiMethod::kCreateTopic, tenant, create, 1, token),
        &info);
    CreateTopicResponse resp;
    const Status s = DecodeResponse(response, &resp);
    EXPECT_TRUE(s.IsPermissionDenied()) << s.ToString();
    EXPECT_EQ(info.code, Status::Code::kPermissionDenied);
    return std::string(s.message());
  };
  const std::string a = denied_msg("acme", "");
  const std::string b = denied_msg("acme", "globex-token");
  const std::string c = denied_msg("nobody", "acme-token");
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);

  // The right token works...
  ServiceFrontend::DispatchInfo info;
  std::string response = frontend.Dispatch(
      EncodeRequest(ApiMethod::kCreateTopic, "acme", create, 2, "acme-token"),
      &info);
  CreateTopicResponse created;
  ASSERT_TRUE(DecodeResponse(response, &created).ok());

  // ...and auth-rejected ingests never reached admission: the tenant
  // meter records no denials (rejection happens BEFORE accounting).
  IngestBatchRequest batch;
  batch.topic = "t";
  batch.texts = {"a", "b"};
  for (int i = 0; i < 5; ++i) {
    frontend.Dispatch(
        EncodeRequest(ApiMethod::kIngestBatch, "acme", batch, 3, "wrong"));
  }
  GetStatsRequest stats_req;
  stats_req.topic = "t";
  response = frontend.Dispatch(EncodeRequest(ApiMethod::kGetStats, "acme",
                                             stats_req, 4, "acme-token"));
  GetStatsResponse stats;
  ASSERT_TRUE(DecodeResponse(response, &stats).ok());
  EXPECT_EQ(stats.tenant.denied_requests, 0u);
  EXPECT_EQ(stats.tenant.admitted_requests, 0u);
}

TEST(ApiFrontendTest, AuthDisabledAcceptsV1Envelopes) {
  // The pre-v2 client shape: api_version 1, no request_id, no token.
  // Against an auth-disabled frontend it must round-trip unchanged.
  ServiceFrontend frontend;
  CreateTopicRequest create;
  create.name = "t";
  create.config = SmallConfig();
  RequestEnvelope env;
  env.api_version = 1;
  env.method = ApiMethod::kCreateTopic;
  env.tenant = "acme";
  env.payload = Encode(create);
  CreateTopicResponse created;
  uint64_t echoed = 99;
  ASSERT_TRUE(
      DecodeResponse(frontend.Dispatch(Encode(env)), &created, nullptr,
                     &echoed)
          .ok());
  EXPECT_EQ(echoed, 0u);  // nothing to echo, nothing echoed
}

TEST(ApiFrontendTest, CustomAuthenticatorIsConsulted) {
  class EvenTenantsOnly : public Authenticator {
   public:
    Status Authenticate(std::string_view tenant,
                        std::string_view token) const override {
      if (!token.empty() && tenant.size() % 2 == 0) return Status::OK();
      return Status::PermissionDenied("odd tenant");
    }
  };
  FrontendConfig config;
  config.authenticator = std::make_shared<EvenTenantsOnly>();
  ServiceFrontend frontend(config);

  ListTopicsRequest list;
  ListTopicsResponse topics;
  EXPECT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kListTopics, "ab", list, 1, "x")),
                             &topics)
                  .ok());
  EXPECT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kListTopics, "abc", list, 2, "x")),
                             &topics)
                  .IsPermissionDenied());
}

// ---------------------------------------------------------------------
// Auth token rotation
// ---------------------------------------------------------------------

TEST(ApiFrontendTest, TokenRotationSwapsTableWithoutDroppingService) {
  FrontendConfig config;
  config.tenant_tokens = {{"acme", "token-v1"}};
  ServiceFrontend frontend(config);
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "events").ok());

  ListTopicsRequest list;
  ListTopicsResponse topics;
  ASSERT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kListTopics, "acme", list, 1,
                                 "token-v1")),
                             &topics)
                  .ok());

  // Rotate: the very next request sees the new table — the old token is
  // denied, the new one admitted, no connection or topic state lost.
  frontend.UpdateTenantTokens({{"acme", "token-v2"}, {"globex", "g-tok"}});
  EXPECT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kListTopics, "acme", list, 2,
                                 "token-v1")),
                             &topics)
                  .IsPermissionDenied());
  ASSERT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kListTopics, "acme", list, 3,
                                 "token-v2")),
                             &topics)
                  .ok());
  EXPECT_EQ(topics.names, (std::vector<std::string>{"events"}));
  // A tenant added by the rotation authenticates immediately.
  ASSERT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kListTopics, "globex", list, 4,
                                 "g-tok")),
                             &topics)
                  .ok());

  // Rotating to an empty table disables auth (mirrors construction).
  frontend.UpdateTenantTokens({});
  ASSERT_TRUE(DecodeResponse(frontend.Dispatch(EncodeRequest(
                                 ApiMethod::kListTopics, "acme", list, 5)),
                             &topics)
                  .ok());
}

TEST(ApiFrontendTest, TokenRotationUnderConcurrentDispatchIsClean) {
  FrontendConfig config;
  config.tenant_tokens = {{"acme", "tok-0"}};
  ServiceFrontend frontend(config);
  ASSERT_TRUE(CreateSmallTopic(frontend, "acme", "events").ok());

  std::atomic<bool> stop{false};
  std::thread rotator([&] {
    int gen = 0;
    while (!stop.load()) {
      frontend.UpdateTenantTokens({{"acme", "tok-" + std::to_string(++gen)}});
    }
  });
  // Requests race the rotation: every outcome must be ok or a clean
  // PermissionDenied — never a crash or a torn authenticator.
  for (int i = 0; i < 2000; ++i) {
    ListTopicsRequest list;
    ListTopicsResponse topics;
    const Status s = DecodeResponse(
        frontend.Dispatch(EncodeRequest(ApiMethod::kListTopics, "acme", list,
                                        static_cast<uint64_t>(i + 1),
                                        "tok-" + std::to_string(i))),
        &topics);
    ASSERT_TRUE(s.ok() || s.IsPermissionDenied()) << s.ToString();
  }
  stop.store(true);
  rotator.join();
}

// ---------------------------------------------------------------------
// Time-range query predicates
// ---------------------------------------------------------------------

TEST(ApiMessagesTest, QueryTimeRangeFieldsAreOptionalOnTheWire) {
  // Defaults encode as absent tags: an unfiltered v2 request is
  // byte-identical to a v1 request.
  QueryRequest plain;
  plain.topic = "t";
  QueryRequest bounded = plain;
  bounded.min_timestamp_us = 10;
  bounded.max_timestamp_us = 20;
  EXPECT_LT(Encode(plain).size(), Encode(bounded).size());

  QueryRequest decoded;
  ASSERT_TRUE(decoded.DecodeFrom(Encode(bounded)).ok());
  EXPECT_EQ(decoded.min_timestamp_us, 10u);
  EXPECT_EQ(decoded.max_timestamp_us, 20u);
  QueryRequest unfiltered;
  ASSERT_TRUE(unfiltered.DecodeFrom(Encode(plain)).ok());
  EXPECT_EQ(unfiltered.min_timestamp_us, 0u);
  EXPECT_EQ(unfiltered.max_timestamp_us, UINT64_MAX);
}

/// Ingests `n` records with timestamps 1..n into a topic.
Status IngestTimestamped(ServiceFrontend& frontend, const std::string& tenant,
                         const std::string& topic, int n) {
  IngestBatchRequest req;
  req.topic = topic;
  for (int i = 0; i < n; ++i) {
    req.texts.push_back(SshLog(i));
    req.timestamps_us.push_back(static_cast<uint64_t>(i + 1));
  }
  IngestBatchResponse resp;
  return frontend.IngestBatch(tenant, std::move(req), &resp, nullptr);
}

uint64_t CountInWindow(ServiceFrontend& frontend, const std::string& topic,
                       uint64_t min_ts, uint64_t max_ts,
                       uint32_t page_size = 0) {
  QueryRequest req;
  req.topic = topic;
  req.include_sequence_numbers = false;
  req.min_timestamp_us = min_ts;
  req.max_timestamp_us = max_ts;
  req.max_groups = page_size;
  uint64_t total = 0;
  while (true) {
    QueryResponse resp;
    if (!frontend.Query("acme", req, &resp).ok()) return UINT64_MAX;
    for (const TemplateGroup& g : resp.groups) total += g.count;
    if (resp.next_cursor.empty()) return total;
    req.cursor = resp.next_cursor;
  }
}

TEST(ApiFrontendTest, TimeRangeQueryFiltersMemoryAndDiskTopics) {
  // Disk-backed topic: sealed segments carry persisted min/max
  // timestamps, so out-of-window segments are pruned without a read.
  TempDir root;
  FrontendConfig config;
  config.storage_root = root.path();
  ServiceFrontend frontend(config);

  CreateTopicRequest create;
  create.name = "disk";
  create.config = SmallConfig();
  create.config.initial_train_records = 1u << 30;  // deterministic counts
  create.config.storage.kind = StorageConfig::Kind::kSegmentedDisk;
  create.config.storage.segment_data_bytes = 2048;
  CreateTopicResponse created;
  ASSERT_TRUE(frontend.CreateTopic("acme", create, &created).ok());
  ASSERT_TRUE(IngestTimestamped(frontend, "acme", "disk", 200).ok());

  EXPECT_EQ(CountInWindow(frontend, "disk", 0, UINT64_MAX), 200u);
  EXPECT_EQ(CountInWindow(frontend, "disk", 51, 150), 100u);
  EXPECT_EQ(CountInWindow(frontend, "disk", 1, 1), 1u);
  EXPECT_EQ(CountInWindow(frontend, "disk", 201, UINT64_MAX), 0u);
  // Pagination pins the window in the cursor: paged == unpaged.
  EXPECT_EQ(CountInWindow(frontend, "disk", 51, 150, /*page_size=*/3), 100u);

  // Memory-backed topic: same semantics through the scan filter.
  CreateTopicRequest mem;
  mem.name = "mem";
  mem.config = SmallConfig();
  mem.config.initial_train_records = 1u << 30;
  CreateTopicResponse mem_created;
  ASSERT_TRUE(frontend.CreateTopic("acme", mem, &mem_created).ok());
  ASSERT_TRUE(IngestTimestamped(frontend, "acme", "mem", 120).ok());
  EXPECT_EQ(CountInWindow(frontend, "mem", 0, UINT64_MAX), 120u);
  EXPECT_EQ(CountInWindow(frontend, "mem", 30, 59), 30u);
  EXPECT_EQ(CountInWindow(frontend, "mem", 121, UINT64_MAX), 0u);
}

TEST(ApiFrontendTest, TimeRangePrunesSealedSegmentsWithoutScanning) {
  TempDir root;
  FrontendConfig config;
  config.storage_root = root.path();
  ServiceFrontend frontend(config);

  CreateTopicRequest create;
  create.name = "pruned";
  create.config = SmallConfig();
  create.config.initial_train_records = 1u << 30;
  create.config.storage.kind = StorageConfig::Kind::kSegmentedDisk;
  create.config.storage.segment_data_bytes = 2048;
  CreateTopicResponse created;
  ASSERT_TRUE(frontend.CreateTopic("acme", create, &created).ok());
  ASSERT_TRUE(IngestTimestamped(frontend, "acme", "pruned", 400).ok());

  GetStatsRequest stats_req;
  stats_req.topic = "pruned";
  GetStatsResponse before;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &before).ok());

  // A window entirely inside the FIRST records: every later sealed
  // segment's [min_ts, max_ts] misses it and is skipped without a
  // record visit (the postings fast path handles covered segments, so
  // visits only grow for the partially-covered boundary segment).
  EXPECT_EQ(CountInWindow(frontend, "pruned", 1, 10), 10u);
  GetStatsResponse after;
  ASSERT_TRUE(frontend.GetStats("acme", stats_req, &after).ok());
  const uint64_t visits = after.stats.storage_scan_record_visits -
                          before.stats.storage_scan_record_visits;
  // Far fewer visits than records: pruning worked. The one boundary
  // segment may be header-hopped (~17 records per 2 KiB segment).
  EXPECT_LT(visits, 60u);
}

}  // namespace
}  // namespace api
}  // namespace bytebrain
