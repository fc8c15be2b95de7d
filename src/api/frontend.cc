#include "api/frontend.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <utility>

#include "api/wire_schema.h"
#include "logstore/segment_cache.h"

namespace bytebrain {
namespace api {

namespace {

constexpr size_t kMaxNameBytes = 200;

/// Shared rules for tenant and topic names. '/' is the namespace
/// separator in the underlying catalog, so neither half may contain it
/// — that is what makes `tenant/name` collision-free by construction.
/// "." and ".." are rejected because names become path COMPONENTS under
/// FrontendConfig::storage_root; with '/' already banned they are the
/// only traversal primitives, and a topic named ".." would resolve its
/// segment directory (which DeleteTopic purge remove_all()s) outside
/// its tenant's subtree.
Status ValidateNamePart(const char* kind, std::string_view s) {
  if (s.empty()) {
    return Status::InvalidArgument(std::string(kind) + " must be non-empty");
  }
  if (s == "." || s == "..") {
    return Status::InvalidArgument(std::string(kind) +
                                   " must not be '.' or '..'");
  }
  if (s.size() > kMaxNameBytes) {
    return Status::InvalidArgument(std::string(kind) + " exceeds " +
                                   std::to_string(kMaxNameBytes) + " bytes");
  }
  if (s.find('/') != std::string_view::npos) {
    return Status::InvalidArgument(std::string(kind) +
                                   " must not contain '/'");
  }
  if (s.find('\0') != std::string_view::npos) {
    return Status::InvalidArgument(std::string(kind) +
                                   " must not contain NUL bytes");
  }
  return Status::OK();
}

std::string FullTopicName(std::string_view tenant, std::string_view name) {
  std::string full;
  full.reserve(tenant.size() + 1 + name.size());
  full.append(tenant);
  full.push_back('/');
  full.append(name);
  return full;
}

/// The opaque Query continuation token: the resolved window, threshold
/// and time range, plus the resume key of the last group already
/// served. Snapshotting the window end in the cursor is what makes page
/// N+1 read the same record range page 1 did, even while ingest keeps
/// appending; the resume key makes page N+1 seek past page N in the
/// global group order instead of regrouping pages 1..N.
struct QueryCursor {
  uint64_t begin_seq = 0;
  uint64_t end_seq = 0;
  double saturation = 0.0;
  bool include_sequence_numbers = true;
  /// Always true on a minted cursor. Tag 3 (a positional group offset)
  /// is retired; a token without a resume key predates v8 and is
  /// rejected — serving it from group 0 would repeat groups.
  bool has_resume_key = false;
  uint64_t resume_count = 0;
  TemplateId resume_template_id = kInvalidTemplateId;
  uint64_t min_timestamp_us = 0;
  uint64_t max_timestamp_us = UINT64_MAX;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

using QueryCursorFields =
    wire::Fields<wire::Scalar<1, &QueryCursor::begin_seq>,
                 wire::Scalar<2, &QueryCursor::end_seq>,
                 wire::Scalar<4, &QueryCursor::saturation>,
                 wire::Scalar<5, &QueryCursor::include_sequence_numbers>,
                 wire::Scalar<6, &QueryCursor::has_resume_key>,
                 wire::Scalar<7, &QueryCursor::resume_count>,
                 wire::Scalar<8, &QueryCursor::resume_template_id>,
                 wire::Scalar<9, &QueryCursor::min_timestamp_us>,
                 wire::Scalar<10, &QueryCursor::max_timestamp_us>>;

void QueryCursor::EncodeTo(std::string* out) const {
  QueryCursorFields::Encode(*this, out);
}

Status QueryCursor::DecodeFrom(std::string_view bytes) {
  if (!QueryCursorFields::Decode(bytes, this, "query cursor").ok() ||
      !has_resume_key) {
    return Status::InvalidArgument("malformed query cursor");
  }
  return Status::OK();
}

/// Dispatch glue: decode the method's request, run it, encode one
/// response envelope (payload encoded in place — see EncodeResponse)
/// echoing `request_id`, and report the outcome through `info`.
/// `call(req, resp, retry_after_us)` is the bound typed method.
template <typename Req, typename Resp, typename Call>
std::string RunDispatch(std::string_view payload, uint64_t request_id,
                        ServiceFrontend::DispatchInfo* info, Call&& call) {
  Req req;
  Resp resp;
  uint64_t retry = 0;
  Status s = req.DecodeFrom(payload);
  if (s.ok()) s = call(std::move(req), &resp, &retry);
  if (info != nullptr) {
    info->code = s.code();
    info->retry_after_us = retry;
    info->request_id = request_id;
  }
  return EncodeResponse(s, retry, &resp, request_id);
}

std::string EncodeErrorResponse(Status status, uint64_t request_id = 0,
                                ServiceFrontend::DispatchInfo* info = nullptr) {
  if (info != nullptr) {
    info->code = status.code();
    info->retry_after_us = 0;
    info->request_id = request_id;
  }
  return EncodeResponse<ListTopicsResponse>(status, 0, nullptr, request_id);
}

}  // namespace

Status StaticTokenAuthenticator::Authenticate(std::string_view tenant,
                                              std::string_view token) const {
  const auto it = tokens_.find(tenant);
  // Unknown tenant and wrong token are deliberately the same constant
  // error: the token table's contents must not be probeable.
  if (it == tokens_.end() || it->second != token) {
    return Status::PermissionDenied("invalid tenant or auth token");
  }
  return Status::OK();
}

ServiceFrontend::ServiceFrontend(FrontendConfig config)
    : config_(std::move(config)) {
  auth_ = config_.authenticator;
  if (auth_ == nullptr && !config_.tenant_tokens.empty()) {
    auth_ = std::make_shared<StaticTokenAuthenticator>(config_.tenant_tokens);
  }
  follower_.store(config_.start_as_follower, std::memory_order_relaxed);
  if (config_.segment_cache_budget_bytes > 0) {
    SegmentCache::Global()->set_budget_bytes(
        config_.segment_cache_budget_bytes);
  }
}

void ServiceFrontend::SetRoleChangeHook(std::function<void(bool)> hook) {
  std::lock_guard<std::mutex> lock(role_hook_mu_);
  role_hook_ = std::move(hook);
}

void ServiceFrontend::NotifyRoleChange(bool is_follower) {
  std::function<void(bool)> hook;
  {
    std::lock_guard<std::mutex> lock(role_hook_mu_);
    hook = role_hook_;
  }
  if (hook) hook(is_follower);
}

void ServiceFrontend::UpdateTenantTokens(
    std::map<std::string, std::string, std::less<>> tokens) {
  // Build the replacement table outside the lock; the swap itself is
  // O(1), so a rotation never stalls concurrent Dispatch auth reads.
  std::shared_ptr<const Authenticator> next;
  if (!tokens.empty()) {
    next = std::make_shared<StaticTokenAuthenticator>(std::move(tokens));
  }
  std::lock_guard<std::mutex> lock(auth_mu_);
  auth_ = std::move(next);
}

Status ServiceFrontend::CheckWritable() const {
  if (!follower_.load(std::memory_order_relaxed)) return Status::OK();
  std::string msg = "node is a replication follower (read-only)";
  if (!config_.primary_hint.empty()) {
    msg += "; retry at " + config_.primary_hint;
  }
  return Status::Unavailable(msg);
}

uint64_t ServiceFrontend::NowUs() const {
  if (config_.clock_us) return config_.clock_us();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ServiceFrontend::TenantState* ServiceFrontend::Tenant(
    std::string_view tenant) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    it = tenants_.emplace(std::string(tenant), std::make_unique<TenantState>())
             .first;
  }
  return it->second.get();
}

Status ServiceFrontend::AdmitIngest(TenantState* tenant, uint64_t records,
                                    uint64_t bytes,
                                    uint64_t* retry_after_us) {
  const uint64_t byte_rate = config_.max_ingest_bytes_per_sec;
  const uint64_t record_rate = config_.max_ingest_records_per_sec;
  if (byte_rate == 0 && record_rate == 0) {
    // Unlimited rates skip the buckets but NOT the meter — the meter is
    // the tenant's usage record either way.
    std::lock_guard<std::mutex> lock(tenant->mu);
    ++tenant->meter.admitted_requests;
    tenant->meter.admitted_bytes += bytes;
    tenant->meter.admitted_records += records;
    return Status::OK();
  }

  const uint64_t now = NowUs();
  std::lock_guard<std::mutex> lock(tenant->mu);
  const double burst = std::max(config_.burst_seconds, 1e-6);
  const double byte_cap = static_cast<double>(byte_rate) * burst;
  const double record_cap = static_cast<double>(record_rate) * burst;
  if (!tenant->buckets_primed) {
    tenant->byte_tokens = byte_cap;
    tenant->record_tokens = record_cap;
    tenant->last_refill_us = now;
    tenant->buckets_primed = true;
  }
  // Continuous refill up to capacity. A non-monotonic clock (only
  // possible with an injected one) refills nothing rather than
  // charging backwards.
  const double dt = now > tenant->last_refill_us
                        ? static_cast<double>(now - tenant->last_refill_us) *
                              1e-6
                        : 0.0;
  tenant->last_refill_us = std::max(now, tenant->last_refill_us);
  tenant->byte_tokens = std::min(
      byte_cap, tenant->byte_tokens + dt * static_cast<double>(byte_rate));
  tenant->record_tokens =
      std::min(record_cap,
               tenant->record_tokens + dt * static_cast<double>(record_rate));

  // A request larger than a bucket's whole capacity is admitted against
  // a FULL bucket (and overdraws it) — otherwise it could never run.
  double wait_seconds = 0.0;
  if (byte_rate > 0) {
    const double need = std::min(static_cast<double>(bytes), byte_cap);
    if (tenant->byte_tokens < need) {
      wait_seconds = std::max(wait_seconds, (need - tenant->byte_tokens) /
                                                static_cast<double>(byte_rate));
    }
  }
  if (record_rate > 0) {
    const double need = std::min(static_cast<double>(records), record_cap);
    if (tenant->record_tokens < need) {
      wait_seconds =
          std::max(wait_seconds, (need - tenant->record_tokens) /
                                     static_cast<double>(record_rate));
    }
  }
  if (wait_seconds > 0.0) {
    // Denied: consume NOTHING (a starved client must not dig the hole
    // deeper by retrying) and say when the buckets will cover it.
    ++tenant->meter.denied_requests;
    tenant->meter.denied_bytes += bytes;
    tenant->meter.denied_records += records;
    *retry_after_us = static_cast<uint64_t>(std::ceil(wait_seconds * 1e6));
    return Status::ResourceExhausted(
        "tenant ingest rate quota exceeded; retry after " +
        std::to_string(*retry_after_us) + "us");
  }
  if (byte_rate > 0) tenant->byte_tokens -= static_cast<double>(bytes);
  if (record_rate > 0) {
    tenant->record_tokens -= static_cast<double>(records);
  }
  ++tenant->meter.admitted_requests;
  tenant->meter.admitted_bytes += bytes;
  tenant->meter.admitted_records += records;
  return Status::OK();
}

Result<std::shared_ptr<ManagedTopic>> ServiceFrontend::ResolveTopic(
    std::string_view tenant, std::string_view name) {
  BB_RETURN_IF_ERROR(ValidateNamePart("tenant", tenant));
  BB_RETURN_IF_ERROR(ValidateNamePart("topic name", name));
  auto topic = service_.GetTopic(FullTopicName(tenant, name));
  if (!topic.ok()) {
    // Absence and cross-tenant access are deliberately the same error:
    // existence of another tenant's topic must not be probeable.
    return Status::NotFound("topic '" + std::string(name) +
                            "' does not exist");
  }
  return topic;
}

Status ServiceFrontend::CreateTopic(std::string_view tenant,
                                    const CreateTopicRequest& req,
                                    CreateTopicResponse* /*resp*/) {
  BB_RETURN_IF_ERROR(CheckWritable());
  BB_RETURN_IF_ERROR(ValidateNamePart("tenant", tenant));
  BB_RETURN_IF_ERROR(ValidateNamePart("topic name", req.name));
  // Re-creating an existing topic is AlreadyExists, not a quota denial
  // — it would not add a topic. (Racing creates are still settled by
  // the catalog's own AlreadyExists below.)
  if (service_.GetTopic(FullTopicName(tenant, req.name)).ok()) {
    return Status::AlreadyExists("topic '" + req.name + "' already exists");
  }
  TopicConfig config = req.config;
  if (config.storage.kind == StorageConfig::Kind::kSegmentedDisk &&
      !config_.storage_root.empty()) {
    // The frontend owns disk placement: a wire-supplied directory could
    // alias another tenant's segment files — and DeleteTopic's purge
    // remove_all()s the directory, so aliasing would be destructive.
    if (!config.storage.directory.empty()) {
      return Status::InvalidArgument(
          "storage.directory is assigned by the service; leave it empty");
    }
    config.storage.directory = config_.storage_root + "/" +
                               std::string(tenant) + "/" + req.name;
  }
  TenantState* state = Tenant(tenant);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (config_.max_topics_per_tenant > 0 &&
        state->topic_count >= config_.max_topics_per_tenant) {
      return Status::ResourceExhausted(
          "tenant topic quota (" +
          std::to_string(config_.max_topics_per_tenant) + ") reached");
    }
    ++state->topic_count;
  }
  auto created =
      service_.CreateTopic(FullTopicName(tenant, req.name), std::move(config));
  if (!created.ok()) {
    std::lock_guard<std::mutex> lock(state->mu);
    --state->topic_count;
    return created.status();
  }
  return Status::OK();
}

Status ServiceFrontend::UpdateTopicConfig(std::string_view tenant,
                                          const UpdateTopicConfigRequest& req,
                                          UpdateTopicConfigResponse* /*resp*/) {
  BB_RETURN_IF_ERROR(CheckWritable());
  auto topic = ResolveTopic(tenant, req.name);
  BB_RETURN_IF_ERROR(topic.status());
  return topic.value()->UpdateConfig(req.patch);
}

Status ServiceFrontend::DeleteTopic(std::string_view tenant,
                                    const DeleteTopicRequest& req,
                                    DeleteTopicResponse* /*resp*/) {
  BB_RETURN_IF_ERROR(CheckWritable());
  BB_RETURN_IF_ERROR(ValidateNamePart("tenant", tenant));
  BB_RETURN_IF_ERROR(ValidateNamePart("topic name", req.name));
  const Status deleted = service_.DeleteTopic(FullTopicName(tenant, req.name),
                                              req.purge_storage);
  if (deleted.IsNotFound()) {
    return Status::NotFound("topic '" + req.name + "' does not exist");
  }
  BB_RETURN_IF_ERROR(deleted);
  TenantState* state = Tenant(tenant);
  std::lock_guard<std::mutex> lock(state->mu);
  if (state->topic_count > 0) --state->topic_count;
  return Status::OK();
}

Status ServiceFrontend::ListTopics(std::string_view tenant,
                                   const ListTopicsRequest& /*req*/,
                                   ListTopicsResponse* resp) {
  BB_RETURN_IF_ERROR(ValidateNamePart("tenant", tenant));
  resp->names.clear();
  const std::string prefix = std::string(tenant) + "/";
  // TopicNames is sorted (map order), so the filtered view is too.
  for (const std::string& full : service_.TopicNames()) {
    if (full.size() > prefix.size() &&
        full.compare(0, prefix.size(), prefix) == 0) {
      resp->names.push_back(full.substr(prefix.size()));
    }
  }
  return Status::OK();
}

Status ServiceFrontend::Ingest(std::string_view tenant, IngestRequest req,
                               IngestResponse* resp,
                               uint64_t* retry_after_us) {
  BB_RETURN_IF_ERROR(CheckWritable());
  auto topic = ResolveTopic(tenant, req.topic);
  BB_RETURN_IF_ERROR(topic.status());
  uint64_t retry = 0;
  const Status admitted =
      AdmitIngest(Tenant(tenant), 1, req.text.size(), &retry);
  if (!admitted.ok()) {
    if (retry_after_us != nullptr) *retry_after_us = retry;
    return admitted;
  }
  auto seq = topic.value()->Ingest(std::move(req.text), req.timestamp_us);
  BB_RETURN_IF_ERROR(seq.status());
  resp->seq = seq.value();
  return Status::OK();
}

Status ServiceFrontend::IngestBatchGuarded(
    std::string_view tenant, uint64_t records, uint64_t bytes,
    const std::function<Result<std::vector<uint64_t>>()>& run,
    IngestBatchResponse* resp, uint64_t* retry_after_us) {
  TenantState* state = Tenant(tenant);

  // In-flight cap first: it bounds concurrently EXECUTING batches (the
  // memory/thread pressure), independent of the rate the buckets meter.
  if (config_.max_inflight_batches > 0) {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->inflight_batches >= config_.max_inflight_batches) {
      // An inflight-cap rejection is a denial like a rate-limit one:
      // the offered batch was shed before reaching the topic.
      ++state->meter.denied_requests;
      state->meter.denied_bytes += bytes;
      state->meter.denied_records += records;
      if (retry_after_us != nullptr) *retry_after_us = 1000;
      return Status::ResourceExhausted(
          "tenant in-flight batch cap (" +
          std::to_string(config_.max_inflight_batches) + ") reached");
    }
    ++state->inflight_batches;
  }
  struct InflightGuard {
    TenantState* state;
    bool active;
    ~InflightGuard() {
      if (!active) return;
      std::lock_guard<std::mutex> lock(state->mu);
      --state->inflight_batches;
    }
  } guard{state, config_.max_inflight_batches > 0};
  if (config_.on_ingest_batch_start) config_.on_ingest_batch_start(tenant);

  uint64_t retry = 0;
  const Status admitted = AdmitIngest(state, records, bytes, &retry);
  if (!admitted.ok()) {
    if (retry_after_us != nullptr) *retry_after_us = retry;
    return admitted;
  }
  auto seqs = run();
  BB_RETURN_IF_ERROR(seqs.status());
  resp->seqs = std::move(seqs).value();
  return Status::OK();
}

Status ServiceFrontend::IngestBatch(std::string_view tenant,
                                    IngestBatchRequest req,
                                    IngestBatchResponse* resp,
                                    uint64_t* retry_after_us) {
  BB_RETURN_IF_ERROR(CheckWritable());
  auto topic = ResolveTopic(tenant, req.topic);
  BB_RETURN_IF_ERROR(topic.status());
  uint64_t bytes = 0;
  for (const std::string& text : req.texts) bytes += text.size();
  return IngestBatchGuarded(
      tenant, req.texts.size(), bytes,
      [&topic, &req] {
        return topic.value()->IngestBatch(std::move(req.texts),
                                          req.timestamps_us);
      },
      resp, retry_after_us);
}

Status ServiceFrontend::IngestBatchViews(std::string_view tenant,
                                         const IngestBatchRequestView& req,
                                         IngestBatchResponse* resp,
                                         uint64_t* retry_after_us) {
  BB_RETURN_IF_ERROR(CheckWritable());
  auto topic = ResolveTopic(tenant, req.topic);
  BB_RETURN_IF_ERROR(topic.status());
  uint64_t bytes = 0;
  for (std::string_view text : req.texts) bytes += text.size();
  return IngestBatchGuarded(
      tenant, req.texts.size(), bytes,
      [&topic, &req] {
        // The view overload: record bytes are materialized once, at
        // append — the decoded request buffer backs the texts until
        // then.
        return topic.value()->IngestBatch(req.texts, req.timestamps_us);
      },
      resp, retry_after_us);
}

Status ServiceFrontend::Query(std::string_view tenant, const QueryRequest& req,
                              QueryResponse* resp) {
  auto topic = ResolveTopic(tenant, req.topic);
  BB_RETURN_IF_ERROR(topic.status());

  QueryCursor cursor;
  if (!req.cursor.empty()) {
    BB_RETURN_IF_ERROR(cursor.DecodeFrom(req.cursor));
  } else {
    cursor.begin_seq = req.begin_seq;
    // Resolve the open end NOW: later pages read the same window even
    // if ingest has moved on.
    cursor.end_seq = std::min(req.end_seq, topic.value()->size());
    cursor.saturation = req.saturation_threshold;
    cursor.include_sequence_numbers = req.include_sequence_numbers;
    cursor.min_timestamp_us = req.min_timestamp_us;
    cursor.max_timestamp_us = req.max_timestamp_us;
  }

  // Index-backed page: counts come from the storage postings, the page
  // start is seeked via the cursor's resume key, and only this page's
  // groups are materialized — page N+1 no longer regroups pages 1..N.
  QueryPageRequest page_req;
  page_req.saturation_threshold = cursor.saturation;
  page_req.begin_seq = cursor.begin_seq;
  page_req.end_seq = cursor.end_seq;
  page_req.collect_sequences = cursor.include_sequence_numbers;
  page_req.max_groups = req.max_groups;
  page_req.has_resume_key = cursor.has_resume_key;
  page_req.resume_count = cursor.resume_count;
  page_req.resume_template_id = cursor.resume_template_id;
  page_req.min_timestamp_us = cursor.min_timestamp_us;
  page_req.max_timestamp_us = cursor.max_timestamp_us;
  auto page = topic.value()->QueryGroups(page_req);
  BB_RETURN_IF_ERROR(page.status());
  resp->groups = std::move(page.value().groups);
  resp->next_cursor.clear();
  if (page.value().has_more) {
    QueryCursor next = cursor;
    next.has_resume_key = true;
    next.resume_count = page.value().last_count;
    next.resume_template_id = page.value().last_template_id;
    next.EncodeTo(&resp->next_cursor);
  }
  return Status::OK();
}

Status ServiceFrontend::GetStats(std::string_view tenant,
                                 const GetStatsRequest& req,
                                 GetStatsResponse* resp) {
  auto topic = ResolveTopic(tenant, req.topic);
  BB_RETURN_IF_ERROR(topic.status());
  resp->stats = topic.value()->stats();
  // Role is a frontend property (topics are role-agnostic); stamp it
  // into the snapshot here.
  resp->stats.replica_role = is_follower() ? 1 : 0;
  // The tenant meter is tenant-wide (admission control runs per tenant,
  // not per topic), so any of the tenant's topics reports the same one.
  TenantState* state = Tenant(tenant);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    resp->tenant = state->meter;
  }
  return Status::OK();
}

Status ServiceFrontend::TrainNow(std::string_view tenant,
                                 const TrainNowRequest& req,
                                 TrainNowResponse* /*resp*/) {
  BB_RETURN_IF_ERROR(CheckWritable());
  auto topic = ResolveTopic(tenant, req.topic);
  BB_RETURN_IF_ERROR(topic.status());
  return topic.value()->TrainNow();
}

Status ServiceFrontend::DetectAnomalies(std::string_view tenant,
                                        const DetectAnomaliesRequest& req,
                                        DetectAnomaliesResponse* resp) {
  auto topic = ResolveTopic(tenant, req.topic);
  BB_RETURN_IF_ERROR(topic.status());
  auto anomalies = topic.value()->DetectAnomalies(
      req.window1_begin, req.window1_end, req.window2_begin, req.window2_end,
      req.min_change_ratio);
  BB_RETURN_IF_ERROR(anomalies.status());
  resp->anomalies = std::move(anomalies).value();
  return Status::OK();
}

Status ServiceFrontend::ReplPull(const ReplPullRequest& req,
                                 ReplPullResponse* resp) {
  // Catalog enumeration: an empty topic name asks for the full topic
  // list so the follower can create missing topics and drop stale ones.
  if (req.topic.empty()) {
    resp->topics = service_.TopicNames();
    return Status::OK();
  }
  auto topic = service_.GetTopic(req.topic);
  if (!topic.ok()) {
    return Status::NotFound("topic '" + req.topic + "' does not exist");
  }
  ManagedTopic* t = topic.value().get();
  if (req.want_config) {
    resp->has_config = true;
    resp->config = t->config();
    // The follower roots segments under its own storage tree; shipping
    // the primary's path would be meaningless (or dangerous) there.
    resp->config.storage.directory.clear();
  }
  const uint64_t gen = t->ModelGeneration();
  resp->model_generation = gen;
  if (req.model_generation != gen && t->trained()) {
    resp->has_model = true;
    resp->model_blob = t->SerializedModel();
  }
  ReplicationChunk chunk;
  Status read = t->ReplicationRead(req.segment_index, req.offset,
                                   req.max_bytes, &chunk);
  if (read.IsNotSupported()) {
    return Status::NotSupported(
        "topic has no replicable storage (memory backend)");
  }
  BB_RETURN_IF_ERROR(read);
  resp->segment_index = chunk.segment_index;
  resp->offset = chunk.offset;
  resp->data = std::move(chunk.data);
  resp->segment_sealed = chunk.segment_sealed;
  resp->segment_records = chunk.segment_records;
  resp->segment_checksum = chunk.segment_checksum;
  resp->segment_data_len = chunk.segment_data_len;
  resp->source_records = chunk.source_records;
  resp->source_segments = chunk.source_segments;
  resp->source_bytes = chunk.source_bytes;
  return Status::OK();
}

Status ServiceFrontend::Promote(PromoteResponse* resp) {
  const bool was_follower = follower_.exchange(false);
  if (!was_follower) return Status::OK();  // idempotent
  // Seal every topic's replicated tail so the promotion point is a
  // durable segment boundary, then zero the (now meaningless) lag.
  uint64_t sealed_topics = 0;
  for (const std::string& name : service_.TopicNames()) {
    auto topic = service_.GetTopic(name);
    if (!topic.ok()) continue;  // deleted concurrently
    bool sealed = false;
    Status s = topic.value()->SealTail(&sealed);
    if (!s.ok()) {
      follower_.store(true);  // promotion failed; stay a follower
      return s;
    }
    if (sealed) ++sealed_topics;
    topic.value()->SetReplicationLag(0, 0, 0);
  }
  if (resp != nullptr) resp->sealed_topics = sealed_topics;
  NotifyRoleChange(false);
  return Status::OK();
}

Status ServiceFrontend::Demote(DemoteResponse* /*resp*/) {
  if (!follower_.exchange(true)) NotifyRoleChange(true);
  return Status::OK();
}

std::string ServiceFrontend::Dispatch(std::string_view request_bytes,
                                      DispatchInfo* info) {
  // View-parse the envelope: tenant and payload stay in the caller's
  // buffer (alive for the whole call), so a batch is never copied at
  // the envelope layer.
  RequestEnvelopeView env;
  const Status decoded = env.DecodeFrom(request_bytes);
  if (!decoded.ok()) return EncodeErrorResponse(decoded, 0, info);
  const std::string_view tenant = env.tenant;
  const uint64_t rid = env.request_id;
  // Replication methods authenticate against the peer token, not the
  // tenant table: the envelope's auth_token must equal the configured
  // replication_token exactly (tenant is ignored). An empty configured
  // token keeps the surface off; the error is identical in every
  // failure case so the token is not probeable.
  const bool repl_method = env.method == ApiMethod::kReplPull ||
                           env.method == ApiMethod::kPromote ||
                           env.method == ApiMethod::kDemote;
  if (repl_method) {
    if (config_.replication_token.empty() ||
        env.auth_token != config_.replication_token) {
      return EncodeErrorResponse(
          Status::PermissionDenied("replication not authorized"), rid, info);
    }
  } else {
    // Authentication gates EVERYTHING below — including admission
    // accounting: a rejected request must not consume tokens, hold an
    // in-flight slot, or move the tenant meter. Copy the authenticator
    // under the lock so a concurrent UpdateTenantTokens swap is safe.
    std::shared_ptr<const Authenticator> auth;
    {
      std::lock_guard<std::mutex> lock(auth_mu_);
      auth = auth_;
    }
    if (auth != nullptr) {
      const Status authed = auth->Authenticate(tenant, env.auth_token);
      if (!authed.ok()) return EncodeErrorResponse(authed, rid, info);
    }
  }
  try {
    switch (env.method) {
      case ApiMethod::kCreateTopic:
        return RunDispatch<CreateTopicRequest, CreateTopicResponse>(
            env.payload, rid, info,
            [&](CreateTopicRequest req, CreateTopicResponse* resp, uint64_t*) {
              return CreateTopic(tenant, req, resp);
            });
      case ApiMethod::kUpdateTopicConfig:
        return RunDispatch<UpdateTopicConfigRequest, UpdateTopicConfigResponse>(
            env.payload, rid, info,
            [&](UpdateTopicConfigRequest req, UpdateTopicConfigResponse* resp,
                uint64_t*) { return UpdateTopicConfig(tenant, req, resp); });
      case ApiMethod::kDeleteTopic:
        return RunDispatch<DeleteTopicRequest, DeleteTopicResponse>(
            env.payload, rid, info,
            [&](DeleteTopicRequest req, DeleteTopicResponse* resp, uint64_t*) {
              return DeleteTopic(tenant, req, resp);
            });
      case ApiMethod::kListTopics:
        return RunDispatch<ListTopicsRequest, ListTopicsResponse>(
            env.payload, rid, info,
            [&](ListTopicsRequest req, ListTopicsResponse* resp, uint64_t*) {
              return ListTopics(tenant, req, resp);
            });
      case ApiMethod::kIngest:
        return RunDispatch<IngestRequest, IngestResponse>(
            env.payload, rid, info,
            [&](IngestRequest req, IngestResponse* resp, uint64_t* retry) {
              return Ingest(tenant, std::move(req), resp, retry);
            });
      case ApiMethod::kIngestBatch:
        // Zero-copy fast path: texts are decoded as views into
        // request_bytes and handed to the view IngestBatch — record
        // bytes are copied exactly once, at append.
        return RunDispatch<IngestBatchRequestView, IngestBatchResponse>(
            env.payload, rid, info,
            [&](IngestBatchRequestView req, IngestBatchResponse* resp,
                uint64_t* retry) {
              return IngestBatchViews(tenant, req, resp, retry);
            });
      case ApiMethod::kQuery:
        return RunDispatch<QueryRequest, QueryResponse>(
            env.payload, rid, info,
            [&](QueryRequest req, QueryResponse* resp, uint64_t*) {
              return Query(tenant, req, resp);
            });
      case ApiMethod::kGetStats:
        return RunDispatch<GetStatsRequest, GetStatsResponse>(
            env.payload, rid, info,
            [&](GetStatsRequest req, GetStatsResponse* resp, uint64_t*) {
              return GetStats(tenant, req, resp);
            });
      case ApiMethod::kTrainNow:
        return RunDispatch<TrainNowRequest, TrainNowResponse>(
            env.payload, rid, info,
            [&](TrainNowRequest req, TrainNowResponse* resp, uint64_t*) {
              return TrainNow(tenant, req, resp);
            });
      case ApiMethod::kDetectAnomalies:
        return RunDispatch<DetectAnomaliesRequest, DetectAnomaliesResponse>(
            env.payload, rid, info,
            [&](DetectAnomaliesRequest req, DetectAnomaliesResponse* resp,
                uint64_t*) { return DetectAnomalies(tenant, req, resp); });
      case ApiMethod::kReplPull:
        return RunDispatch<ReplPullRequest, ReplPullResponse>(
            env.payload, rid, info,
            [&](ReplPullRequest req, ReplPullResponse* resp, uint64_t*) {
              return ReplPull(req, resp);
            });
      case ApiMethod::kPromote:
        return RunDispatch<PromoteRequest, PromoteResponse>(
            env.payload, rid, info,
            [&](PromoteRequest, PromoteResponse* resp, uint64_t*) {
              return Promote(resp);
            });
      case ApiMethod::kDemote:
        return RunDispatch<DemoteRequest, DemoteResponse>(
            env.payload, rid, info,
            [&](DemoteRequest, DemoteResponse* resp, uint64_t*) {
              return Demote(resp);
            });
      case ApiMethod::kUnknown:
        break;
    }
    return EncodeErrorResponse(
        Status::NotSupported(
            "unknown api method " +
            std::to_string(static_cast<uint32_t>(env.method))),
        rid, info);
  } catch (const std::exception& e) {
    // The transport contract: bytes in, bytes out, never a crash or an
    // escaped exception (e.g. allocation failure mid-operation).
    return EncodeErrorResponse(
        Status::Aborted(std::string("dispatch failed: ") + e.what()), rid,
        info);
  } catch (...) {
    return EncodeErrorResponse(Status::Aborted("dispatch failed"), rid, info);
  }
}

}  // namespace api
}  // namespace bytebrain
