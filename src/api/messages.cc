#include "api/messages.h"

#include "api/wire_schema.h"
#include "util/serde.h"

namespace bytebrain {
namespace api {

using wire::Bytes;
using wire::Enum;
using wire::Fields;
using wire::Message;
using wire::OnlyIf;
using wire::Packed;
using wire::Scalar;
using wire::SkipDefault;

Status StatusFromWire(uint32_t code, std::string message) {
  switch (static_cast<Status::Code>(code)) {
    case Status::Code::kOk:
      return Status::OK();
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(message);
    case Status::Code::kNotFound:
      return Status::NotFound(message);
    case Status::Code::kCorruption:
      return Status::Corruption(message);
    case Status::Code::kIOError:
      return Status::IOError(message);
    case Status::Code::kNotSupported:
      return Status::NotSupported(message);
    case Status::Code::kAborted:
      return Status::Aborted(message);
    case Status::Code::kAlreadyExists:
      return Status::AlreadyExists(message);
    case Status::Code::kResourceExhausted:
      return Status::ResourceExhausted(message);
    case Status::Code::kPermissionDenied:
      return Status::PermissionDenied(message);
    case Status::Code::kUnavailable:
      return Status::Unavailable(message);
  }
  return Status::Corruption("unknown wire status code " +
                            std::to_string(code));
}

// ---------------------------------------------------------------------
// Envelopes: a hand-written leading version u32, then one table over
// any struct with the envelope's member names — the owning envelope,
// its borrowed view, and the in-place forms EncodeRequest /
// EncodeResponse build.
// ---------------------------------------------------------------------

namespace {

template <typename E>
using RequestEnvelopeFields =
    Fields<Scalar<1, &E::method>, Bytes<2, &E::tenant>,
           Bytes<3, &E::payload>, SkipDefault<Scalar<4, &E::request_id>>,
           SkipDefault<Bytes<5, &E::auth_token>>>;

/// The response envelope's wire fields: the Status splits into a code
/// and a message.
template <typename Payload>
struct ResponseFrame {
  uint32_t code = 0;
  std::string_view message;
  uint64_t retry_after_us = 0;
  Payload payload{};
  uint64_t request_id = 0;
};

template <typename F>
using ResponseEnvelopeFields =
    Fields<Scalar<1, &F::code>, Bytes<2, &F::message>,
           Scalar<3, &F::retry_after_us>, Bytes<4, &F::payload>,
           SkipDefault<Scalar<5, &F::request_id>>>;

struct OutgoingRequest {
  ApiMethod method = ApiMethod::kUnknown;
  std::string_view tenant;
  InPlacePayload payload;
  uint64_t request_id = 0;
  std::string_view auth_token;
};

template <typename Table, typename Frame>
void EncodeEnvelope(uint32_t version, const Frame& frame, std::string* out) {
  ByteWriter(out).PutU32(version);
  Table::Encode(frame, out);
}

/// `*version` is written last, after the frame's reset, so it may point
/// into `frame`.
template <typename Table, typename Frame>
Status DecodeEnvelope(std::string_view bytes, uint32_t* version, Frame* frame,
                      const char* what) {
  ByteReader r(bytes);
  uint32_t v = 0;
  if (!r.GetU32(&v)) {
    return Status::Corruption(std::string("truncated or malformed ") + what);
  }
  if (v == 0) return Status::InvalidArgument("unsupported api version 0");
  BB_RETURN_IF_ERROR(Table::Decode(bytes.substr(4), frame, what));
  *version = v;
  return Status::OK();
}

}  // namespace

void RequestEnvelope::EncodeTo(std::string* out) const {
  EncodeEnvelope<RequestEnvelopeFields<RequestEnvelope>>(api_version, *this,
                                                         out);
}

Status RequestEnvelope::DecodeFrom(std::string_view bytes) {
  // One decode loop for both forms: parse as views, then materialize.
  RequestEnvelopeView view;
  BB_RETURN_IF_ERROR(view.DecodeFrom(bytes));
  api_version = view.api_version;
  method = view.method;
  tenant.assign(view.tenant);
  payload.assign(view.payload);
  request_id = view.request_id;
  auth_token.assign(view.auth_token);
  return Status::OK();
}

Status RequestEnvelopeView::DecodeFrom(std::string_view bytes) {
  return DecodeEnvelope<RequestEnvelopeFields<RequestEnvelopeView>>(
      bytes, &api_version, this, "RequestEnvelope");
}

void ResponseEnvelope::EncodeTo(std::string* out) const {
  const ResponseFrame<std::string_view> frame{
      static_cast<uint32_t>(status.code()), status.message(), retry_after_us,
      payload, request_id};
  EncodeEnvelope<ResponseEnvelopeFields<decltype(frame)>>(api_version, frame,
                                                          out);
}

Status ResponseEnvelope::DecodeFrom(std::string_view bytes) {
  *this = ResponseEnvelope();
  ResponseFrame<std::string_view> frame;
  BB_RETURN_IF_ERROR(DecodeEnvelope<ResponseEnvelopeFields<decltype(frame)>>(
      bytes, &api_version, &frame, "ResponseEnvelope"));
  if (frame.code > static_cast<uint32_t>(Status::Code::kUnavailable)) {
    return Status::Corruption("unknown wire status code " +
                              std::to_string(frame.code));
  }
  status = StatusFromWire(frame.code, std::string(frame.message));
  retry_after_us = frame.retry_after_us;
  payload.assign(frame.payload);
  request_id = frame.request_id;
  return Status::OK();
}

void EncodeRequestEnvelope(ApiMethod method, std::string_view tenant,
                           InPlacePayload payload, uint64_t request_id,
                           std::string_view auth_token, std::string* out) {
  const OutgoingRequest frame{method, tenant, payload, request_id,
                              auth_token};
  EncodeEnvelope<RequestEnvelopeFields<OutgoingRequest>>(kApiVersion, frame,
                                                         out);
}

void EncodeResponseEnvelope(const Status& status, uint64_t retry_after_us,
                            InPlacePayload payload, uint64_t request_id,
                            std::string* out) {
  // The payload is emitted only on OK.
  const ResponseFrame<InPlacePayload> frame{
      static_cast<uint32_t>(status.code()), status.message(), retry_after_us,
      status.ok() ? payload : InPlacePayload(), request_id};
  EncodeEnvelope<ResponseEnvelopeFields<decltype(frame)>>(kApiVersion, frame,
                                                          out);
}

// ---------------------------------------------------------------------
// Message tables. Rows are in encode order; a tag appears in exactly one
// row of its table, and a retired tag is never reused.
// ---------------------------------------------------------------------

namespace {

using VariableRule = std::pair<std::string, std::string>;
using VariableRuleFields =
    Fields<Bytes<1, &VariableRule::first>, Bytes<2, &VariableRule::second>>;

// Tag 8 (sync_initial_training) is retired: skipped on decode.
using TopicConfigFields = Fields<
    Scalar<1, &TopicConfig::train_volume_bytes>,
    Scalar<2, &TopicConfig::train_interval_records>,
    Scalar<3, &TopicConfig::initial_train_records>,
    Scalar<4, &TopicConfig::max_train_records>,
    Scalar<5, &TopicConfig::num_threads>,
    Scalar<6, &TopicConfig::num_ingest_shards>,
    Scalar<7, &TopicConfig::async_training>,
    Enum<9, StorageConfig::Kind::kSegmentedDisk, &TopicConfig::storage,
         &StorageConfig::kind>,
    Bytes<10, &TopicConfig::storage, &StorageConfig::directory>,
    Scalar<11, &TopicConfig::storage, &StorageConfig::segment_data_bytes>,
    Scalar<12, &TopicConfig::storage,
           &StorageConfig::memory_segment_capacity>,
    Message<13, VariableRuleFields, &TopicConfig::variable_rules>,
    Enum<14, DurabilityMode::kWalGroupCommit, &TopicConfig::durability>>;

using TopicConfigPatchFields =
    Fields<Scalar<1, &TopicConfigPatch::train_volume_bytes>,
           Scalar<2, &TopicConfigPatch::train_interval_records>,
           Scalar<3, &TopicConfigPatch::initial_train_records>,
           Scalar<4, &TopicConfigPatch::max_train_records>,
           Scalar<5, &TopicConfigPatch::num_threads>,
           Scalar<6, &TopicConfigPatch::num_ingest_shards>,
           Scalar<7, &TopicConfigPatch::async_training>>;

using NoFields = Fields<>;

using CreateTopicRequestFields =
    Fields<Bytes<1, &CreateTopicRequest::name>,
           Message<2, TopicConfigFields, &CreateTopicRequest::config>>;

using UpdateTopicConfigRequestFields = Fields<
    Bytes<1, &UpdateTopicConfigRequest::name>,
    Message<2, TopicConfigPatchFields, &UpdateTopicConfigRequest::patch>>;

using DeleteTopicRequestFields =
    Fields<Bytes<1, &DeleteTopicRequest::name>,
           Scalar<2, &DeleteTopicRequest::purge_storage>>;

using ListTopicsResponseFields = Fields<Bytes<1, &ListTopicsResponse::names>>;

using IngestRequestFields = Fields<Bytes<1, &IngestRequest::topic>,
                                   Bytes<2, &IngestRequest::text>,
                                   Scalar<3, &IngestRequest::timestamp_us>>;

using IngestResponseFields = Fields<Scalar<1, &IngestResponse::seq>>;

// Shared by the owning batch and its borrowed view.
template <typename B>
using IngestBatchFields =
    Fields<Bytes<1, &B::topic>, Bytes<2, &B::texts>,
           SkipDefault<Packed<3, &B::timestamps_us>>>;

using IngestBatchResponseFields = Fields<Packed<1, &IngestBatchResponse::seqs>>;

using QueryRequestFields =
    Fields<Bytes<1, &QueryRequest::topic>,
           Scalar<2, &QueryRequest::saturation_threshold>,
           Scalar<3, &QueryRequest::begin_seq>,
           Scalar<4, &QueryRequest::end_seq>,
           Scalar<5, &QueryRequest::max_groups>,
           Bytes<6, &QueryRequest::cursor>,
           Scalar<7, &QueryRequest::include_sequence_numbers>,
           SkipDefault<Scalar<8, &QueryRequest::min_timestamp_us>>,
           SkipDefault<Scalar<9, &QueryRequest::max_timestamp_us>>>;

using TemplateGroupFields =
    Fields<Scalar<1, &TemplateGroup::template_id>,
           Bytes<2, &TemplateGroup::template_text>,
           Scalar<3, &TemplateGroup::saturation>,
           Scalar<4, &TemplateGroup::count>,
           SkipDefault<Packed<5, &TemplateGroup::sequence_numbers>>>;

using QueryResponseFields =
    Fields<Message<1, TemplateGroupFields, &QueryResponse::groups>,
           Bytes<2, &QueryResponse::next_cursor>>;

using GetStatsRequestFields = Fields<Bytes<1, &GetStatsRequest::topic>>;

// Tag 7 (memo_hits) is retired: skipped on decode.
using ShardStatsFields = Fields<Scalar<1, &ShardStats::records>,
                                Scalar<2, &ShardStats::bytes>,
                                Scalar<3, &ShardStats::matched_shared>,
                                Scalar<4, &ShardStats::matched_pending>,
                                Scalar<5, &ShardStats::adopted>,
                                Scalar<6, &ShardStats::merges>>;

using TenantMeterFields = Fields<Scalar<1, &TenantMeter::admitted_requests>,
                                 Scalar<2, &TenantMeter::denied_requests>,
                                 Scalar<3, &TenantMeter::admitted_bytes>,
                                 Scalar<4, &TenantMeter::denied_bytes>,
                                 Scalar<5, &TenantMeter::admitted_records>,
                                 Scalar<6, &TenantMeter::denied_records>>;

template <uint32_t Tag, auto Stat>
using StatField = Scalar<Tag, &GetStatsResponse::stats, Stat>;

using GetStatsResponseFields = Fields<
    StatField<1, &TopicStats::ingested_records>,
    StatField<2, &TopicStats::ingested_bytes>,
    StatField<3, &TopicStats::trainings>,
    StatField<4, &TopicStats::matched_online>,
    StatField<5, &TopicStats::adopted_templates>,
    StatField<6, &TopicStats::model_bytes>,
    StatField<7, &TopicStats::last_training_seconds>,
    StatField<8, &TopicStats::num_templates>,
    StatField<9, &TopicStats::async_trainings>,
    StatField<10, &TopicStats::pending_trainings>,
    StatField<11, &TopicStats::coalesced_triggers>,
    StatField<12, &TopicStats::failed_trainings>,
    StatField<13, &TopicStats::last_swap_seconds>,
    StatField<14, &TopicStats::shard_merges>,
    StatField<15, &TopicStats::storage_persistent>,
    StatField<16, &TopicStats::storage_ok>,
    StatField<17, &TopicStats::storage_sealed_segments>,
    StatField<18, &TopicStats::storage_mapped_bytes>,
    StatField<19, &TopicStats::recovered_records>,
    StatField<20, &TopicStats::last_snapshot_copied_records>,
    StatField<21, &TopicStats::last_snapshot_mapped_records>,
    Message<22, ShardStatsFields, &GetStatsResponse::stats,
            &TopicStats::shards>,
    StatField<23, &TopicStats::wal_bytes>,
    StatField<24, &TopicStats::wal_group_commits>,
    StatField<25, &TopicStats::wal_fsyncs>,
    StatField<26, &TopicStats::wal_replayed_records>,
    Message<27, TenantMeterFields, &GetStatsResponse::tenant>,
    StatField<28, &TopicStats::storage_cache_hits>,
    StatField<29, &TopicStats::storage_cache_misses>,
    StatField<30, &TopicStats::storage_cache_evictions>,
    StatField<31, &TopicStats::storage_index_rebuilds>,  // retired: 0
    StatField<32, &TopicStats::storage_scan_record_visits>,
    StatField<33, &TopicStats::replication_lag_bytes>,
    StatField<34, &TopicStats::replication_lag_records>,
    StatField<35, &TopicStats::replication_lag_segments>,
    StatField<36, &TopicStats::replica_role>>;

using TrainNowRequestFields = Fields<Bytes<1, &TrainNowRequest::topic>>;

using DetectAnomaliesRequestFields =
    Fields<Bytes<1, &DetectAnomaliesRequest::topic>,
           Scalar<2, &DetectAnomaliesRequest::window1_begin>,
           Scalar<3, &DetectAnomaliesRequest::window1_end>,
           Scalar<4, &DetectAnomaliesRequest::window2_begin>,
           Scalar<5, &DetectAnomaliesRequest::window2_end>,
           Scalar<6, &DetectAnomaliesRequest::min_change_ratio>>;

using TemplateAnomalyFields =
    Fields<Scalar<1, &TemplateAnomaly::template_id>,
           Bytes<2, &TemplateAnomaly::template_text>,
           Scalar<3, &TemplateAnomaly::count_before>,
           Scalar<4, &TemplateAnomaly::count_after>,
           Scalar<5, &TemplateAnomaly::is_new>,
           Scalar<6, &TemplateAnomaly::change_ratio>>;

using DetectAnomaliesResponseFields = Fields<
    Message<1, TemplateAnomalyFields, &DetectAnomaliesResponse::anomalies>>;

using ReplPullRequestFields =
    Fields<Bytes<1, &ReplPullRequest::topic>,
           Scalar<2, &ReplPullRequest::segment_index>,
           Scalar<3, &ReplPullRequest::offset>,
           Scalar<4, &ReplPullRequest::max_bytes>,
           Scalar<5, &ReplPullRequest::model_generation>,
           Scalar<6, &ReplPullRequest::want_config>>;

using ReplPullResponseFields = Fields<
    Bytes<1, &ReplPullResponse::topics>,
    Scalar<2, &ReplPullResponse::segment_index>,
    Scalar<3, &ReplPullResponse::offset>, Bytes<4, &ReplPullResponse::data>,
    Scalar<5, &ReplPullResponse::segment_sealed>,
    Scalar<6, &ReplPullResponse::segment_records>,
    Scalar<7, &ReplPullResponse::segment_checksum>,
    Scalar<8, &ReplPullResponse::segment_data_len>,
    Scalar<9, &ReplPullResponse::source_records>,
    Scalar<10, &ReplPullResponse::source_segments>,
    Scalar<11, &ReplPullResponse::source_bytes>,
    Scalar<12, &ReplPullResponse::has_config>,
    OnlyIf<&ReplPullResponse::has_config,
           Message<13, TopicConfigFields, &ReplPullResponse::config>>,
    Scalar<14, &ReplPullResponse::has_model>,
    OnlyIf<&ReplPullResponse::has_model,
           Bytes<15, &ReplPullResponse::model_blob>>,
    Scalar<16, &ReplPullResponse::model_generation>>;

using PromoteResponseFields =
    Fields<Scalar<1, &PromoteResponse::sealed_topics>>;

}  // namespace

// Every EncodeTo / DecodeFrom is its table's encoder / decoder.
#define BB_WIRE_CODEC(Msg, Table)                                           \
  void Msg::EncodeTo(std::string* out) const { Table::Encode(*this, out); } \
  Status Msg::DecodeFrom(std::string_view bytes) {                          \
    return Table::Decode(bytes, this, #Msg);                                \
  }

BB_WIRE_CODEC(CreateTopicRequest, CreateTopicRequestFields)
BB_WIRE_CODEC(CreateTopicResponse, NoFields)
BB_WIRE_CODEC(UpdateTopicConfigRequest, UpdateTopicConfigRequestFields)
BB_WIRE_CODEC(UpdateTopicConfigResponse, NoFields)
BB_WIRE_CODEC(DeleteTopicRequest, DeleteTopicRequestFields)
BB_WIRE_CODEC(DeleteTopicResponse, NoFields)
BB_WIRE_CODEC(ListTopicsRequest, NoFields)
BB_WIRE_CODEC(ListTopicsResponse, ListTopicsResponseFields)
BB_WIRE_CODEC(IngestRequest, IngestRequestFields)
BB_WIRE_CODEC(IngestResponse, IngestResponseFields)
BB_WIRE_CODEC(IngestBatchRequestView, IngestBatchFields<IngestBatchRequestView>)
BB_WIRE_CODEC(IngestBatchResponse, IngestBatchResponseFields)
BB_WIRE_CODEC(QueryRequest, QueryRequestFields)
BB_WIRE_CODEC(QueryResponse, QueryResponseFields)
BB_WIRE_CODEC(GetStatsRequest, GetStatsRequestFields)
BB_WIRE_CODEC(GetStatsResponse, GetStatsResponseFields)
BB_WIRE_CODEC(TrainNowRequest, TrainNowRequestFields)
BB_WIRE_CODEC(TrainNowResponse, NoFields)
BB_WIRE_CODEC(DetectAnomaliesRequest, DetectAnomaliesRequestFields)
BB_WIRE_CODEC(DetectAnomaliesResponse, DetectAnomaliesResponseFields)
BB_WIRE_CODEC(ReplPullRequest, ReplPullRequestFields)
BB_WIRE_CODEC(ReplPullResponse, ReplPullResponseFields)
BB_WIRE_CODEC(PromoteRequest, NoFields)
BB_WIRE_CODEC(PromoteResponse, PromoteResponseFields)
BB_WIRE_CODEC(DemoteRequest, NoFields)
BB_WIRE_CODEC(DemoteResponse, NoFields)

#undef BB_WIRE_CODEC

void IngestBatchRequest::EncodeTo(std::string* out) const {
  IngestBatchFields<IngestBatchRequest>::Encode(*this, out);
}

Status IngestBatchRequest::DecodeFrom(std::string_view bytes) {
  // One decode loop for both forms: parse as views, then materialize.
  IngestBatchRequestView view;
  BB_RETURN_IF_ERROR(view.DecodeFrom(bytes));
  topic.assign(view.topic);
  texts.assign(view.texts.begin(), view.texts.end());
  timestamps_us = std::move(view.timestamps_us);
  return Status::OK();
}

void EncodeTopicConfig(const TopicConfig& config, std::string* out) {
  TopicConfigFields::Encode(config, out);
}

Status DecodeTopicConfig(std::string_view bytes, TopicConfig* out) {
  return TopicConfigFields::Decode(bytes, out, "TopicConfig");
}

void EncodeTopicConfigPatch(const TopicConfigPatch& patch, std::string* out) {
  TopicConfigPatchFields::Encode(patch, out);
}

Status DecodeTopicConfigPatch(std::string_view bytes, TopicConfigPatch* out) {
  return TopicConfigPatchFields::Decode(bytes, out, "TopicConfigPatch");
}

}  // namespace api
}  // namespace bytebrain
