// bytebrain::api v1 — versioned wire messages for the service API.
//
// This is the typed, serializable boundary the cloud service exposes
// (paper §3, §6): every operation is a request/response pair that can
// cross a process or network boundary as bytes, dispatched by
// api::ServiceFrontend (frontend.h). No internal pointer — in
// particular no ManagedTopic* — ever crosses this boundary.
//
// The versioning contract:
//  * Every envelope starts with a fixed little-endian u32 API version
//    (kApiVersion). Everything after it — and every message body — is a
//    sequence of tagged fields (util/serde.h FieldWriter/FieldReader):
//    (u32 tag, u32 byte-length, payload).
//  * Each field is declared ONCE, as a (tag, member, wire kind) row of
//    its message's table in messages.cc (api/wire_schema.h); api_test
//    pins every message's encoding to checked-in golden bytes.
//  * Decoders SKIP unknown tags, so a newer peer may add fields under
//    fresh tags without breaking older decoders (forward
//    compatibility). A tag, once shipped, is frozen: never reuse a
//    retired tag for a different meaning.
//  * Absent fields decode to the struct's default member value.
//  * Decoding NEVER crashes: truncated, oversized, or corrupted bytes
//    surface as a Status (Corruption for broken framing or a wrong
//    field width, InvalidArgument for well-framed but meaningless
//    values such as version 0 or an out-of-range enum).
//  * Status codes cross the wire as the numeric values of
//    Status::Code; those enum values are therefore part of the wire
//    format and frozen.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "service/log_service.h"
#include "util/status.h"

namespace bytebrain {
namespace api {

/// Wire version emitted by this build. Envelopes with a version of 0
/// are rejected; other versions decode under the skip-unknown-fields
/// rule in both directions. v2 added `request_id` and `auth_token` to
/// the envelopes as NEW tags: v1 envelopes still decode (no request id,
/// empty token) and a v1 client skips the echoed request id, so v1
/// peers interoperate with a v2 server whenever auth is disabled.
inline constexpr uint32_t kApiVersion = 2;

/// Method selector carried by every request envelope. Values are wire
/// format — frozen.
enum class ApiMethod : uint32_t {
  kUnknown = 0,
  kCreateTopic = 1,
  kUpdateTopicConfig = 2,
  kDeleteTopic = 3,
  kListTopics = 4,
  kIngest = 5,
  kIngestBatch = 6,
  kQuery = 7,
  kGetStats = 8,
  kTrainNow = 9,
  kDetectAnomalies = 10,
  /// v2 replication surface. These are peer-to-peer methods: they
  /// authenticate against the frontend's replication token (envelope
  /// auth_token), not a tenant credential, and the envelope tenant is
  /// ignored — a replication topic name is the full "tenant/name" key.
  kReplPull = 11,
  kPromote = 12,
  kDemote = 13,
};

// ---------------------------------------------------------------------
// Envelopes
// ---------------------------------------------------------------------

/// The outer request frame: version, method, tenant namespace, and the
/// method's encoded request message. The tenant is part of the
/// envelope — not each body — because EVERY operation is
/// tenant-scoped; the frontend maps topic `name` to `tenant/name`
/// internally and never lets one tenant observe another's topics.
struct RequestEnvelope {
  uint32_t api_version = kApiVersion;
  ApiMethod method = ApiMethod::kUnknown;
  std::string tenant;
  std::string payload;
  /// v2: client-chosen correlation id, echoed VERBATIM on the response
  /// (including error responses) so a pipelining client can match
  /// responses to requests without relying on ordering. 0 = unset.
  uint64_t request_id = 0;
  /// v2: per-tenant credential checked by the frontend's Authenticator
  /// BEFORE any admission accounting. Empty = unauthenticated (only
  /// valid against a server with auth disabled).
  std::string auth_token;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

/// Borrowed-view decode of a request envelope: `tenant` and `payload`
/// point INTO the decoded bytes, which must outlive the view. This is
/// the Dispatch hot path's envelope parse — a batch payload is never
/// copied out of the transport buffer.
struct RequestEnvelopeView {
  uint32_t api_version = kApiVersion;
  ApiMethod method = ApiMethod::kUnknown;
  std::string_view tenant;
  std::string_view payload;
  uint64_t request_id = 0;
  std::string_view auth_token;

  Status DecodeFrom(std::string_view bytes);
};

/// The outer response frame. `status` carries the operation outcome
/// (code + message); `retry_after_us` is a backoff hint populated with
/// ResourceExhausted denials from admission control; `payload` holds
/// the method's encoded response message when status is OK.
struct ResponseEnvelope {
  uint32_t api_version = kApiVersion;
  Status status;
  uint64_t retry_after_us = 0;
  std::string payload;
  /// v2: the request's `request_id`, echoed verbatim — on error
  /// responses too, so a pipelined failure still correlates.
  uint64_t request_id = 0;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

// ---------------------------------------------------------------------
// Config payloads
// ---------------------------------------------------------------------

/// Serializes the wire-safe subset of TopicConfig (training triggers,
/// threading/sharding, storage selection, variable rules). In-process
/// fields — parser_options, instrumentation hooks — do not cross the
/// wire and decode to their defaults.
void EncodeTopicConfig(const TopicConfig& config, std::string* out);
Status DecodeTopicConfig(std::string_view bytes, TopicConfig* out);

void EncodeTopicConfigPatch(const TopicConfigPatch& patch, std::string* out);
Status DecodeTopicConfigPatch(std::string_view bytes, TopicConfigPatch* out);

// ---------------------------------------------------------------------
// Topic lifecycle
// ---------------------------------------------------------------------

struct CreateTopicRequest {
  std::string name;
  TopicConfig config;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

struct CreateTopicResponse {
  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

struct UpdateTopicConfigRequest {
  std::string name;
  TopicConfigPatch patch;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

struct UpdateTopicConfigResponse {
  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

struct DeleteTopicRequest {
  std::string name;
  /// Remove a persistent topic's segment directory too (default). With
  /// false the bytes stay recoverable by a CreateTopic pointing at the
  /// same directory.
  bool purge_storage = true;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

struct DeleteTopicResponse {
  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

struct ListTopicsRequest {
  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

struct ListTopicsResponse {
  /// Tenant-visible topic names (the tenant prefix already stripped),
  /// lexicographically ordered.
  std::vector<std::string> names;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

// ---------------------------------------------------------------------
// Ingest
// ---------------------------------------------------------------------

struct IngestRequest {
  std::string topic;
  std::string text;
  uint64_t timestamp_us = 0;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

struct IngestResponse {
  uint64_t seq = 0;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

struct IngestBatchRequest {
  std::string topic;
  std::vector<std::string> texts;
  /// Optional; when non-empty must have one entry per text.
  std::vector<uint64_t> timestamps_us;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

/// Borrowed-view twin of IngestBatchRequest: `topic` and every text
/// point INTO caller-owned bytes. Wire-compatible with the owning
/// struct in both directions — a zero-copy CLIENT encodes straight
/// from its log buffers (no intermediate std::strings), and the
/// Dispatch server decodes texts as views into the request buffer and
/// feeds ManagedTopic's string_view IngestBatch, so record bytes are
/// materialized exactly once, at append.
struct IngestBatchRequestView {
  std::string_view topic;
  std::vector<std::string_view> texts;
  std::vector<uint64_t> timestamps_us;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

struct IngestBatchResponse {
  /// Sequence numbers in input order.
  std::vector<uint64_t> seqs;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

// ---------------------------------------------------------------------
// Query / stats / training / anomalies
// ---------------------------------------------------------------------

struct QueryRequest {
  std::string topic;
  double saturation_threshold = 0.6;
  uint64_t begin_seq = 0;
  uint64_t end_seq = UINT64_MAX;
  /// Page size: at most this many groups per response (0 = all).
  /// Cost model: counts come from the per-segment template postings, the
  /// cursor's resume key seeks page N+1's start, and only the page's
  /// groups are materialized — per-page work is O(distinct templates +
  /// page + its matching records), whatever pages precede it.
  uint32_t max_groups = 0;
  /// Opaque continuation token from the previous page's
  /// QueryResponse::next_cursor. When set it overrides the window /
  /// threshold fields above, so every page reads the same snapshot
  /// window the first page resolved. The cursor pins the RECORD
  /// window, not the model: if a (re)training commits between pages,
  /// records inside the window may regroup, so group composition and
  /// order can shift across the page boundary — pages are exactly
  /// consistent whenever no training intervenes.
  std::string cursor;
  /// Groups carry their member sequence numbers (can dominate the
  /// response size; turn off for count-only dashboards).
  bool include_sequence_numbers = true;
  /// v2: time-range predicate — only records with timestamp_us in
  /// [min_timestamp_us, max_timestamp_us] contribute to groups. The
  /// defaults select everything, and encode/decode as absent tags, so
  /// an unfiltered v2 request is byte-identical to v1. Sealed segments
  /// whose persisted min/max timestamp range misses the window are
  /// pruned without being read.
  uint64_t min_timestamp_us = 0;
  uint64_t max_timestamp_us = UINT64_MAX;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

struct QueryResponse {
  std::vector<TemplateGroup> groups;
  /// Non-empty while more pages remain; feed back via
  /// QueryRequest::cursor.
  std::string next_cursor;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

struct GetStatsRequest {
  std::string topic;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

/// Per-tenant ingest metering, accumulated by the frontend across ALL
/// of the tenant's topics (admission control outcomes: what was let
/// through vs shed). Denied counters cover rate-limit denials and
/// inflight-cap rejections; a denial consumes no tokens, so
/// denied_bytes/records describe offered-but-shed load.
struct TenantMeter {
  uint64_t admitted_requests = 0;
  uint64_t denied_requests = 0;
  uint64_t admitted_bytes = 0;
  uint64_t denied_bytes = 0;
  uint64_t admitted_records = 0;
  uint64_t denied_records = 0;
};

struct GetStatsResponse {
  TopicStats stats;
  /// Filled by the frontend (tenant-wide, not per-topic); all zeros when
  /// stats are read without a frontend in the path.
  TenantMeter tenant;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

struct TrainNowRequest {
  std::string topic;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

struct TrainNowResponse {
  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

struct DetectAnomaliesRequest {
  std::string topic;
  uint64_t window1_begin = 0;
  uint64_t window1_end = 0;
  uint64_t window2_begin = 0;
  uint64_t window2_end = 0;
  double min_change_ratio = 2.0;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

struct DetectAnomaliesResponse {
  std::vector<TemplateAnomaly> anomalies;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

// ---------------------------------------------------------------------
// Replication (v2)
// ---------------------------------------------------------------------

/// Follower → primary pull. With an empty `topic` the primary answers
/// with its full topic catalog (ReplPullResponse::topics) and no data —
/// the follower's discovery step. With a topic set, the primary ships
/// whole frames starting at the follower's resume point
/// {segment_index, offset} (frame bytes are identical in the WAL, the
/// segment file, and this stream, so the follower replays them through
/// the very same ParseFrame/checksum path recovery uses).
struct ReplPullRequest {
  /// Full "tenant/name" topic key; empty = enumerate topics.
  std::string topic;
  uint64_t segment_index = 0;
  uint64_t offset = 0;
  /// Soft cap on data bytes per response (always at least one frame).
  uint64_t max_bytes = 1 << 20;
  /// The model generation the follower has applied for this topic;
  /// UINT64_MAX = none. When it trails the primary's, the response
  /// carries the serialized model.
  uint64_t model_generation = UINT64_MAX;
  /// Ship the topic's TopicConfig (the follower needs it to create the
  /// local twin with the same segment size — seal boundaries must
  /// match for byte-identical convergence).
  bool want_config = false;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

struct ReplPullResponse {
  /// Catalog answer (enumerate form only): full "tenant/name" keys.
  std::vector<std::string> topics;

  /// Echo of the served position; `data` holds whole frames starting
  /// there. Empty data with segment_sealed means "segment complete,
  /// advance to {segment_index + 1, 0}"; empty data on the unsealed
  /// tail means the follower is caught up.
  uint64_t segment_index = 0;
  uint64_t offset = 0;
  std::string data;

  /// Manifest info for the segment being served (sealed segments
  /// only): after sealing locally the follower verifies
  /// records/checksum against these — a mismatch is divergence.
  bool segment_sealed = false;
  uint64_t segment_records = 0;
  uint64_t segment_checksum = 0;
  uint64_t segment_data_len = 0;

  /// Primary-side totals at serve time, for lag accounting
  /// (lag_bytes = source_bytes - locally applied bytes, etc.).
  uint64_t source_records = 0;
  uint64_t source_segments = 0;
  uint64_t source_bytes = 0;

  /// Present when the request set want_config.
  bool has_config = false;
  TopicConfig config;

  /// Present when the primary's model generation differs from the
  /// request's: the serialized TemplateModel and its generation.
  bool has_model = false;
  std::string model_blob;
  uint64_t model_generation = 0;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

/// Explicit failover: the follower seals its replicated tails and
/// starts accepting writes (role flips to primary). Idempotent.
struct PromoteRequest {
  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

struct PromoteResponse {
  /// Topics whose active tail was sealed by the promotion.
  uint64_t sealed_topics = 0;

  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

/// The reverse transition: stop accepting writes, serve read-only.
/// (Re-attaching the node to a new primary is the operator's move —
/// this RPC only flips the role.)
struct DemoteRequest {
  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

struct DemoteResponse {
  void EncodeTo(std::string* out) const;
  Status DecodeFrom(std::string_view bytes);
};

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

/// Reconstructs a Status from its wire code; out-of-range codes come
/// back as Corruption (they indicate a framing bug or a newer peer).
Status StatusFromWire(uint32_t code, std::string message);

/// A message encoded straight into its envelope's payload field (the
/// length is backpatched, no payload copy); a null `msg` omits it.
struct InPlacePayload {
  const void* msg = nullptr;
  void (*encode)(const void* msg, std::string* out) = nullptr;
  template <typename Msg>
  static InPlacePayload Of(const Msg* msg) {
    return {msg, [](const void* m, std::string* out) {
              static_cast<const Msg*>(m)->EncodeTo(out);
            }};
  }
};

/// EncodeRequest / EncodeResponse's encoders (the envelope tables).
void EncodeRequestEnvelope(ApiMethod method, std::string_view tenant,
                           InPlacePayload payload, uint64_t request_id,
                           std::string_view auth_token, std::string* out);
void EncodeResponseEnvelope(const Status& status, uint64_t retry_after_us,
                            InPlacePayload payload, uint64_t request_id,
                            std::string* out);

/// Client-side convenience: one encoded request envelope for `msg`,
/// payload encoded in place; byte-identical to RequestEnvelope::EncodeTo
/// over the same content. Zero `request_id` / empty `auth_token` (the
/// v2 fields) are omitted, as a v1 peer expects.
template <typename Request>
std::string EncodeRequest(ApiMethod method, std::string_view tenant,
                          const Request& msg, uint64_t request_id = 0,
                          std::string_view auth_token = {}) {
  std::string out;
  EncodeRequestEnvelope(method, tenant, InPlacePayload::Of(&msg), request_id,
                        auth_token, &out);
  return out;
}

/// Server-side convenience: one encoded response envelope, payload
/// encoded in place and only on OK (nullptr = error-only). Decodes like
/// ResponseEnvelope::EncodeTo output (an omitted payload reads empty).
template <typename Response>
std::string EncodeResponse(const Status& status, uint64_t retry_after_us,
                           const Response* msg, uint64_t request_id = 0) {
  std::string out;
  EncodeResponseEnvelope(status, retry_after_us, InPlacePayload::Of(msg),
                         request_id, &out);
  return out;
}

/// Client-side convenience: decodes a response envelope and, when the
/// carried status is OK, the payload into `msg`; returns the carried
/// status or a decode error. `request_id` gets the echoed id (0 = none).
template <typename Response>
Status DecodeResponse(std::string_view bytes, Response* msg,
                      uint64_t* retry_after_us = nullptr,
                      uint64_t* request_id = nullptr) {
  ResponseEnvelope env;
  BB_RETURN_IF_ERROR(env.DecodeFrom(bytes));
  if (retry_after_us != nullptr) *retry_after_us = env.retry_after_us;
  if (request_id != nullptr) *request_id = env.request_id;
  BB_RETURN_IF_ERROR(env.status);
  return msg->DecodeFrom(env.payload);
}

}  // namespace api
}  // namespace bytebrain
