// Cloud log service layer (paper §3 system design, §6 product features).
//
// A ManagedTopic glues the substrates together the way TLS does in
// production: logs are ingested into an append-only topic; the online
// matcher assigns template ids at ingestion (unmatched logs are adopted
// as temporary templates); periodic training — triggered by a volume
// threshold or an ingestion-count interval — (re)builds the clustering
// tree and publishes node metadata to the internal topic; queries group
// records by template at any saturation threshold without reprocessing.
//
// Retraining runs OFF the ingest lock (see ARCHITECTURE.md for the full
// protocol): a trigger snapshots the training window and the model under
// the lock, a background thread trains on the snapshot, and only the
// final O(1) model/matcher swap — plus re-assignment of records that
// arrived mid-training — re-enters the exclusive section. Ingest latency
// is therefore independent of training cost. It is the only training
// path: TrainNow and the first training wait for their commit.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/parser.h"
#include "logstore/internal_topic.h"
#include "logstore/storage_backend.h"
#include "threading/thread_pool.h"
#include "util/status.h"

namespace bytebrain {

/// Per-topic configuration.
struct TopicConfig {
  /// Retrain once this many bytes arrived since the last training.
  uint64_t train_volume_bytes = 8 * 1024 * 1024;
  /// ... or once this many records arrived since the last training.
  uint64_t train_interval_records = 100000;
  /// Records required before the FIRST training (the paper configures
  /// initial training to finish within minutes of topic creation).
  uint64_t initial_train_records = 1000;
  /// Cap on records fed into one training run (OOM guard, §3). With a
  /// disk-backed topic this can be far larger than RAM-resident
  /// windows: the sealed part of the window is read from mmap'd
  /// segments, off-lock, without being copied at snapshot time.
  uint64_t max_train_records = 200000;
  /// Record storage for the topic: in-memory segments (the default) or
  /// segmented on-disk storage with mmap'd sealed scans, a checksummed
  /// manifest, and crash recovery (records AND the latest trained model
  /// survive restarts — see ARCHITECTURE.md §5). On open failure the
  /// topic runs on an empty in-memory fallback and the error is
  /// surfaced through ManagedTopic::StorageStatus() /
  /// LogService::CreateTopic.
  StorageConfig storage;
  /// Tail durability for a disk-backed topic (requires storage.kind ==
  /// kSegmentedDisk when != kNone; see logstore/wal.h and
  /// ARCHITECTURE.md §Durability):
  ///   kNone           — PR 4 behavior: a crash loses the unflushed tail.
  ///   kWalAsync       — frames also hit a write-ahead log fsynced by a
  ///                     background thread; acks never wait.
  ///   kWalGroupCommit — each batch blocks for one amortized group-commit
  ///                     fsync: acknowledged ⇒ durable. A WAL fsync
  ///                     failure degrades sticky (TopicStats::storage_ok
  ///                     flips false), it does not fail requests.
  /// Copied into storage.durability at topic construction; the
  /// storage.durability field itself is ignored here so wire configs
  /// have exactly one durability knob.
  DurabilityMode durability = DurabilityMode::kNone;
  /// Threads for matching/training (paper: 1-5 cores per topic).
  int num_threads = 2;
  /// Ingest shards (clamped to [1, 64]). Every batch of two or more
  /// records (Ingest is a batch of one, which skips dedup and the
  /// shards) is deduplicated and routed to the shards by a stable hash
  /// of its records' variable-replaced token sequences (duplicates
  /// colocate); shards match misses against — and adopt
  /// novel shapes into — shard-local pending models in parallel under
  /// the SHARED topic lock, and the batch's exclusive section folds the
  /// pending temporaries into the shared model before any record is
  /// appended, so queries and training snapshots always see one
  /// coherent model. Training triggers are checked once per batch.
  /// Caveat, at any shard count: all records of a batch are matched
  /// against the batch-start model plus their own shard's pendings, so
  /// a temporary adopted late in a batch never shadows an earlier
  /// record's match the way a strictly sequential replay could, and a
  /// trigger crossed mid-batch fires at the batch's end; the difference
  /// is confined to temporaries and is reconciled at the next training
  /// cycle.
  int num_ingest_shards = 1;
  /// Every training runs on the topic's training thread. On, the ingest
  /// that trips a retrain returns at once, so ingest never waits for a
  /// training run; off, it waits for the commit (strictly sequential
  /// trigger semantics). The ingest that trips the FIRST training always
  /// waits: its window is bounded by `initial_train_records`, and a
  /// deterministic "trained right after record N" bootstrap is what
  /// early queries and most callers expect.
  bool async_training = true;
  /// Test/ops instrumentation: invoked on the training thread right
  /// before a training run that no caller waits for starts (snapshot
  /// already taken, no topic lock held). Blocking here prolongs the
  /// training window without blocking ingest — the async concurrency
  /// tests use it to hold a training in flight deterministically.
  std::function<void()> on_async_training_start;
  ByteBrainOptions parser_options;
  /// Tenant-defined variable-replacement rules (§4.1.2): name -> pattern,
  /// compiled on the linear-time engine at topic creation.
  std::vector<std::pair<std::string, std::string>> variable_rules;
};

/// Validates a TopicConfig up front — shard count in range, nonzero
/// training windows/triggers, compilable variable rules, a directory for
/// disk-backed storage — returning InvalidArgument naming the offending
/// field. LogService::CreateTopic applies it so a bad config fails the
/// creation instead of surfacing at first ingest/training.
Status ValidateTopicConfig(const TopicConfig& config);

/// A partial TopicConfig update: only the knobs that are safe to change
/// on a LIVE topic. Absent fields keep their current value.
/// Structural choices — storage backend/directory, parser options,
/// variable rules — are fixed at creation; changing them means creating
/// a new topic.
struct TopicConfigPatch {
  std::optional<uint64_t> train_volume_bytes;
  std::optional<uint64_t> train_interval_records;
  std::optional<uint64_t> initial_train_records;
  std::optional<uint64_t> max_train_records;
  std::optional<int> num_threads;
  /// Applied as a live reshard: current shard pendings are folded into
  /// the shared model under the exclusive lock before the shard set is
  /// rebuilt (in-flight batches detect the generation bump and
  /// re-resolve their groups under the lock, so no pending id dangles).
  std::optional<int> num_ingest_shards;
  std::optional<bool> async_training;
};

/// One query-result row: a template and the records grouped under it.
struct TemplateGroup {
  TemplateId template_id = kInvalidTemplateId;
  std::string template_text;   // wildcard-merged for display (§7)
  double saturation = 0.0;
  uint64_t count = 0;
  std::vector<uint64_t> sequence_numbers;
};

/// Per-ingest-shard counters (cumulative since topic creation).
struct ShardStats {
  /// Records routed to this shard by the content hash (a batch of one is
  /// not routed).
  uint64_t records = 0;
  uint64_t bytes = 0;
  /// Distinct shapes this shard resolved via the shared-model prematch.
  uint64_t matched_shared = 0;
  /// Distinct shapes resolved by this shard's own pending temporaries.
  uint64_t matched_pending = 0;
  /// Temporary templates this shard adopted locally.
  uint64_t adopted = 0;
  /// Fold operations that moved this shard's pendings into the shared
  /// model (at most one per batch that routed novel shapes here).
  uint64_t merges = 0;
  /// Retired, always 0 (wire tag 7 stays reserved).
  uint64_t memo_hits = 0;
};

/// Statistics the service exposes per topic (Table 5's columns).
struct TopicStats {
  uint64_t ingested_records = 0;
  uint64_t ingested_bytes = 0;
  /// Completed training cycles (waited for or not).
  uint64_t trainings = 0;
  uint64_t matched_online = 0;
  /// Temporary templates created for unmatched logs — online at ingest
  /// plus any re-adopted while committing a training (records that
  /// arrived mid-training and miss the new model).
  uint64_t adopted_templates = 0;
  uint64_t model_bytes = 0;
  double last_training_seconds = 0.0;
  size_t num_templates = 0;
  // --- async retraining ---
  /// Completed cycles no caller waited for (subset of `trainings`).
  uint64_t async_trainings = 0;
  /// 1 while a snapshot is training on the training thread, else 0.
  uint64_t pending_trainings = 0;
  /// Trigger evaluations absorbed by an already-in-flight training; the
  /// backlog is handled by one coalesced follow-up run at commit time.
  uint64_t coalesced_triggers = 0;
  /// Training cycles that could not be scheduled or ended in an error
  /// (model left unchanged). Never fails the ingest that tripped them.
  uint64_t failed_trainings = 0;
  /// Exclusive-lock time of the last commit (swap + re-assign) — the
  /// only part of a training an ingest it did not trip ever waits on.
  double last_swap_seconds = 0.0;
  // --- sharded ingest ---
  /// One entry per ingest shard (size == effective num_ingest_shards).
  std::vector<ShardStats> shards;
  /// Total shard-pending → shared-model folds across all shards.
  uint64_t shard_merges = 0;
  // --- storage ---
  /// True when the topic's records survive restarts (disk backend).
  bool storage_persistent = false;
  /// False once the storage backend hit a sticky IO error (disk full,
  /// lost mount, seal failure): records since then live only in
  /// memory. Monitor this — the topic keeps ingesting (fail-soft) but
  /// durability is gone and RAM grows with every record. Also false
  /// after a failed template re-assignment (a sealed-segment pwrite at
  /// a training commit or recovery): the records it covered keep ids
  /// the model may no longer resolve until the next training.
  bool storage_ok = true;
  /// Sealed (immutable, mmap'd) segment files and their mapped bytes.
  uint64_t storage_sealed_segments = 0;
  uint64_t storage_mapped_bytes = 0;
  /// Records recovered from storage when the topic was (re)opened.
  uint64_t recovered_records = 0;
  /// Split of the last training snapshot: records COPIED under the
  /// lock (the unsealed tail) vs records left on mmap'd sealed
  /// segments for the training thread to read off-lock. For a
  /// disk-backed topic with a large window, copied stays bounded by
  /// the active segment while mapped covers the rest — the snapshot
  /// cost no longer scales with max_train_records.
  uint64_t last_snapshot_copied_records = 0;
  uint64_t last_snapshot_mapped_records = 0;
  // --- write-ahead log (TopicConfig::durability != kNone only) ---
  /// Frame bytes appended to the tail WAL since the last seal/rotation.
  uint64_t wal_bytes = 0;
  /// Acknowledged group-commit waits (each one covered by some fsync);
  /// group_commits / fsyncs is the amortization ratio under load.
  uint64_t wal_group_commits = 0;
  /// WAL fsyncs issued by the commit thread.
  uint64_t wal_fsyncs = 0;
  /// Records replayed from the WAL (beyond the segment file's own tail)
  /// when the topic was (re)opened.
  uint64_t wal_replayed_records = 0;
  // --- segment cache / query index ---
  /// Segment-cache traffic attributed to this topic's backend: pin
  /// requests served by an already-resident mapping vs ones that had to
  /// mmap, and mappings dropped by LRU eviction under the process-wide
  /// budget. storage_mapped_bytes above is the RESIDENT bytes the cache
  /// currently holds for this topic (pinned or reclaimable) — no longer
  /// the sum of all sealed files.
  uint64_t storage_cache_hits = 0;
  uint64_t storage_cache_misses = 0;
  uint64_t storage_cache_evictions = 0;
  /// Sealed-segment sparse indexes rebuilt at open (.idx missing,
  /// corrupt, or stale). Nonzero after a crash is normal; nonzero after
  /// a clean restart means index persistence is misbehaving.
  uint64_t storage_index_rebuilds = 0;
  /// Records individually visited by storage scans (full Scan plus the
  /// per-record portions of template-filtered reads). The regression
  /// budget for "page N does O(page) work": postings-answered counts
  /// and postings-skipped segments add NOTHING here.
  uint64_t storage_scan_record_visits = 0;
  // --- replication ---
  /// How far this node trails its primary, as of the last replication
  /// pull: primary totals minus locally applied. All zero on a primary
  /// (and on a follower that has fully caught up). Lag is measured in
  /// the same units the stream ships — frame bytes, records, sealed
  /// segments — so `lag_bytes == 0` means byte-identical stores.
  uint64_t replication_lag_bytes = 0;
  uint64_t replication_lag_records = 0;
  uint64_t replication_lag_segments = 0;
  /// 0 = primary (accepts writes), 1 = follower (read-only, replicating).
  /// Filled by the frontend from its role flag; topics themselves are
  /// role-agnostic.
  uint32_t replica_role = 0;
};

/// One page of a template-grouped query (ManagedTopic::QueryGroups).
/// Defaults give the legacy whole-result Query.
struct QueryPageRequest {
  double saturation_threshold = 0.6;
  uint64_t begin_seq = 0;
  uint64_t end_seq = UINT64_MAX;
  /// Off = counts only: no sequence collection, no record scan at all
  /// when the window is fully sealed (postings answer it).
  bool collect_sequences = true;
  /// Groups per page; 0 = everything.
  uint64_t max_groups = 0;
  /// Resume AFTER the group with this (count, template_id) in the
  /// global order (count desc, id asc) — carried from the previous
  /// page's QueryPage, so page N+1 seeks its start instead of
  /// recomputing pages 1..N, and stays exact for a pinned window.
  /// Without a resume key the page starts at the first group.
  bool has_resume_key = false;
  uint64_t resume_count = 0;
  TemplateId resume_template_id = kInvalidTemplateId;
  /// Time-range predicate: only records with timestamp_us inside
  /// [min_timestamp_us, max_timestamp_us] contribute. Defaults select
  /// everything (every segment is then fully covered, so postings
  /// answer it). Segments whose min/max timestamps miss the window are
  /// pruned without being read.
  uint64_t min_timestamp_us = 0;
  uint64_t max_timestamp_us = UINT64_MAX;
};

struct QueryPage {
  std::vector<TemplateGroup> groups;
  /// True when groups exist past this page; the fields below are then
  /// the next page's resume key: the last group on this page.
  bool has_more = false;
  uint64_t last_count = 0;
  TemplateId last_template_id = kInvalidTemplateId;
  /// Distinct groups in the whole window (not just this page).
  uint64_t total_groups = 0;
};

/// Anomaly report comparing two ingestion windows (§1, §6: count-change
/// and new-template detection).
struct TemplateAnomaly {
  TemplateId template_id = kInvalidTemplateId;
  std::string template_text;
  uint64_t count_before = 0;
  uint64_t count_after = 0;
  bool is_new = false;     // template absent from the reference window
  double change_ratio = 0.0;
};

/// A managed log topic with automatic parsing.
///
/// Locking contract (see the member comments on `mu_`): public methods
/// document which lock they take, whether they may block on other work,
/// and whether they can run a training cycle. "Shared" sections run
/// concurrently with each other; "exclusive" sections serialize with
/// everything.
class ManagedTopic {
 public:
  /// With a persistent storage backend, construction RECOVERS the
  /// topic: records are replayed from the segment manifest (torn tail
  /// truncated), the checkpointed model is restored and re-published,
  /// volume stats are rebuilt, and records whose template ids the
  /// restored model does not know (post-checkpoint adoptions lost in
  /// the crash) are re-matched. Storage failures never throw — check
  /// StorageStatus() (LogService::CreateTopic does).
  ManagedTopic(std::string name, TopicConfig config);

  /// Drains any in-flight background training (it still commits, so no
  /// records lose their assignments), then joins the training thread.
  ~ManagedTopic();

  ManagedTopic(const ManagedTopic&) = delete;
  ManagedTopic& operator=(const ManagedTopic&) = delete;

  /// Appends a record; assigns a template id online (adopting a temporary
  /// template on a miss). Returns the record's sequence number. Exactly
  /// IngestBatch with a batch of one, which skips dedup and the shards:
  /// it is matched under the SHARED lock, and a miss adopts into the
  /// shared model under the exclusive one.
  Result<uint64_t> Ingest(std::string text, uint64_t timestamp_us = 0);

  /// Batch ingestion: the batch is deduplicated and routed to the ingest
  /// shards by content hash; each distinct text is matched once against
  /// the shared model, in parallel, and each novel shape is adopted once
  /// into a shard-local pending model, all while the topic lock is only
  /// SHARED.
  /// One EXCLUSIVE section then folds the pendings into the shared
  /// model, appends the batch, updates stats, and checks the training
  /// triggers once. If a training swap, reshard or another batch's fold
  /// landed in between, each distinct shape is re-resolved under the
  /// lock instead (see the TopicConfig knob for the semantics caveat).
  /// `timestamps_us` is optional; when non-empty it must have one entry
  /// per text. Returns the records' sequence numbers in order.
  /// Locking: shared for the match phase, exclusive for the rest.
  /// A due trigger schedules a training cycle; this call waits for its
  /// commit (lock released), and on a persistent topic for the commit's
  /// model checkpoint, only for the first training or with
  /// async_training off. A training failure is counted in
  /// failed_trainings, never returned: the records are already stored.
  Result<std::vector<uint64_t>> IngestBatch(
      std::vector<std::string> texts,
      const std::vector<uint64_t>& timestamps_us = {});

  /// View overload of IngestBatch: the texts are BORROWED for the call
  /// (the caller keeps the backing buffer alive until it returns) and
  /// each record's bytes are materialized exactly once, at append.
  /// This is the zero-copy ingest path for callers that already hold
  /// the batch in one buffer — api::ServiceFrontend::Dispatch feeds
  /// decoded wire payloads straight through it. Identical semantics
  /// and locking to the owning overload.
  Result<std::vector<uint64_t>> IngestBatch(
      const std::vector<std::string_view>& texts,
      const std::vector<uint64_t>& timestamps_us = {});

  /// Trains on the most recent records and returns the cycle's outcome
  /// once the new model is live — and, on a persistent topic,
  /// checkpointed (a checkpoint failure shows in StorageStatus(), not
  /// here): waits for any in-flight cycle, then schedules its own and
  /// waits for its commit and checkpoint. Resets the trigger
  /// counters exactly like a triggered training. Locking: exclusive only
  /// for the snapshot and the commit; ingest and queries run while it
  /// trains, and records arriving meanwhile are re-matched at commit.
  Status TrainNow();

  /// Blocks until no training is in flight, including coalesced
  /// follow-up runs scheduled at commit time. Does not prevent
  /// later ingests from triggering new trainings. Locking: shared (only
  /// to read the flag); never blocks ingest.
  void WaitForPendingTraining() const;

  /// Groups the records of [begin_seq, end_seq) by template, resolving
  /// template precision at `saturation_threshold` (§3 "Query"). Groups
  /// arrive ordered by descending count. With `collect_sequences` off,
  /// per-group sequence-number vectors stay empty — counts only, no
  /// per-record allocation (the API's count-only query path).
  /// Locking: shared; concurrent with ingest match phases and background
  /// training, excluded only by exclusive sections. Never trains.
  Result<std::vector<TemplateGroup>> Query(double saturation_threshold,
                                           uint64_t begin_seq = 0,
                                           uint64_t end_seq = UINT64_MAX,
                                           bool collect_sequences = true) const;

  /// The index-backed page form of Query — what the API's paginated
  /// path calls. Group COUNTS come from the storage postings (one
  /// TemplateCounts; fully-sealed windows touch no record bytes), the
  /// page is cut from the global order (count desc, id asc) — seeking
  /// via the request's resume key rather than regrouping — and ONLY the
  /// page's groups get template texts and (when requested) sequence
  /// numbers, the latter via one template-filtered scan that skips
  /// sealed segments holding none of the page's templates. Work per
  /// page is O(distinct templates + page size + matching records), not
  /// O(window). Locking: as Query. Never trains.
  Result<QueryPage> QueryGroups(const QueryPageRequest& req) const;

  /// Compares template counts between two sequence windows and reports
  /// new templates and count changes >= `min_change_ratio`.
  /// Locking: as Query (two shared-lock scans). Never trains.
  Result<std::vector<TemplateAnomaly>> DetectAnomalies(
      uint64_t window1_begin, uint64_t window1_end, uint64_t window2_begin,
      uint64_t window2_end, double min_change_ratio = 2.0) const;

  /// Applies a partial config update to the live topic (the knobs
  /// TopicConfigPatch enumerates). The RESULTING config is validated
  /// with ValidateTopicConfig — the same rule set CreateTopic enforces
  /// — before anything is applied (InvalidArgument names the offending
  /// field, nothing applied on failure). A num_ingest_shards change
  /// folds the current shard pendings into the shared model and
  /// rebuilds the shard set (per-shard counters restart at zero).
  /// Locking: exclusive.
  Status UpdateConfig(const TopicConfigPatch& patch);

  /// Marks (or unmarks) the topic's persistent storage for deletion:
  /// the destructor, after draining any in-flight training, removes
  /// the storage directory instead of flushing a final checkpoint.
  /// Called by LogService::DeleteTopic — which CANCELS the purge if it
  /// cannot destroy the topic synchronously, so a late-firing
  /// destructor never deletes a directory a successor topic may have
  /// reopened.
  void SetPurgeStorageOnDestroy(bool purge) { purge_storage_.store(purge); }

  const std::string& name() const { return name_; }
  /// Locking: shared; returns a consistent snapshot of the counters.
  TopicStats stats() const;

  // --- Locked snapshot accessors -------------------------------------
  // Safe under full concurrency (ingest, training commits, queries);
  // each takes the topic lock shared and copies what it returns. The
  // substrates themselves (storage backend, parser, internal topic) are
  // never exposed raw — every read crosses the lock.

  /// Number of records appended so far. Locking: shared.
  uint64_t size() const;
  /// Copy of the record at `seq` (NotFound past the end); the template
  /// id reflects the current model generation. Locking: shared.
  Result<LogRecord> ReadRecord(uint64_t seq) const;
  /// Invokes fn(seq, record) for [begin_seq, end_seq) under the shared
  /// lock; the callback must not re-enter the topic. Locking: shared.
  Status ScanRecords(
      uint64_t begin_seq, uint64_t end_seq,
      const std::function<void(uint64_t, const LogRecord&)>& fn) const;
  /// Storage health: OK, or why the backend could not open / the first
  /// sticky append, durability-wait, checkpoint or template
  /// re-assignment IO error. Locking: shared.
  Status StorageStatus() const;
  /// True when the model currently knows `id` (a query for it resolves).
  /// Locking: shared.
  bool HasTemplate(TemplateId id) const;
  /// Display texts of every template in the current model, in node
  /// order. Locking: shared.
  std::vector<std::string> TemplateTexts() const;
  /// Snapshot of the internal (template-metadata) topic, insertion
  /// order. Locking: the internal topic's own mutex only.
  std::vector<TemplateMeta> TemplateCatalog() const { return internal_.All(); }
  /// Copy of the live configuration (UpdateConfig may change it).
  /// Locking: shared.
  TopicConfig config() const;

  /// Locking: shared.
  bool trained() const;

  // --- Replication ---------------------------------------------------
  // The topic-level surface the replication layer drives. The primary
  // side (reads) takes the lock SHARED — appends are exclusive, so a
  // chunk is always a consistent prefix; the follower side (applies)
  // takes it EXCLUSIVE, exactly like ingest.

  /// Primary: copies whole frames starting at {segment_index, offset}
  /// into `out`, plus source totals for lag accounting. Locking: shared.
  Status ReplicationRead(uint64_t segment_index, uint64_t offset,
                         uint64_t max_bytes, ReplicationChunk* out) const;

  /// Either side: the first {segment_index, offset} not present in the
  /// local store — the follower's resume point after a restart.
  /// Locking: shared.
  Status ReplicationPosition(uint64_t* segment_index, uint64_t* offset) const;

  /// Follower: checks a locally sealed segment against the primary's
  /// manifest numbers; Corruption = divergence. Locking: shared.
  Status VerifySealedSegment(uint64_t segment_index, uint64_t expect_records,
                             uint64_t expect_checksum) const;

  /// Follower: appends records decoded from a replication chunk with
  /// their SHIPPED template ids — no matching, no adoption, no training
  /// triggers; the primary's assignments are authoritative. Locking:
  /// exclusive.
  Status ApplyReplicated(std::vector<LogRecord> records);

  /// Follower: installs the primary's serialized model (same restore
  /// path construction-time recovery uses: deserialize, rebuild the
  /// matcher, republish template metadata). Locking: exclusive.
  Status ApplyReplicatedModel(const std::string& blob);

  /// Promotion: force-seals the replicated tail so post-promote writes
  /// start a fresh segment. Returns OK with *sealed=false when the tail
  /// was empty. Locking: exclusive.
  Status SealTail(bool* sealed);

  /// Follower: publishes this topic's lag numbers into stats().
  /// Locking: exclusive (a plain stats write).
  void SetReplicationLag(uint64_t lag_bytes, uint64_t lag_records,
                         uint64_t lag_segments);

  /// Current model generation (bumped per training swap and adoption) —
  /// the replication stream's "model changed?" probe. Locking: shared.
  uint64_t ModelGeneration() const;

  /// Serialized current model (TemplateModel::Serialize). Locking:
  /// shared.
  std::string SerializedModel() const;

 private:
  /// One ingest sub-shard (TopicConfig::num_ingest_shards). A shard
  /// owns the temporaries adopted for novel shapes routed to it since
  /// the last fold: a private TemplateModel whose OWN TokenTable means
  /// parallel shard adoption never touches the table the live matcher
  /// reads, plus an incrementally maintained matcher over it.
  ///
  /// Locking: `mu` is taken EXCLUSIVE by the batch match/adopt phase
  /// (which holds the topic lock SHARED) and SHARED by stats(). The
  /// topic-exclusive sections (fold, training commit) take it exclusive
  /// too, though holding `mu_` exclusive already excludes every
  /// shard-phase holder. Lock order: `mu_` before `shard.mu`, always.
  struct IngestShard {
    mutable std::shared_mutex mu;
    /// Shard-adopted temporaries. Never cleared by folds (concurrent
    /// batches may still hold pending ids); reset only when a training
    /// commit supersedes all temporaries.
    TemplateModel pending;
    std::unique_ptr<TemplateMatcher> pending_matcher;
    /// Per pending node (index = local id - 1): the raw representative
    /// text and the model generation at adopt time. A pending adopted
    /// under an older generation is re-MATCHED at fold time instead of
    /// adopted verbatim — the shared model may have gained its shape
    /// meanwhile (another batch's fold or re-resolve).
    std::vector<std::string> reps;
    std::vector<uint64_t> gens;
    /// Shared-model ids of folded pendings (index = local id - 1); its
    /// size is the fold cursor — nodes beyond it await the next fold.
    std::vector<TemplateId> remap;
    ShardStats counters;
  };

  /// One scheduled training cycle: everything the background thread
  /// needs, snapshotted under the lock so the thread never touches live
  /// state while training. The window [window_begin, snapshot_size)
  /// comes in two parts: [window_begin, tail_begin) is SEALED storage,
  /// held as an immutable mmap snapshot the training thread reads
  /// off-lock (zero copies at snapshot time); [tail_begin,
  /// snapshot_size) is the unsealed tail, copied under the lock exactly
  /// like the pre-storage design copied the whole window. For a
  /// memory-backed topic `sealed` is null and the tail IS the window.
  struct TrainingRun {
    uint64_t window_begin = 0;
    uint64_t tail_begin = 0;
    uint64_t snapshot_size = 0;  // topic size at snapshot; 0 = no work
    std::shared_ptr<const SealedRecordView> sealed;
    std::vector<std::string> tail;  // copies of [tail_begin, snapshot_size)
    TemplateModel base;             // Clone() of the live model
    /// Config knobs the background thread consumes, captured at
    /// snapshot time: the thread runs with NO topic lock held, and
    /// UpdateConfig may reassign `config_` (under the exclusive lock)
    /// while a run is in flight — a training uses the configuration as
    /// of its snapshot, never the live struct.
    int num_threads = 2;
    /// A caller waits for this cycle's commit: no start hook, and it
    /// does not count as an async training.
    bool awaited = false;
    std::function<void()> start_hook;
    /// TrainNow's outcome slot, filled under the lock when the cycle ends.
    std::optional<Status>* outcome = nullptr;
    uint64_t window_size() const { return snapshot_size - window_begin; }
  };

  /// Construction-time recovery from a persistent backend: rebuild
  /// volume stats, restore + publish the checkpointed model, re-match
  /// records carrying ids the restored model does not know (a storage
  /// error doing so goes into storage_status_). Runs before the topic
  /// is visible to any other thread (no lock needed).
  void RestoreFromStorage();
  /// Makes `prepared` the live model (building its matcher if absent):
  /// swap, generation bump, model stats, metadata export. Shared by
  /// training commits, recovery and replication. Requires the lock.
  void InstallModelLocked(PreparedRetrain prepared);
  /// Trigger check; requires the exclusive lock. Schedules a cycle when
  /// one is due; while a training is in flight, due triggers only count
  /// `coalesced_triggers` (the commit re-checks and schedules one
  /// follow-up for the whole backlog). True when the caller must wait
  /// for the in-flight cycle (first training, or async_training off).
  bool MaybeTrainLocked();
  /// Copies the training window and clones the model; resets the
  /// volume/record counters (the ONE place they reset, shared by
  /// triggered and manual trainings) and marks a training in flight.
  /// Requires the exclusive lock. `run->snapshot_size == 0` after return
  /// means the topic was empty and nothing was scheduled.
  Status SnapshotTrainingLocked(TrainingRun* run);
  /// Trains on the snapshot and computes the window assignments, with
  /// every throw (user hook, allocation failure in training) converted
  /// into a Status — nothing may escape with `training_in_flight_` set.
  /// Runs lock-free state only; callable with or without the lock.
  Result<PreparedRetrain> PrepareTrainingGuarded(
      TrainingRun* run, std::vector<TemplateId>* assignments) const;
  /// Snapshot + submit to the training thread; requires the exclusive
  /// lock but returns without training. A failure (snapshot scan,
  /// thread creation) is counted in failed_trainings and returned.
  Status ScheduleTrainingLocked(bool awaited, std::optional<Status>* outcome);
  /// Training-thread body, the only path that trains: train off-lock,
  /// then lock for the commit and a possible coalesced follow-up.
  void RunTraining(TrainingRun run);
  /// Publishes a prepared training: InstallModelLocked, window
  /// re-assignment, re-match-or-adopt of mid-training arrivals, stats.
  /// Requires the exclusive lock; clears the in-flight flag up front so
  /// any return path leaves the topic schedulable. A re-assignment
  /// error strands only its records; the first one goes into
  /// storage_status_ and is returned.
  Status CommitTrainingLocked(const TrainingRun& run, PreparedRetrain prepared,
                              const std::vector<TemplateId>& assignments,
                              double train_seconds);
  /// Batch-local dedup group, one per distinct replaced token sequence:
  /// duplicates colocate, so every distinct shape is matched once per
  /// batch, not once per record — and a shard adopts each novel shape
  /// exactly once.
  struct BatchGroup {
    /// Index of the representative record (the shape's first).
    uint32_t rep = 0;
    /// Records sharing this shape, and their raw bytes.
    uint32_t members = 0;
    uint64_t bytes = 0;
    /// False for a batch of one, which is never hashed: it skips the
    /// shards and resolves against the shared model alone.
    bool routed = true;
    /// Routed shard: content hash % shard count.
    uint32_t shard = 0;
    /// Shared-model id, or the shard-pending id of an adopted shape.
    TemplateId resolved = kInvalidTemplateId;
    TemplateId local = kInvalidTemplateId;
  };
  /// The one ingest pipeline (Ingest and both IngestBatch overloads):
  /// dedup + route by content hash, shard-parallel resolve under the
  /// shared lock, one exclusive fold/append section; returns the first
  /// record's sequence number. See ARCHITECTURE.md §4. Templated over
  /// the text type (owned std::strings are moved into records, borrowed
  /// std::string_views are materialized once); the instantiations live
  /// in log_service.cc.
  template <typename Text>
  Result<uint64_t> IngestPipeline(std::span<Text> texts,
                                  std::span<const uint64_t> timestamps_us);
  /// Dedups `texts` into content groups routed over the current shards
  /// and prematches each against the shared model. A batch of one is a
  /// single unrouted group, matched without hashing. record_group[i] is
  /// record i's group. Requires `mu_` (shared suffices).
  template <typename Text>
  void GroupBatchLocked(std::span<Text> texts,
                        std::vector<BatchGroup>* groups,
                        std::vector<uint32_t>* record_group) const;
  /// The shard phase: counts every routed group on its shard and
  /// resolves shared-model misses through the shard's pendings,
  /// adopting genuine misses into the shard-local pending
  /// model. Requires `mu_` shared, taken at generation `gen0`.
  template <typename Text>
  void ResolveGroupsShared(std::span<Text> texts, uint64_t gen0,
                           std::vector<BatchGroup>* groups);
  /// Folds every shard's unfolded pending temporaries into the shared
  /// model, extending each shard's remap. Pendings adopted at the
  /// current model generation are adopted verbatim (their miss verdict
  /// is still current); stale ones go through MatchOrAdopt. Requires the
  /// exclusive lock.
  void FoldShardPendingsLocked();
  /// Drops all shard pending state (a committed training superseded
  /// every temporary). Requires the exclusive lock.
  void ResetShardsLocked();
  /// Counts a just-adopted temporary and publishes its metadata to the
  /// internal topic. Does NOT bump the generation (callers differ: the
  /// online path bumps per adoption, a fold bumps once per fold).
  /// Requires the exclusive lock.
  void PublishAdoptedLocked(TemplateId id);
  /// Writes the model blob a training commit staged (if any) into the
  /// storage manifest. The fsyncs run under `mu_` SHARED — never inside
  /// the exclusive commit section, which stays O(1) — so call this with
  /// NO topic lock held; a cheap atomic makes the no-work case free on
  /// the ingest path. A failure goes sticky into storage_status_. With
  /// `wait`, also waits out a flush another thread (the training
  /// thread, after its commit) has in flight: a caller that waited for
  /// a training's commit returns with its checkpoint written.
  void MaybeFlushStorageCheckpoint(bool wait = false);
  /// Blocks until every record appended so far is durable (group-commit
  /// WAL; immediate otherwise). Call with NO topic lock held: the wait
  /// may span a group-commit fsync. A failure takes `mu_` exclusive
  /// only to go sticky; the caller's ack still stands (fail-soft).
  void WaitDurable();
  /// Keeps `status` in storage_status_ if it is the topic's first
  /// storage failure. Requires the exclusive lock.
  void NoteStorageErrorLocked(const Status& status);

  std::string name_;
  TopicConfig config_;
  /// Ingest shards (size == clamped num_ingest_shards); unique_ptr
  /// because shared_mutex is immovable. Empty state between batches is
  /// NOT guaranteed: pendings persist until a training resets them.
  /// Resized ONLY by UpdateConfig under the exclusive lock; every read
  /// of the vector itself must hold `mu_` (shared suffices).
  std::vector<std::unique_ptr<IngestShard>> shards_;
  /// The topic's append-only record store (paper §3): the backend
  /// config_.storage selects or, if it failed to open, an empty
  /// MemoryBackend. Set once in the constructor. Called under `mu_` as
  /// the threading contract in logstore/storage_backend.h prescribes:
  /// writers exclusive; const readers and Checkpoint shared;
  /// WaitDurable and the wal_* stats with no lock.
  std::unique_ptr<StorageBackend> store_;
  /// Sticky storage health: the open failure, or the first append,
  /// durability-wait, checkpoint or re-assignment IO error (records
  /// past an append error may live only in memory). Written under `mu_`
  /// exclusive, read under shared.
  Status storage_status_;
  InternalTopic internal_;
  ByteBrainParser parser_;
  TopicStats stats_;
  uint64_t bytes_since_training_ = 0;
  uint64_t records_since_training_ = 0;
  bool trained_ = false;
  /// True from snapshot until commit/failure of a training cycle. At
  /// most one cycle runs at a time; triggers firing meanwhile coalesce.
  bool training_in_flight_ = false;
  /// Set by the destructor: the in-flight run still commits, but no
  /// follow-up is scheduled.
  bool shutting_down_ = false;
  /// Bumped by every training swap and every template adoption; lets
  /// IngestBatch detect that ids prematched under the shared lock went
  /// stale before (or during) the exclusive section, and invalidates
  /// online assignments made against a model an async commit replaced.
  uint64_t model_generation_ = 0;
  /// A training commit on a persistent topic stages the serialized
  /// model here (under the exclusive lock, O(model) copy) instead of
  /// fsyncing the manifest inline; MaybeFlushStorageCheckpoint drains
  /// it under checkpoint_mu_ and `mu_` SHARED. The flag is the ingest
  /// path's cheap "anything to do?" probe; checkpoint_mu_ serializes
  /// flushers so staged blobs reach the manifest in commit order. Lock
  /// order: checkpoint_mu_ before mu_, never the reverse.
  std::string pending_model_checkpoint_;
  std::atomic<bool> checkpoint_pending_{false};
  std::mutex checkpoint_mu_;
  /// Set by LogService::DeleteTopic: the destructor removes the storage
  /// directory instead of checkpointing into it.
  std::atomic<bool> purge_storage_{false};
  /// Single-thread pool every training runs on, created on first use;
  /// one thread because cycles are serialized by design (coalescing).
  /// Destroyed first in ~ManagedTopic, which drains the queue while all
  /// other members are still alive.
  std::unique_ptr<ThreadPool> train_pool_;
  /// Signals training completion to TrainNow / WaitForPendingTraining.
  mutable std::condition_variable_any train_done_cv_;
  /// The topic's one lock. Readers (Query, stats, the batch match phase,
  /// storage reads) take shared; anything touching parser/model/store
  /// state takes exclusive. A training holds NO lock while it trains —
  /// only its snapshot and commit sections do.
  mutable std::shared_mutex mu_;
};

/// The topic catalog. Topics are handed out as shared_ptrs so a
/// DeleteTopic racing an in-flight operation on another thread is safe:
/// the topic leaves the catalog immediately (no new lookups see it) and
/// is destroyed — draining its background training — when the last
/// holder releases it. Multi-tenant scoping, admission control, and the
/// wire API live one layer up in api::ServiceFrontend; this catalog
/// stays name-keyed and policy-free.
class LogService {
 public:
  /// Validates `config` (ValidateTopicConfig — InvalidArgument naming
  /// the offending field), then creates the topic; AlreadyExists on
  /// name collisions, the storage open error on a broken disk backend.
  Result<std::shared_ptr<ManagedTopic>> CreateTopic(const std::string& name,
                                                    TopicConfig config = {});

  /// Looks up an existing topic.
  Result<std::shared_ptr<ManagedTopic>> GetTopic(const std::string& name) const;

  /// Removes the topic from the catalog and (normally) destroys it
  /// before returning: new lookups fail immediately, concurrent
  /// operations that already resolved the topic finish (DeleteTopic
  /// waits them out, bounded at ~5s), the in-flight training is
  /// drained, and — with `purge_storage`, the default — a persistent
  /// topic's segment directory is removed. The synchronous destruction
  /// is what makes the purge safe against a CreateTopic reusing the
  /// same directory right after this returns. Callers must release
  /// their own topic handles before deleting; a holder that outlives
  /// the wait deadline defers destruction (and the purge) to its final
  /// release. Pass `purge_storage=false` to keep the bytes recoverable
  /// by a future CreateTopic with the same directory. Fails with
  /// NotFound for unknown names and Aborted for a topic whose creation
  /// is still in flight on another thread.
  Status DeleteTopic(const std::string& name, bool purge_storage = true);

  std::vector<std::string> TopicNames() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<ManagedTopic>> topics_;
};

}  // namespace bytebrain
