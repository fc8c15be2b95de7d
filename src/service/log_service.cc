#include "service/log_service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <numeric>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/tokenizer.h"
#include "regex/regex.h"
#include "util/hashing.h"
#include "util/timer.h"

namespace bytebrain {

namespace {
// The scalar-knob subset of ValidateTopicConfig — cheap enough to run
// under the topic's exclusive lock. UpdateConfig uses exactly this
// (a patch cannot change rules or storage), CreateTopic gets it via
// ValidateTopicConfig: one rule set, two entry points.
Status ValidateTopicKnobs(const TopicConfig& config) {
  if (config.train_volume_bytes == 0) {
    return Status::InvalidArgument("train_volume_bytes must be > 0");
  }
  if (config.train_interval_records == 0) {
    return Status::InvalidArgument("train_interval_records must be > 0");
  }
  if (config.initial_train_records == 0) {
    return Status::InvalidArgument("initial_train_records must be > 0");
  }
  if (config.max_train_records == 0) {
    return Status::InvalidArgument("max_train_records must be > 0");
  }
  if (config.num_threads < 1 || config.num_threads > 256) {
    return Status::InvalidArgument("num_threads must be in [1, 256]");
  }
  if (config.num_ingest_shards < 1 || config.num_ingest_shards > 64) {
    return Status::InvalidArgument("num_ingest_shards must be in [1, 64]");
  }
  return Status::OK();
}

// TopicConfig::durability is the single wire-visible durability knob;
// fold it into the StorageConfig the topic's backend is built from
// (StorageConfig::durability is ignored at this layer otherwise).
StorageConfig EffectiveStorage(const TopicConfig& config) {
  StorageConfig storage = config.storage;
  storage.durability = config.durability;
  return storage;
}
}  // namespace

Status ValidateTopicConfig(const TopicConfig& config) {
  BB_RETURN_IF_ERROR(ValidateTopicKnobs(config));
  if (config.storage.kind == StorageConfig::Kind::kSegmentedDisk &&
      config.storage.directory.empty()) {
    return Status::InvalidArgument(
        "storage.directory is required for kSegmentedDisk storage");
  }
  if (config.storage.kind == StorageConfig::Kind::kSegmentedDisk &&
      config.storage.segment_data_bytes == 0) {
    return Status::InvalidArgument("storage.segment_data_bytes must be > 0");
  }
  if (config.durability != DurabilityMode::kNone &&
      config.storage.kind != StorageConfig::Kind::kSegmentedDisk) {
    return Status::InvalidArgument(
        "durability requires kSegmentedDisk storage");
  }
  for (const auto& [rule_name, pattern] : config.variable_rules) {
    if (rule_name.empty()) {
      return Status::InvalidArgument("variable_rules: rule name is empty");
    }
    auto compiled = Regex::Compile(pattern);
    if (!compiled.ok()) {
      return Status::InvalidArgument("variable_rules['" + rule_name +
                                     "']: " + compiled.status().ToString());
    }
  }
  return Status::OK();
}

ManagedTopic::ManagedTopic(std::string name, TopicConfig config)
    : ManagedTopic(std::move(name), config,
                   CreateStorageBackend(EffectiveStorage(config))) {}

ManagedTopic::ManagedTopic(std::string name, TopicConfig config,
                           std::unique_ptr<StorageBackend> store)
    : name_(std::move(name)),
      config_(std::move(config)),
      store_(std::move(store)),
      parser_(config_.parser_options) {
  storage_status_ = store_->Open();
  if (!storage_status_.ok()) {
    // Fail-soft: a constructor cannot return a Status and a half-broken
    // disk store must never crash, so the topic runs (empty) on an
    // in-memory store and keeps the open error; LogService::CreateTopic
    // surfaces it as the creation result.
    store_ = std::make_unique<MemoryBackend>(
        config_.storage.memory_segment_capacity);
  }
  const int num_shards = std::clamp(config_.num_ingest_shards, 1, 64);
  shards_.reserve(num_shards);
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<IngestShard>());
  }
  for (const auto& [rule_name, pattern] : config_.variable_rules) {
    // Invalid tenant rules are skipped rather than poisoning the topic;
    // the compile error is surfaced through the parser's API when added
    // explicitly.
    (void)parser_.AddVariableRule(rule_name, pattern);
  }
  if (store_->size() > 0) RestoreFromStorage();
}

void ManagedTopic::RestoreFromStorage() {
  // Volume stats are derivable from the recovered store; cycle counters
  // (trainings, adoption counts, ...) restart at zero — they describe
  // this process's lifetime.
  stats_.ingested_records = store_->size();
  stats_.ingested_bytes = store_->text_bytes();
  stats_.recovered_records = store_->size();

  const std::string blob = store_->metadata();
  bool restored = false;
  if (!blob.empty()) {
    auto model = TemplateModel::Deserialize(blob);
    // An unreadable model snapshot is not fatal: the records survived,
    // and the initial-training trigger below re-learns from them.
    if (model.ok()) {
      InstallModelLocked({std::move(model).value(), nullptr});
      restored = true;
    }
  }
  if (!restored) {
    // No model: count the whole recovered window toward the initial
    // training so the next ingest trips it.
    records_since_training_ = store_->size();
    bytes_since_training_ = store_->text_bytes();
    return;
  }
  // Records appended after the last checkpoint may carry template ids
  // the restored model does not know (temporaries adopted and lost in
  // the crash). Re-match them in arrival order so every stored id
  // resolves — the same reconciliation a training commit applies to
  // mid-training arrivals — and write back ONE range [first unknown,
  // size) in which known records keep their ids (the backend skips
  // them). Collected first: the store must not be written from inside
  // its own Scan.
  uint64_t first_unknown = 0;
  std::vector<TemplateId> ids;
  std::vector<std::pair<size_t, std::string>> unknown;  // index into ids
  NoteStorageErrorLocked(store_->Scan(
      0, store_->size(), [&](uint64_t seq, const LogRecord& rec) {
        const bool known = rec.template_id != kInvalidTemplateId &&
                           parser_.model().node(rec.template_id) != nullptr;
        if (unknown.empty()) {
          if (known) return;
          first_unknown = seq;
        }
        if (!known) unknown.emplace_back(ids.size(), rec.text);
        ids.push_back(rec.template_id);
      }));
  for (auto& [index, text] : unknown) {
    bool adopted = false;
    ids[index] = parser_.MatchOrAdopt(text, &adopted);
    if (adopted) {
      ++model_generation_;
      ++stats_.adopted_templates;
    }
  }
  NoteStorageErrorLocked(store_->AssignTemplates(first_unknown, ids));
}

void ManagedTopic::InstallModelLocked(PreparedRetrain prepared) {
  if (prepared.matcher == nullptr) {
    prepared.matcher = std::make_unique<TemplateMatcher>(prepared.model,
                                                         &parser_.replacer());
  }
  parser_.CommitRetrain(std::move(prepared));
  ++model_generation_;
  trained_ = true;
  stats_.num_templates = parser_.model().size();
  stats_.model_bytes = parser_.ModelBytes();
}

ManagedTopic::~ManagedTopic() {
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    // An in-flight training still commits (its assignments are not
    // lost), but its commit schedules no follow-up.
    shutting_down_ = true;
  }
  // ThreadPool destruction drains queued tasks and joins the worker; it
  // runs here — not in member destruction — so every other member is
  // still alive while the last training commits.
  train_pool_.reset();
  if (purge_storage_.load()) {
    // DeleteTopic: the records are going away with the topic — remove
    // the segment directory instead of checkpointing into it. Best
    // effort; an undeletable directory must not throw from a destructor.
    if (store_->persistent() && !config_.storage.directory.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(config_.storage.directory, ec);
    }
    return;
  }
  // A drained final commit may have staged a model checkpoint; flush
  // it so a clean shutdown is recoverable to its last training.
  MaybeFlushStorageCheckpoint();
}

Result<uint64_t> ManagedTopic::Ingest(std::string text,
                                      uint64_t timestamp_us) {
  return IngestPipeline(std::span<std::string>(&text, 1),
                        std::span<const uint64_t>(&timestamp_us, 1));
}

namespace {
// The sequence numbers of `count` records appended from `first` on.
Result<std::vector<uint64_t>> BatchSeqs(const Result<uint64_t>& first,
                                        size_t count) {
  BB_RETURN_IF_ERROR(first.status());
  std::vector<uint64_t> seqs(count);
  std::iota(seqs.begin(), seqs.end(), first.value());
  return seqs;
}
}  // namespace

Result<std::vector<uint64_t>> ManagedTopic::IngestBatch(
    std::vector<std::string> texts,
    const std::vector<uint64_t>& timestamps_us) {
  return BatchSeqs(IngestPipeline(std::span<std::string>(texts),
                                  std::span<const uint64_t>(timestamps_us)),
                   texts.size());
}

Result<std::vector<uint64_t>> ManagedTopic::IngestBatch(
    const std::vector<std::string_view>& texts,
    const std::vector<uint64_t>& timestamps_us) {
  return BatchSeqs(IngestPipeline(std::span<const std::string_view>(texts),
                                  std::span<const uint64_t>(timestamps_us)),
                   texts.size());
}

namespace {
// Materializes one batch text into an owned record string: owned
// strings MOVE (no extra copy), borrowed views copy exactly once — the
// only materialization the view ingest path pays.
std::string TakeText(std::string& text) { return std::move(text); }
std::string TakeText(std::string_view text) { return std::string(text); }
}  // namespace

template <typename Text>
Result<uint64_t> ManagedTopic::IngestPipeline(
    std::span<Text> texts, std::span<const uint64_t> timestamps_us) {
  if (!timestamps_us.empty() && timestamps_us.size() != texts.size()) {
    return Status::InvalidArgument(
        "timestamps_us must be empty or match texts in size");
  }
  if (texts.empty()) return uint64_t{0};

  std::vector<BatchGroup> groups;
  std::vector<uint32_t> record_group;
  uint64_t gen0 = 0;
  {
    // Shared phase: dedup, route, and resolve every distinct shape
    // concurrently with queries and other batches' shared phases. A live
    // reshard (UpdateConfig) holds the exclusive lock to swap shards_, so
    // the size read here and every shards_[i] touched below are from ONE
    // consistent shard set; the exclusive section revalidates via the
    // generation (a reshard bumps it) before touching shard state.
    std::shared_lock<std::shared_mutex> lock(mu_);
    gen0 = model_generation_;
    // No model to route against yet: the exclusive section appends the
    // batch unassigned and the trigger check below bootstraps training.
    if (trained_) {
      GroupBatchLocked(texts, &groups, &record_group);
      ResolveGroupsShared(texts, gen0, &groups);
    }
  }

  // Exclusive section: fold pendings into the shared model, then append
  // every record in input order with its resolved id.
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (trained_) {
    // Anything that changed the model since the shared phase — a
    // training swap, another batch's fold or adoption, a reshard —
    // invalidates the prematch verdicts AND can have dropped the pending
    // ids (a training reset). Fold first (stale pendings re-match
    // inside), then re-resolve under the lock each group whose verdict
    // is stale or missing (an unrouted batch of one the shared model
    // missed): one MatchOrAdopt per distinct shape, adopting in group
    // order exactly like online matching.
    const bool stale = model_generation_ != gen0;
    FoldShardPendingsLocked();
    // The topic may have trained after the shared phase saw it
    // untrained; the batch is grouped here then.
    if (stale && groups.empty()) {
      GroupBatchLocked(texts, &groups, &record_group);
    }
    for (BatchGroup& g : groups) {
      if (!stale && (g.resolved != kInvalidTemplateId ||
                     g.local != kInvalidTemplateId)) {
        continue;
      }
      bool adopted = false;
      g.resolved = parser_.MatchOrAdopt(texts[g.rep], &adopted);
      if (adopted) {
        // An adopted template (saturation 1.0) can shadow
        // lower-saturation matches; ids resolved before it existed
        // are no longer authoritative.
        ++model_generation_;
        ++stats_.adopted_templates;
      }
    }
  }
  // Lean append: every record has its resolved id (or none, before the
  // first training), so stats are bulked and the store is appended
  // under ONE lock. The training triggers are evaluated once, after the
  // batch: the batch is the unit of ingest, so a snapshot window lands
  // on a batch boundary.
  std::vector<LogRecord> records(texts.size());
  uint64_t batch_bytes = 0;
  for (size_t i = 0; i < texts.size(); ++i) {
    LogRecord& record = records[i];
    record.timestamp_us = timestamps_us.empty() ? 0 : timestamps_us[i];
    record.text = TakeText(texts[i]);
    if (!groups.empty()) {
      const BatchGroup& g = groups[record_group[i]];
      record.template_id = g.resolved != kInvalidTemplateId
                               ? g.resolved
                               : shards_[g.shard]->remap[g.local - 1];
    }
    batch_bytes += record.text.size();
  }
  const uint64_t first_seq = store_->size();
  // An append-path IO error (disk full, lost mount) goes sticky; the
  // backend fail-softs internally (the records land in its in-memory
  // mirror, sealed data keeps serving, nothing more is written), so the
  // stream stays intact — only durability is lost.
  NoteStorageErrorLocked(store_->AppendBatch(std::move(records)));
  if (trained_) stats_.matched_online += texts.size();
  stats_.ingested_records += texts.size();
  stats_.ingested_bytes += batch_bytes;
  bytes_since_training_ += batch_bytes;
  records_since_training_ += texts.size();
  // The records are stored: a training failure is counted, never
  // reported as a failed ingest.
  const bool await_training = MaybeTrainLocked();
  lock.unlock();
  // Group-commit durability wait, deliberately off-lock: the WAL commit
  // thread coalesces concurrent batches into one fsync, and holding mu_
  // here would serialize them.
  WaitDurable();
  if (await_training) WaitForPendingTraining();
  MaybeFlushStorageCheckpoint(/*wait=*/await_training);
  return first_seq;
}

template <typename Text>
void ManagedTopic::GroupBatchLocked(std::span<Text> texts,
                                    std::vector<BatchGroup>* groups,
                                    std::vector<uint32_t>* record_group) const {
  if (texts.size() == 1) {
    // A batch of one has nothing to deduplicate: it stays unrouted and
    // is matched against the shared model directly; a miss adopts under
    // the exclusive lock.
    BatchGroup g;
    g.members = 1;
    g.bytes = texts[0].size();
    g.routed = false;
    g.resolved = parser_.Match(texts[0]);
    groups->push_back(g);
    record_group->assign(1, 0);
    return;
  }
  // -- Dedup level 1: collapse byte-identical records on a raw-bytes
  // fast hash (an order of magnitude cheaper than any scan; exact
  // duplicate lines are the dominant redundancy in real streams — the
  // paper's Fig. 4). Records with equal 64-bit hashes are treated as
  // identical — the same trust the training path places in hashes when
  // it deduplicates the window (paper Eq. 1; util/hashing.h).
  struct RawGroup {
    uint32_t rep = 0;       // first record with this raw text
    uint32_t members = 0;
    uint64_t bytes = 0;
    uint64_t content = 0;   // content hash, filled below
    TemplateId id = kInvalidTemplateId;  // prematch verdict
  };
  std::vector<RawGroup> raw_groups;
  std::vector<uint32_t> record_raw(texts.size(), 0);
  {
    std::unordered_map<uint64_t, uint32_t> by_raw;
    by_raw.reserve(texts.size());
    for (uint32_t i = 0; i < texts.size(); ++i) {
      auto [it, inserted] = by_raw.emplace(
          HashBytesFast(texts[i]), static_cast<uint32_t>(raw_groups.size()));
      if (inserted) {
        RawGroup rg;
        rg.rep = i;
        raw_groups.push_back(rg);
      }
      RawGroup& rg = raw_groups[it->second];
      ++rg.members;
      rg.bytes += texts[i].size();
      record_raw[i] = it->second;
    }
  }

  // -- Per raw-distinct text, in ONE parallel pass: the matcher's scan
  // yields the token ids AND the content hash of the replaced token
  // sequence (what groups variable-value duplicates — "port 80" vs
  // "port 443" → one shape — and routes the shape to its shard), and
  // the scanned ids are matched against the shared model.
  const size_t num_shards = shards_.size();
  const TemplateMatcher& matcher = *parser_.matcher();
  ParallelForShards(
      raw_groups.size(), config_.num_threads, [&](size_t begin, size_t end) {
        TemplateMatcher::MatchScratch scratch;
        for (size_t i = begin; i < end; ++i) {
          RawGroup& rg = raw_groups[i];
          rg.content = matcher.Tokenize(texts[rg.rep], &scratch);
          rg.id = matcher.MatchIds(scratch.ids, &scratch);
        }
      });

  // -- Content groups: one per distinct shape.
  std::vector<uint32_t> raw_group(raw_groups.size());
  std::unordered_map<uint64_t, uint32_t> by_hash;
  by_hash.reserve(raw_groups.size());
  for (uint32_t r = 0; r < raw_groups.size(); ++r) {
    const RawGroup& rg = raw_groups[r];
    auto [it, inserted] =
        by_hash.emplace(rg.content, static_cast<uint32_t>(groups->size()));
    raw_group[r] = it->second;
    if (inserted) {
      BatchGroup g;
      g.rep = rg.rep;
      g.shard = static_cast<uint32_t>(rg.content % num_shards);
      g.resolved = rg.id;
      groups->push_back(g);
    }
    BatchGroup& g = (*groups)[raw_group[r]];
    g.members += rg.members;
    g.bytes += rg.bytes;
  }
  record_group->resize(texts.size());
  for (uint32_t i = 0; i < texts.size(); ++i) {
    (*record_group)[i] = raw_group[record_raw[i]];
  }
}

template <typename Text>
void ManagedTopic::ResolveGroupsShared(std::span<Text> texts, uint64_t gen0,
                                       std::vector<BatchGroup>* groups) {
  // The shard phase, with mu_ only SHARED and each shard under its own
  // lock, shards in parallel: count every group and resolve each
  // shared-model miss through the shard's pending matcher — and a
  // genuine miss adopts into the shard-local pending model. A batch of
  // one is unrouted and has no shard work.
  if (!groups->front().routed) return;
  const size_t num_shards = shards_.size();
  std::vector<std::vector<uint32_t>> shard_worklist(num_shards);
  for (uint32_t g = 0; g < groups->size(); ++g) {
    shard_worklist[(*groups)[g].shard].push_back(g);
  }
  const VariableReplacer& replacer = parser_.replacer();
  ParallelForShards(
      num_shards, config_.num_threads, [&](size_t begin, size_t end) {
        std::string replaced_scratch;
        std::vector<std::string_view> view_scratch;
        for (size_t s = begin; s < end; ++s) {
          if (shard_worklist[s].empty()) continue;
          IngestShard& shard = *shards_[s];
          std::unique_lock<std::shared_mutex> shard_lock(shard.mu);
          for (uint32_t g : shard_worklist[s]) {
            BatchGroup& group = (*groups)[g];
            shard.counters.records += group.members;
            shard.counters.bytes += group.bytes;
            if (group.resolved != kInvalidTemplateId) {
              ++shard.counters.matched_shared;
              continue;
            }
            const auto& rep = texts[group.rep];
            if (!shard.pending.empty()) {
              if (shard.pending_matcher == nullptr) {
                shard.pending_matcher = std::make_unique<TemplateMatcher>(
                    shard.pending, &parser_.replacer());
              }
              group.local = shard.pending_matcher->Match(rep);
              if (group.local != kInvalidTemplateId) {
                ++shard.counters.matched_pending;
                continue;
              }
            }
            // Novel shape: adopt into the shard's pending model with the
            // exact replaced token sequence online adoption would have
            // used (one replace+tokenize per DISTINCT shape).
            replacer.ReplaceInto(rep, &replaced_scratch);
            view_scratch.clear();
            TokenizeDefaultInto(replaced_scratch, &view_scratch);
            std::vector<std::string> tokens(view_scratch.begin(),
                                            view_scratch.end());
            group.local = shard.pending.AdoptTemporary(std::move(tokens));
            if (shard.pending_matcher != nullptr) {
              shard.pending_matcher->Insert(*shard.pending.node(group.local));
            }
            shard.reps.emplace_back(rep);
            shard.gens.push_back(gen0);
            ++shard.counters.adopted;
          }
        }
      });
}

void ManagedTopic::FoldShardPendingsLocked() {
  // The exclusive lock already excludes every shard-phase writer, so
  // the fold cursors can be read without the shard locks.
  if (std::none_of(shards_.begin(), shards_.end(), [](const auto& shard) {
        return shard->remap.size() < shard->pending.size();
      })) {
    return;
  }
  // One generation snapshot for the whole fold: adoptions below do not
  // re-stale the remaining pendings, because shapes within and across
  // shards are pairwise distinct by construction (hash routing within a
  // batch, pending_matcher dedup across batches). The bump lands once,
  // at the end — staleness checks test equality, not counts.
  const uint64_t fold_gen = model_generation_;
  bool adopted_any = false;
  for (const std::unique_ptr<IngestShard>& shard_ptr : shards_) {
    IngestShard& shard = *shard_ptr;
    std::unique_lock<std::shared_mutex> shard_lock(shard.mu);
    const size_t total = shard.pending.size();
    const size_t folded_from = shard.remap.size();
    size_t next = folded_from;
    if (next >= total) continue;
    ++shard.counters.merges;
    ++stats_.shard_merges;
    while (next < total) {
      if (shard.gens[next] == fold_gen) {
        // The shared model is unchanged since these shapes missed it:
        // adopt the whole same-generation run verbatim.
        size_t run = next;
        while (run < total && shard.gens[run] == fold_gen) ++run;
        std::vector<TemplateId> ids =
            parser_.FoldTemporaries(&shard.pending, next, run - next);
        shard.remap.insert(shard.remap.end(), ids.begin(), ids.end());
        stats_.adopted_templates += ids.size();
        adopted_any = true;
        next = run;
        continue;
      }
      // Adopted against an older model: its shape may exist by now
      // (another batch's fold or re-resolve) — re-match the
      // raw representative, adopting only on a genuine miss.
      bool adopted = false;
      const TemplateId id = parser_.MatchOrAdopt(shard.reps[next], &adopted);
      shard.remap.push_back(id);
      if (adopted) {
        adopted_any = true;
        ++stats_.adopted_templates;
      }
      ++next;
    }
    // Folded entries' raw representative copies are dead (only the
    // stale-fold path above reads them, never below the cursor) —
    // release the text without disturbing the id-aligned indexing.
    // Entries below `folded_from` were released by an earlier fold.
    for (size_t i = folded_from; i < total; ++i) {
      if (!shard.reps[i].empty()) {
        std::string().swap(shard.reps[i]);
      }
    }
  }
  if (adopted_any) ++model_generation_;
}

void ManagedTopic::ResetShardsLocked() {
  for (std::unique_ptr<IngestShard>& shard_ptr : shards_) {
    IngestShard& shard = *shard_ptr;
    std::unique_lock<std::shared_mutex> shard_lock(shard.mu);
    shard.pending = TemplateModel();
    shard.pending_matcher.reset();
    shard.reps.clear();
    shard.gens.clear();
    shard.remap.clear();
  }
}

bool ManagedTopic::MaybeTrainLocked() {
  const bool first_training_due =
      !trained_ && records_since_training_ >= config_.initial_train_records;
  const bool retrain_due =
      trained_ && (bytes_since_training_ >= config_.train_volume_bytes ||
                   records_since_training_ >= config_.train_interval_records);
  if (!first_training_due && !retrain_due) return false;
  const bool awaited = first_training_due || !config_.async_training;
  if (training_in_flight_) {
    // Coalesce: the running cycle's commit re-checks the (still
    // accumulating) counters and schedules one follow-up for the whole
    // backlog instead of queueing a run per trigger.
    ++stats_.coalesced_triggers;
    return awaited;
  }
  // A failure is counted inside; the trigger stays due and retries.
  (void)ScheduleTrainingLocked(awaited, /*outcome=*/nullptr);
  return awaited;
}

Status ManagedTopic::TrainNow() {
  std::optional<Status> outcome;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    // Let an in-flight cycle commit first (its counters/window would
    // otherwise race ours), then wait for our own commit; an empty
    // topic schedules nothing and leaves the flag clear.
    train_done_cv_.wait(lock, [this] { return !training_in_flight_; });
    BB_RETURN_IF_ERROR(ScheduleTrainingLocked(/*awaited=*/true, &outcome));
    train_done_cv_.wait(lock, [this, &outcome] {
      return outcome.has_value() || !training_in_flight_;
    });
  }
  MaybeFlushStorageCheckpoint(/*wait=*/true);
  return outcome.value_or(Status::OK());
}

void ManagedTopic::WaitForPendingTraining() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  train_done_cv_.wait(lock, [this] { return !training_in_flight_; });
}

Status ManagedTopic::SnapshotTrainingLocked(TrainingRun* run) {
  const uint64_t total = store_->size();
  run->snapshot_size = 0;
  if (total == 0) return Status::OK();
  const uint64_t window =
      std::min<uint64_t>(total, config_.max_train_records);
  run->window_begin = total - window;
  // The sealed part of the window needs no copy: sealed segments are
  // immutable and the snapshot keeps them mapped, so the TRAINING
  // thread reads them off-lock. Only the unsealed tail (bounded by the
  // active segment, not by max_train_records) is copied here.
  run->tail_begin = run->window_begin;
  run->sealed = store_->SnapshotSealed();
  if (run->sealed != nullptr) {
    const uint64_t sealed_end = std::min(run->sealed->end_seq(), total);
    if (sealed_end > run->tail_begin) {
      run->tail_begin = sealed_end;
    } else {
      run->sealed.reset();  // window is entirely unsealed
    }
  }
  run->tail.reserve(total - run->tail_begin);
  BB_RETURN_IF_ERROR(store_->Scan(
      run->tail_begin, total, [run](uint64_t, const LogRecord& rec) {
        run->tail.push_back(rec.text);
      }));
  stats_.last_snapshot_copied_records = total - run->tail_begin;
  stats_.last_snapshot_mapped_records = run->tail_begin - run->window_begin;
  run->base = parser_.SnapshotModel();
  run->num_threads = config_.num_threads;
  run->snapshot_size = total;
  // The trigger counters measure "volume since the last training
  // SNAPSHOT" — records arriving while this snapshot trains count toward
  // the NEXT cycle. Triggered and manual (TrainNow) trainings both reset
  // here and nowhere else.
  bytes_since_training_ = 0;
  records_since_training_ = 0;
  training_in_flight_ = true;
  return Status::OK();
}

Result<PreparedRetrain> ManagedTopic::PrepareTrainingGuarded(
    TrainingRun* run, std::vector<TemplateId>* assignments) const {
  try {
    // Read ONLY the run's snapshot (hook, thread count): this executes
    // off-lock and config_ may be reassigned by UpdateConfig meanwhile.
    if (run->start_hook) run->start_hook();
    // Materialize the window as VIEWS: the sealed part points straight
    // into the mmap'd segments (held alive by run->sealed), the tail
    // part into the snapshot's copies — the window itself is never
    // duplicated into RAM, no matter how large max_train_records is.
    std::vector<std::string_view> window;
    window.reserve(run->window_size());
    if (run->sealed != nullptr) {
      const Status scanned = run->sealed->ScanTexts(
          run->window_begin, run->tail_begin,
          [&window](uint64_t, std::string_view text) {
            window.push_back(text);
          });
      if (!scanned.ok()) return scanned;
    }
    for (const std::string& text : run->tail) window.emplace_back(text);
    auto built = parser_.PrepareRetrain(std::move(run->base), window);
    if (built.ok()) {
      *assignments =
          built.value().matcher->MatchAll(window, run->num_threads);
    }
    return built;
  } catch (const std::exception& e) {
    return Status::Aborted(std::string("training threw: ") + e.what());
  } catch (...) {
    return Status::Aborted("training threw");
  }
}

Status ManagedTopic::ScheduleTrainingLocked(bool awaited,
                                            std::optional<Status>* outcome) {
  TrainingRun run;
  const Status snapshot = SnapshotTrainingLocked(&run);
  if (!snapshot.ok()) {
    ++stats_.failed_trainings;
    return snapshot;
  }
  if (run.snapshot_size == 0) return Status::OK();
  run.awaited = awaited;
  if (!awaited) run.start_hook = config_.on_async_training_start;
  run.outcome = outcome;
  try {
    if (train_pool_ == nullptr) train_pool_ = std::make_unique<ThreadPool>(1);
    // shared_ptr because std::function requires a copyable callable; the
    // run itself is never actually copied. Schedule (not Submit) as a
    // last-resort backstop: RunTraining converts every foreseeable throw
    // into failed-training stats itself, and anything that still escapes
    // is captured by the task's future instead of terminating the
    // worker.
    auto shared_run = std::make_shared<TrainingRun>(std::move(run));
    (void)train_pool_->Schedule(
        [this, shared_run] { RunTraining(std::move(*shared_run)); });
  } catch (const std::exception& e) {
    // Thread creation (pid/rlimit exhaustion) or allocation failed; the
    // snapshot set training_in_flight_, which MUST not leak out set or
    // no training would ever run again and waiters would sleep forever.
    training_in_flight_ = false;
    ++stats_.failed_trainings;
    train_done_cv_.notify_all();
    return Status::ResourceExhausted(
        std::string("cannot schedule training: ") + e.what());
  }
  return Status::OK();
}

void ManagedTopic::RunTraining(TrainingRun run) {
  // The timer covers the whole run — including the instrumentation
  // hook, which tests use to stretch the window.
  Timer timer;

  // The expensive part runs with NO topic lock held: ingest keeps
  // matching against the current model, queries keep scanning. The
  // snapshot owns every input (window copies, cloned model); the only
  // shared state touched is the replacer, which is const after setup.
  // A throw from the user hook (or an allocation failure in training)
  // must not escape the training thread: it becomes a failed training.
  std::vector<TemplateId> assignments;
  auto prepared = PrepareTrainingGuarded(&run, &assignments);
  const double train_seconds = timer.ElapsedSeconds();

  std::unique_lock<std::shared_mutex> lock(mu_);
  Status outcome = prepared.status();
  try {
    if (!prepared.ok()) {
      // Model untouched; clear the in-flight state the commit would have.
      training_in_flight_ = false;
      ++stats_.failed_trainings;
    } else {
      Timer swap_timer;
      // Once CommitTrainingLocked runs, the swap has happened: the cycle
      // counts as a training regardless of the re-assignment statuses
      // inside (TrainNow and the storage status still report them).
      outcome = CommitTrainingLocked(run, std::move(prepared).value(),
                                     assignments, train_seconds);
      stats_.last_swap_seconds = swap_timer.ElapsedSeconds();
      if (!run.awaited) ++stats_.async_trainings;
    }
    // Triggers that fired while we trained were coalesced; if their volume
    // is still due, run ONE follow-up cycle for the whole backlog. The
    // destructor suppresses this so shutdown drains.
    if (!shutting_down_) (void)MaybeTrainLocked();
  } catch (...) {
    // Allocation failure mid-commit or mid-reschedule. Leave the topic
    // schedulable and visibly account the breakage rather than letting
    // the exception vanish into the discarded task future.
    training_in_flight_ = false;
    ++stats_.failed_trainings;
    outcome = Status::Aborted("training commit threw");
  }
  if (run.outcome != nullptr) *run.outcome = outcome;
  // Waiters re-check under the lock: if a follow-up was scheduled,
  // training_in_flight_ is set again and they keep sleeping.
  train_done_cv_.notify_all();
  lock.unlock();
  // The commit staged a model checkpoint; its fsyncs belong on this
  // thread, not under the exclusive lock.
  MaybeFlushStorageCheckpoint();
}

Status ManagedTopic::CommitTrainingLocked(
    const TrainingRun& run, PreparedRetrain prepared,
    const std::vector<TemplateId>& assignments, double train_seconds) {
  // Clear the in-flight state first so the topic can schedule its next
  // cycle whatever the re-assignment statuses below.
  training_in_flight_ = false;
  train_done_cv_.notify_all();

  // (a) Install: the O(1) model/matcher swap and a generation bump (ids
  // prematched by IngestBatch or assigned online against the superseded
  // model are no longer authoritative). On a persistent store, step (e)
  // stages the model for the manifest: the durable, replicated
  // node-metadata store of §3.
  InstallModelLocked(std::move(prepared));
  // (b) Shard pendings are temporaries, and the swap just superseded
  // every temporary: drop them. In-flight batches detect the bump and
  // re-resolve their groups under the lock, so no pending id dangles.
  ResetShardsLocked();
  ++stats_.trainings;
  stats_.last_training_seconds = train_seconds;

  // From here on the swap is live, so assignment-path IO errors (a
  // disk backend's sealed-segment pwrite can fail) must NOT abort the
  // remaining steps — skipping (d)'s reconciliation would leave records
  // pointing at the dropped model. Each bulk call applies what it can;
  // the first error goes sticky into the storage status and is
  // returned. Only the records whose write failed keep stale ids, until
  // the next training or restart recovery re-matches them.
  Status first_error;
  auto keep_first = [&first_error](Status status) {
    if (!status.ok() && first_error.ok()) first_error = std::move(status);
  };

  // (c) Re-assign the training window (retraining refines earlier
  // assignments) with the match results computed off-lock — one bulk
  // call; the backend skips unchanged ids, so the exclusive section
  // does not pay per-record syscalls for a window whose assignments
  // mostly survived the merge.
  keep_first(store_->AssignTemplates(run.window_begin, assignments));

  // (d) Records that arrived while the snapshot trained carry ids from
  // the superseded model (including temporaries the swap just dropped).
  // Re-match them against the new model in arrival order — adopting
  // misses exactly as online matching would have — so no assignment is
  // lost and the end state equals a training that stalled ingest at the
  // trigger point. Matching is ~ns-scale per record, so this section
  // stays far below training cost.
  const uint64_t now = store_->size();
  if (now > run.snapshot_size) {
    std::vector<std::string> tail;
    tail.reserve(now - run.snapshot_size);
    keep_first(store_->Scan(
        run.snapshot_size, now,
        [&tail](uint64_t, const LogRecord& rec) { tail.push_back(rec.text); }));
    std::vector<TemplateId> ids;
    ids.reserve(tail.size());
    for (const std::string& text : tail) {
      bool adopted = false;
      ids.push_back(parser_.MatchOrAdopt(text, &adopted));
      if (adopted) ++stats_.adopted_templates;
    }
    keep_first(store_->AssignTemplates(run.snapshot_size, ids));
  }

  // (e) Durability: STAGE the committed model for a manifest
  // checkpoint. The serialize is an O(model) copy; the expensive part
  // (drain + fsyncs + manifest slot write) runs in
  // MaybeFlushStorageCheckpoint once the caller releases the exclusive
  // lock, keeping this commit section O(1)-ish as designed.
  if (store_->persistent()) {
    pending_model_checkpoint_ = parser_.model().Serialize();
    checkpoint_pending_.store(true, std::memory_order_release);
  }
  NoteStorageErrorLocked(first_error);
  return first_error;
}

void ManagedTopic::MaybeFlushStorageCheckpoint(bool wait) {
  if (!wait && !checkpoint_pending_.load(std::memory_order_acquire)) return;
  // checkpoint_mu_ serializes flushers (blobs reach the manifest in
  // staging order), is held for the whole flush — so taking it waits
  // out one in flight on another thread — and is always taken BEFORE
  // mu_.
  std::lock_guard<std::mutex> checkpoint_lock(checkpoint_mu_);
  Status checkpointed;
  {
    // Shared is enough: it excludes every writer (the commit that stages
    // the blob included), checkpoint_mu_ excludes other flushers, and a
    // checkpoint mutates only write-path state no reader touches (see
    // the threading contract in storage_backend.h) — queries keep
    // running through the fsyncs.
    std::shared_lock<std::shared_mutex> lock(mu_);
    std::string blob;
    blob.swap(pending_model_checkpoint_);
    checkpoint_pending_.store(false, std::memory_order_release);
    if (blob.empty()) return;
    checkpointed = store_->Checkpoint(blob);
  }
  // Best effort — a full disk must not fail the already-committed
  // swap; the sticky storage status reports it.
  if (!checkpointed.ok()) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    NoteStorageErrorLocked(checkpointed);
  }
}

void ManagedTopic::WaitDurable() {
  // store_ is never replaced after construction, and the WAL underneath
  // is internally synchronized: no lock for the wait itself.
  const Status durable = store_->WaitDurable();
  if (!durable.ok()) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    NoteStorageErrorLocked(durable);
  }
}

void ManagedTopic::NoteStorageErrorLocked(const Status& status) {
  if (!status.ok() && storage_status_.ok()) storage_status_ = status;
}

Result<std::vector<TemplateGroup>> ManagedTopic::Query(
    double saturation_threshold, uint64_t begin_seq, uint64_t end_seq,
    bool collect_sequences) const {
  QueryPageRequest req;
  req.saturation_threshold = saturation_threshold;
  req.begin_seq = begin_seq;
  req.end_seq = end_seq;
  req.collect_sequences = collect_sequences;
  auto page = QueryGroups(req);
  BB_RETURN_IF_ERROR(page.status());
  return std::move(page.value().groups);
}

Result<QueryPage> ManagedTopic::QueryGroups(const QueryPageRequest& req) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const uint64_t end = std::min(req.end_seq, store_->size());
  const uint64_t begin = std::min(req.begin_seq, end);

  // Counts per RAW stored template id, from the storage postings —
  // segments fully inside both the sequence and the time window are
  // answered without touching record bytes, and segments whose min/max
  // timestamps miss the time window are skipped.
  std::unordered_map<TemplateId, uint64_t> raw_counts;
  BB_RETURN_IF_ERROR(store_->TemplateCounts(
      begin, end, req.min_timestamp_us, req.max_timestamp_us, &raw_counts));

  // Resolution at the threshold depends only on the template id, so it
  // runs once per DISTINCT raw id — not once per record as the old
  // scan-grouping path did.
  std::unordered_map<TemplateId, TemplateId> resolved_of;
  std::unordered_map<TemplateId, uint64_t> group_counts;
  resolved_of.reserve(raw_counts.size());
  for (const auto& [raw, n] : raw_counts) {
    TemplateId resolved = raw;
    if (raw != kInvalidTemplateId) {
      auto r = parser_.ResolveAtThreshold(raw, req.saturation_threshold);
      if (r.ok()) resolved = r.value();
    }
    resolved_of.emplace(raw, resolved);
    group_counts[resolved] += n;
  }

  // Global page order: count desc, id asc — over (count, id) pairs
  // only; nothing per page is materialized yet.
  struct Key {
    uint64_t count;
    TemplateId tid;
  };
  const auto before = [](const Key& a, const Key& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.tid < b.tid;
  };
  std::vector<Key> order;
  order.reserve(group_counts.size());
  for (const auto& [tid, n] : group_counts) order.push_back({n, tid});
  std::sort(order.begin(), order.end(), before);

  QueryPage page;
  page.total_groups = order.size();

  // Page start: the resume key seeks directly to the first group after
  // the previous page's last — O(log groups), and exact for a pinned
  // window. Without a resume key the page starts at the first group.
  size_t start = 0;
  if (req.has_resume_key) {
    const Key key{req.resume_count, req.resume_template_id};
    start = static_cast<size_t>(
        std::upper_bound(order.begin(), order.end(), key, before) -
        order.begin());
  }
  size_t stop = order.size();
  if (req.max_groups > 0) {
    stop = std::min(stop, start + static_cast<size_t>(req.max_groups));
  }

  // Materialize ONLY this page's groups (template text + saturation).
  std::unordered_map<TemplateId, size_t> page_index;
  page.groups.reserve(stop - start);
  for (size_t i = start; i < stop; ++i) {
    TemplateGroup g;
    g.template_id = order[i].tid;
    g.count = order[i].count;
    if (g.template_id != kInvalidTemplateId) {
      g.template_text = parser_.MergedWildcardText(g.template_id);
      const TreeNode* node = parser_.model().node(g.template_id);
      if (node != nullptr) g.saturation = node->saturation;
    } else {
      g.template_text = "<unparsed>";
    }
    page_index.emplace(g.template_id, page.groups.size());
    page.groups.push_back(std::move(g));
  }

  // One template-filtered scan collects sequence numbers for JUST this
  // page's groups; sealed segments holding none of their raw ids are
  // skipped via the postings without being mapped.
  if (req.collect_sequences && !page.groups.empty()) {
    std::unordered_set<TemplateId> wanted;
    for (const auto& [raw, resolved] : resolved_of) {
      if (page_index.count(resolved) != 0) wanted.insert(raw);
    }
    BB_RETURN_IF_ERROR(store_->ScanTemplates(
        begin, end, req.min_timestamp_us, req.max_timestamp_us, wanted,
        [&](uint64_t seq, TemplateId raw) {
          page.groups[page_index.at(resolved_of.at(raw))]
              .sequence_numbers.push_back(seq);
        }));
  }

  page.has_more = stop < order.size();
  if (!page.groups.empty()) {
    page.last_count = page.groups.back().count;
    page.last_template_id = page.groups.back().template_id;
  }
  return page;
}

Result<std::vector<TemplateAnomaly>> ManagedTopic::DetectAnomalies(
    uint64_t window1_begin, uint64_t window1_end, uint64_t window2_begin,
    uint64_t window2_end, double min_change_ratio) const {
  // Use maximally precise templates for comparison; counts only — the
  // comparison never looks at individual sequence numbers.
  auto before =
      Query(1.0, window1_begin, window1_end, /*collect_sequences=*/false);
  BB_RETURN_IF_ERROR(before.status());
  auto after =
      Query(1.0, window2_begin, window2_end, /*collect_sequences=*/false);
  BB_RETURN_IF_ERROR(after.status());

  std::unordered_map<TemplateId, uint64_t> before_counts;
  for (const auto& g : before.value()) before_counts[g.template_id] = g.count;

  std::vector<TemplateAnomaly> anomalies;
  for (const auto& g : after.value()) {
    const auto it = before_counts.find(g.template_id);
    TemplateAnomaly anomaly;
    anomaly.template_id = g.template_id;
    anomaly.template_text = g.template_text;
    anomaly.count_after = g.count;
    if (it == before_counts.end()) {
      anomaly.is_new = true;
      anomaly.change_ratio = static_cast<double>(g.count);
      anomalies.push_back(std::move(anomaly));
      continue;
    }
    anomaly.count_before = it->second;
    const double ratio = static_cast<double>(g.count) /
                         static_cast<double>(std::max<uint64_t>(1, it->second));
    anomaly.change_ratio = ratio;
    if (ratio >= min_change_ratio || ratio <= 1.0 / min_change_ratio) {
      anomalies.push_back(std::move(anomaly));
    }
  }
  std::sort(anomalies.begin(), anomalies.end(),
            [](const TemplateAnomaly& a, const TemplateAnomaly& b) {
              if (a.is_new != b.is_new) return a.is_new;
              return a.change_ratio > b.change_ratio;
            });
  return anomalies;
}

TopicStats ManagedTopic::stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  TopicStats snapshot = stats_;
  // Derived, not maintained: the in-flight flag is the single source of
  // truth for whether a snapshot is training right now.
  snapshot.pending_trainings = training_in_flight_ ? 1 : 0;
  snapshot.storage_persistent = store_->persistent();
  snapshot.storage_ok = storage_status_.ok();
  static_cast<StorageStats&>(snapshot) = store_->stats();
  snapshot.shards.reserve(shards_.size());
  for (const std::unique_ptr<IngestShard>& shard : shards_) {
    // Shard counters are written under the shard's exclusive lock while
    // mu_ is only shared; the shard's shared mode makes this read clean.
    std::shared_lock<std::shared_mutex> shard_lock(shard->mu);
    snapshot.shards.push_back(shard->counters);
  }
  return snapshot;
}

bool ManagedTopic::trained() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return trained_;
}

uint64_t ManagedTopic::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return store_->size();
}

Result<LogRecord> ManagedTopic::ReadRecord(uint64_t seq) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  LogRecord record;
  const Status read = store_->Read(seq, &record);
  if (read.IsNotFound()) {
    return Status::NotFound("sequence " + std::to_string(seq) +
                            " beyond end of topic " + name_);
  }
  BB_RETURN_IF_ERROR(read);
  return record;
}

Status ManagedTopic::ScanRecords(
    uint64_t begin_seq, uint64_t end_seq,
    const std::function<void(uint64_t, const LogRecord&)>& fn) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const uint64_t end = std::min(end_seq, store_->size());
  if (begin_seq > end) return Status::InvalidArgument("begin_seq > end_seq");
  return store_->Scan(begin_seq, end, fn);
}

Status ManagedTopic::StorageStatus() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return storage_status_;
}

bool ManagedTopic::HasTemplate(TemplateId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return parser_.model().node(id) != nullptr;
}

std::vector<std::string> ManagedTopic::TemplateTexts() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> texts;
  texts.reserve(parser_.model().size());
  for (const TreeNode& node : parser_.model().nodes()) {
    texts.push_back(parser_.TemplateText(node.id));
  }
  return texts;
}

TopicConfig ManagedTopic::config() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return config_;
}

Status ManagedTopic::ReplicationRead(uint64_t segment_index, uint64_t offset,
                                     uint64_t max_bytes,
                                     ReplicationChunk* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return store_->ReplicationRead(segment_index, offset, max_bytes, out);
}

Status ManagedTopic::ReplicationPosition(uint64_t* segment_index,
                                         uint64_t* offset) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return store_->ReplicationPosition(segment_index, offset);
}

Status ManagedTopic::VerifySealedSegment(uint64_t segment_index,
                                         uint64_t expect_records,
                                         uint64_t expect_checksum) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return store_->VerifySealedSegment(segment_index, expect_records,
                                     expect_checksum);
}

Status ManagedTopic::ApplyReplicated(std::vector<LogRecord> records) {
  if (records.empty()) return Status::OK();
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (const LogRecord& rec : records) {
    stats_.ingested_bytes += rec.text.size();
  }
  stats_.ingested_records += records.size();
  // No matching, no adoption, no training triggers: the stream carries
  // the primary's template assignments, and applying them through the
  // ordinary append path reproduces the primary's frames byte for byte
  // (same config ⇒ same seal boundaries).
  NoteStorageErrorLocked(store_->AppendBatch(std::move(records)));
  lock.unlock();
  WaitDurable();
  // Surface a sticky storage failure to the replicator: records that
  // only live in this follower's memory are NOT replicated — the
  // follower must stop claiming it holds the primary's bytes.
  return StorageStatus();
}

Status ManagedTopic::ApplyReplicatedModel(const std::string& blob) {
  auto model = TemplateModel::Deserialize(blob);
  BB_RETURN_IF_ERROR(model.status());
  std::unique_lock<std::shared_mutex> lock(mu_);
  InstallModelLocked({std::move(model).value(), nullptr});
  return Status::OK();
}

Status ManagedTopic::SealTail(bool* sealed) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  const uint64_t before = store_->stats().storage_sealed_segments;
  Status s = store_->SealActive();
  if (s.IsNotSupported()) {
    // Memory-backed topic: no frame representation, nothing to seal.
    if (sealed != nullptr) *sealed = false;
    return Status::OK();
  }
  if (sealed != nullptr) {
    *sealed = store_->stats().storage_sealed_segments > before;
  }
  return s;
}

void ManagedTopic::SetReplicationLag(uint64_t lag_bytes, uint64_t lag_records,
                                     uint64_t lag_segments) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  stats_.replication_lag_bytes = lag_bytes;
  stats_.replication_lag_records = lag_records;
  stats_.replication_lag_segments = lag_segments;
}

uint64_t ManagedTopic::ModelGeneration() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return model_generation_;
}

std::string ManagedTopic::SerializedModel() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return parser_.model().Serialize();
}

namespace {
// Applies the present fields of `patch` onto `config` (shared by the
// validation dry run and the real apply — one rule set, no drift).
void ApplyPatch(const TopicConfigPatch& patch, TopicConfig* config) {
  if (patch.train_volume_bytes) {
    config->train_volume_bytes = *patch.train_volume_bytes;
  }
  if (patch.train_interval_records) {
    config->train_interval_records = *patch.train_interval_records;
  }
  if (patch.initial_train_records) {
    config->initial_train_records = *patch.initial_train_records;
  }
  if (patch.max_train_records) {
    config->max_train_records = *patch.max_train_records;
  }
  if (patch.num_threads) config->num_threads = *patch.num_threads;
  if (patch.async_training) config->async_training = *patch.async_training;
  if (patch.num_ingest_shards) {
    config->num_ingest_shards = *patch.num_ingest_shards;
  }
}
}  // namespace

Status ManagedTopic::UpdateConfig(const TopicConfigPatch& patch) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Dry-run the patch against the live config and validate the RESULT
  // with the same knob rules CreateTopic enforces — one rule set, and
  // a rejected patch applies nothing. Knobs only: a patch cannot touch
  // rules or storage, so no regex recompilation under the lock.
  TopicConfig patched = config_;
  ApplyPatch(patch, &patched);
  BB_RETURN_IF_ERROR(ValidateTopicKnobs(patched));
  const bool reshard =
      patch.num_ingest_shards &&
      static_cast<size_t>(*patch.num_ingest_shards) != shards_.size();
  config_ = std::move(patched);
  if (reshard) {
    // Live reshard. Fold the current pendings first so every remap an
    // in-flight batch may reference is complete, then rebuild the shard
    // set and bump the generation: any batch that routed against the
    // old shards detects the bump in its exclusive section and
    // re-resolves its groups under the lock — no pending id dangles.
    FoldShardPendingsLocked();
    shards_.clear();
    for (int i = 0; i < *patch.num_ingest_shards; ++i) {
      shards_.push_back(std::make_unique<IngestShard>());
    }
    ++model_generation_;
  }
  return Status::OK();
}

Result<std::shared_ptr<ManagedTopic>> LogService::CreateTopic(
    const std::string& name, TopicConfig config) {
  // A bad config fails HERE, named, instead of leaking to first use
  // (an uncompilable rule silently skipped, a zero window hanging the
  // first training trigger).
  BB_RETURN_IF_ERROR(ValidateTopicConfig(config));
  // Construction can be expensive for a disk-backed topic (manifest
  // replay, checksum verification of every sealed byte, re-matching) —
  // run it OUTSIDE the catalog lock so other topics' lookups never
  // stall on a recovery. The name is reserved with a null entry first;
  // lookups treat the placeholder as not-yet-existing.
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = topics_.emplace(name, nullptr);
    if (!inserted) {
      return Status::AlreadyExists("topic '" + name + "' already exists");
    }
  }
  std::shared_ptr<ManagedTopic> topic;
  try {
    topic = std::make_shared<ManagedTopic>(name, std::move(config));
  } catch (...) {
    // Construction threw (allocation, thread creation): release the
    // reservation or the name would be wedged — AlreadyExists on
    // create, NotFound on lookup — until restart.
    std::lock_guard<std::mutex> lock(mu_);
    topics_.erase(name);
    throw;
  }
  // A topic whose storage failed to open runs on an empty in-memory
  // fallback; for the service API that is a failed creation — the
  // caller asked for durability it would not get.
  const Status storage = topic->StorageStatus();
  std::lock_guard<std::mutex> lock(mu_);
  if (!storage.ok()) {
    topics_.erase(name);
    return storage;
  }
  auto it = topics_.find(name);
  it->second = std::move(topic);
  return it->second;
}

Result<std::shared_ptr<ManagedTopic>> LogService::GetTopic(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = topics_.find(name);
  // A null entry is a reservation: the topic is still constructing
  // (recovering) on the creator's thread.
  if (it == topics_.end() || it->second == nullptr) {
    return Status::NotFound("topic '" + name + "' does not exist");
  }
  return it->second;
}

Status LogService::DeleteTopic(const std::string& name, bool purge_storage) {
  std::shared_ptr<ManagedTopic> topic;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = topics_.find(name);
    if (it == topics_.end()) {
      return Status::NotFound("topic '" + name + "' does not exist");
    }
    if (it->second == nullptr) {
      // Creation (possibly a long disk recovery) is still running on
      // another thread; deleting the reservation out from under it
      // would wedge that CreateTopic. Callers retry.
      return Status::Aborted("topic '" + name +
                             "' is still being created; retry");
    }
    topic = std::move(it->second);
    topics_.erase(it);
  }
  // Destruction happens OUTSIDE the catalog lock (it drains the topic's
  // in-flight training). Wait for concurrent holders (in-flight
  // operations that resolved the topic before it left the catalog) so
  // the destructor runs HERE, on this thread, before we return: a
  // late-firing destructor could otherwise remove_all() a storage
  // directory that a subsequent CreateTopic at the same path has
  // already reopened. In-flight operations finish and release, so the
  // wait is short; it is BOUNDED anyway so a caller that retained its
  // own shared_ptr (don't — release handles before deleting) hangs
  // nothing: past the deadline, destruction and the purge defer to the
  // final release, reverting to last-holder semantics.
  if (purge_storage) topic->SetPurgeStorageOnDestroy(true);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (topic.use_count() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (topic.use_count() > 1) {
    // A holder outlived the drain window: destruction defers to its
    // final release — and the PURGE is cancelled, because by then a
    // CreateTopic may have reopened the same directory and a late
    // remove_all() would destroy the successor's live data. The
    // directory is left on disk (recoverable / manual cleanup) —
    // strictly safer than a delayed destructive purge.
    topic->SetPurgeStorageOnDestroy(false);
  }
  topic.reset();
  return Status::OK();
}

std::vector<std::string> LogService::TopicNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(topics_.size());
  for (const auto& [name, topic] : topics_) {
    if (topic != nullptr) names.push_back(name);
  }
  return names;
}

}  // namespace bytebrain
