#include "logstore/log_topic.h"

#include <algorithm>

namespace bytebrain {

LogTopic::LogTopic(std::string name, size_t segment_capacity)
    : name_(std::move(name)),
      store_(std::make_unique<MemoryBackend>(segment_capacity)) {}

LogTopic::LogTopic(std::string name, const StorageConfig& storage)
    : name_(std::move(name)), store_(CreateStorageBackend(storage)) {
  storage_status_ = store_->Open();
  if (!storage_status_.ok()) {
    // Fail-soft: the topic runs (empty) on an in-memory store; the
    // caller reads storage_status() to decide whether that is fatal
    // (LogService::CreateTopic surfaces it as the creation result).
    store_ = std::make_unique<MemoryBackend>(storage.memory_segment_capacity);
  }
}

Status LogTopic::storage_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return storage_status_;
}

bool LogTopic::persistent_storage() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->persistent();
}

uint64_t LogTopic::Append(LogRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  const Status appended = store_->Append(std::move(record));
  // An append-path IO error (disk full, lost mount) goes sticky; the
  // backend fail-softs internally (the record lands in its in-memory
  // mirror, sealed data keeps serving from mmap, nothing more is
  // written) so the stream stays intact — only durability is lost.
  if (!appended.ok() && storage_status_.ok()) storage_status_ = appended;
  return store_->size() - 1;
}

uint64_t LogTopic::AppendBatch(std::vector<LogRecord> records) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t first = store_->size();
  const Status appended = store_->AppendBatch(std::move(records));
  if (!appended.ok() && storage_status_.ok()) storage_status_ = appended;
  return first;
}

Status LogTopic::WaitDurable() {
  StorageBackend* store;
  {
    // store_ never changes after construction (the memory fallback is
    // installed in the constructor), so the pointer can be used after
    // mu_ is released — which it MUST be: the wait below may block on
    // the WAL's group-commit fsync.
    std::lock_guard<std::mutex> lock(mu_);
    store = store_.get();
  }
  const Status durable = store->WaitDurable();
  if (!durable.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (storage_status_.ok()) storage_status_ = durable;
  }
  return durable;
}

uint64_t LogTopic::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->size();
}

uint64_t LogTopic::text_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->text_bytes();
}

Result<LogRecord> LogTopic::Read(uint64_t seq) const {
  std::lock_guard<std::mutex> lock(mu_);
  LogRecord rec;
  const Status read = store_->Read(seq, &rec);
  if (!read.ok()) {
    if (read.IsNotFound()) {
      return Status::NotFound("sequence " + std::to_string(seq) +
                              " beyond end of topic " + name_);
    }
    return read;
  }
  return rec;
}

Status LogTopic::Scan(
    uint64_t begin_seq, uint64_t end_seq,
    const std::function<void(uint64_t, const LogRecord&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (begin_seq > end_seq) {
    return Status::InvalidArgument("begin_seq > end_seq");
  }
  return store_->Scan(begin_seq, std::min(end_seq, store_->size()), fn);
}

Status LogTopic::AssignTemplate(uint64_t seq, TemplateId template_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (seq >= store_->size()) {
    return Status::NotFound("sequence beyond end of topic " + name_);
  }
  return store_->AssignTemplate(seq, template_id);
}

Status LogTopic::AssignTemplateRange(uint64_t begin_seq,
                                     const std::vector<TemplateId>& ids) {
  std::lock_guard<std::mutex> lock(mu_);
  if (begin_seq + ids.size() > store_->size()) {
    return Status::NotFound("range beyond end of topic " + name_);
  }
  return store_->AssignTemplates(begin_seq, ids);
}

Status LogTopic::TemplateCounts(
    uint64_t begin_seq, uint64_t end_seq,
    std::unordered_map<TemplateId, uint64_t>* counts) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (begin_seq > end_seq) {
    return Status::InvalidArgument("begin_seq > end_seq");
  }
  return store_->TemplateCounts(begin_seq, std::min(end_seq, store_->size()),
                                counts);
}

Status LogTopic::ScanTemplates(
    uint64_t begin_seq, uint64_t end_seq,
    const std::unordered_set<TemplateId>& ids,
    const std::function<void(uint64_t, TemplateId)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (begin_seq > end_seq) {
    return Status::InvalidArgument("begin_seq > end_seq");
  }
  return store_->ScanTemplates(begin_seq, std::min(end_seq, store_->size()),
                               ids, fn);
}

Status LogTopic::TemplateCountsInRange(
    uint64_t begin_seq, uint64_t end_seq, uint64_t min_ts_us,
    uint64_t max_ts_us,
    std::unordered_map<TemplateId, uint64_t>* counts) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (begin_seq > end_seq) {
    return Status::InvalidArgument("begin_seq > end_seq");
  }
  return store_->TemplateCountsInRange(
      begin_seq, std::min(end_seq, store_->size()), min_ts_us, max_ts_us,
      counts);
}

Status LogTopic::ScanTemplatesInRange(
    uint64_t begin_seq, uint64_t end_seq, uint64_t min_ts_us,
    uint64_t max_ts_us, const std::unordered_set<TemplateId>& ids,
    const std::function<void(uint64_t, TemplateId)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (begin_seq > end_seq) {
    return Status::InvalidArgument("begin_seq > end_seq");
  }
  return store_->ScanTemplatesInRange(
      begin_seq, std::min(end_seq, store_->size()), min_ts_us, max_ts_us, ids,
      fn);
}

Status LogTopic::ReplicationRead(uint64_t segment_index, uint64_t offset,
                                 uint64_t max_bytes,
                                 ReplicationChunk* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->ReplicationRead(segment_index, offset, max_bytes, out);
}

Status LogTopic::ReplicationPosition(uint64_t* segment_index,
                                     uint64_t* offset) const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->ReplicationPosition(segment_index, offset);
}

Status LogTopic::VerifySealedSegment(uint64_t segment_index,
                                     uint64_t expect_records,
                                     uint64_t expect_checksum) const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->VerifySealedSegment(segment_index, expect_records,
                                     expect_checksum);
}

Status LogTopic::SealActive() {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->SealActive();
}

std::shared_ptr<const SealedRecordView> LogTopic::SnapshotSealed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->SnapshotSealed();
}

Status LogTopic::Checkpoint(std::string_view metadata) {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->Checkpoint(metadata);
}

std::string LogTopic::recovered_metadata() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->metadata();
}

uint64_t LogTopic::sealed_segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->sealed_segment_count();
}

uint64_t LogTopic::mapped_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->mapped_bytes();
}

uint64_t LogTopic::cache_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->cache_hits();
}

uint64_t LogTopic::cache_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->cache_misses();
}

uint64_t LogTopic::cache_evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->cache_evictions();
}

uint64_t LogTopic::index_rebuilds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->index_rebuilds();
}

uint64_t LogTopic::scan_record_visits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->scan_record_visits();
}

uint64_t LogTopic::wal_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->wal_bytes();
}

uint64_t LogTopic::wal_group_commits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->wal_group_commits();
}

uint64_t LogTopic::wal_fsyncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->wal_fsyncs();
}

uint64_t LogTopic::wal_replayed_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->wal_replayed_records();
}

// ---------------------------------------------------------------------------
// InternalTopic
// ---------------------------------------------------------------------------

void InternalTopic::Put(TemplateMeta meta) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(meta.id);
  if (it != index_.end()) {
    entries_[it->second] = std::move(meta);
    return;
  }
  index_[meta.id] = entries_.size();
  entries_.push_back(std::move(meta));
}

Result<TemplateMeta> InternalTopic::Get(TemplateId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(id);
  if (it == index_.end()) {
    return Status::NotFound("template id " + std::to_string(id));
  }
  return entries_[it->second];
}

Result<std::vector<TemplateMeta>> InternalTopic::AncestorChain(
    TemplateId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TemplateMeta> chain;
  TemplateId cur = id;
  // Bounded by the number of entries to guard against parent-link cycles
  // introduced by corrupted recoveries.
  for (size_t hops = 0; hops <= entries_.size(); ++hops) {
    auto it = index_.find(cur);
    if (it == index_.end()) {
      if (chain.empty()) {
        return Status::NotFound("template id " + std::to_string(id));
      }
      return Status::Corruption("dangling parent link at template " +
                                std::to_string(cur));
    }
    chain.push_back(entries_[it->second]);
    if (chain.back().parent_id == kInvalidTemplateId) return chain;
    cur = chain.back().parent_id;
  }
  return Status::Corruption("parent-link cycle at template " +
                            std::to_string(id));
}

std::vector<TemplateMeta> InternalTopic::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

size_t InternalTopic::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace bytebrain
