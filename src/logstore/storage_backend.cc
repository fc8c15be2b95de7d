#include "logstore/storage_backend.h"

#include <algorithm>

#include "logstore/disk_backend.h"

namespace bytebrain {

MemoryBackend::MemoryBackend(size_t segment_capacity)
    : segment_capacity_(segment_capacity == 0 ? 1 : segment_capacity) {}

Status MemoryBackend::AppendBatch(std::vector<LogRecord> records) {
  for (LogRecord& record : records) {
    if (segments_.empty() ||
        segments_.back()->records.size() >= segment_capacity_) {
      segments_.push_back(std::make_unique<Segment>());
      segments_.back()->records.reserve(segment_capacity_);
    }
    Segment& seg = *segments_.back();
    text_bytes_ += record.text.size();
    ++seg.postings[record.template_id];
    seg.min_timestamp_us = std::min(seg.min_timestamp_us, record.timestamp_us);
    seg.max_timestamp_us = std::max(seg.max_timestamp_us, record.timestamp_us);
    seg.records.push_back(std::move(record));
    ++count_;
  }
  return Status::OK();  // cannot fail
}

const LogRecord* MemoryBackend::Locate(uint64_t seq) const {
  if (seq >= count_) return nullptr;
  const size_t seg = seq / segment_capacity_;
  const size_t off = seq % segment_capacity_;
  return &segments_[seg]->records[off];
}

Status MemoryBackend::Read(uint64_t seq, LogRecord* out) const {
  const LogRecord* rec = Locate(seq);
  if (rec == nullptr) {
    return Status::NotFound("sequence " + std::to_string(seq) +
                            " beyond end of store");
  }
  *out = *rec;
  return Status::OK();
}

Status MemoryBackend::Scan(
    uint64_t begin, uint64_t end,
    const std::function<void(uint64_t, const LogRecord&)>& fn) const {
  end = std::min(end, count_);
  ScanVisitTally visits(&scan_visits_);
  for (uint64_t seq = begin; seq < end; ++seq) {
    ++visits.count;
    fn(seq, *Locate(seq));
  }
  return Status::OK();
}

Status MemoryBackend::AssignTemplates(uint64_t begin_seq,
                                      const std::vector<TemplateId>& ids) {
  if (begin_seq + ids.size() > count_) {
    return Status::NotFound("range beyond end of store");
  }
  for (uint64_t seq = begin_seq; seq < begin_seq + ids.size(); ++seq) {
    const TemplateId id = ids[seq - begin_seq];
    Segment& seg = *segments_[seq / segment_capacity_];
    LogRecord& rec = seg.records[seq % segment_capacity_];
    if (rec.template_id == id) continue;
    auto it = seg.postings.find(rec.template_id);
    if (it != seg.postings.end() && --it->second == 0) seg.postings.erase(it);
    ++seg.postings[id];
    rec.template_id = id;
  }
  return Status::OK();
}

Status MemoryBackend::TemplateCounts(
    uint64_t begin, uint64_t end, uint64_t min_ts_us, uint64_t max_ts_us,
    std::unordered_map<TemplateId, uint64_t>* counts) const {
  end = std::min(end, count_);
  ScanVisitTally visits(&scan_visits_);
  for (uint64_t seq = begin; seq < end;) {
    const size_t si = seq / segment_capacity_;
    const Segment& seg = *segments_[si];
    const uint64_t seg_begin = static_cast<uint64_t>(si) * segment_capacity_;
    const uint64_t seg_end = seg_begin + seg.records.size();
    const uint64_t lo = seq;
    const uint64_t hi = std::min(end, seg_end);
    seq = hi;
    if (seg.max_timestamp_us < min_ts_us || seg.min_timestamp_us > max_ts_us) {
      continue;
    }
    if (lo == seg_begin && hi == seg_end && seg.min_timestamp_us >= min_ts_us &&
        seg.max_timestamp_us <= max_ts_us) {
      // Fully covered in both dimensions: the postings answer it.
      for (const auto& [tid, n] : seg.postings) (*counts)[tid] += n;
      continue;
    }
    visits.count += hi - lo;
    for (uint64_t s = lo; s < hi; ++s) {
      const LogRecord& rec = seg.records[s - seg_begin];
      if (rec.timestamp_us >= min_ts_us && rec.timestamp_us <= max_ts_us) {
        ++(*counts)[rec.template_id];
      }
    }
  }
  return Status::OK();
}

Status MemoryBackend::ScanTemplates(
    uint64_t begin, uint64_t end, uint64_t min_ts_us, uint64_t max_ts_us,
    const std::unordered_set<TemplateId>& ids,
    const std::function<void(uint64_t, TemplateId)>& fn) const {
  end = std::min(end, count_);
  ScanVisitTally visits(&scan_visits_);
  for (uint64_t seq = begin; seq < end;) {
    const size_t si = seq / segment_capacity_;
    const Segment& seg = *segments_[si];
    const uint64_t seg_begin = static_cast<uint64_t>(si) * segment_capacity_;
    const uint64_t lo = seq;
    const uint64_t hi = std::min(end, seg_begin + seg.records.size());
    seq = hi;
    if (seg.max_timestamp_us < min_ts_us || seg.min_timestamp_us > max_ts_us) {
      continue;
    }
    bool overlaps = false;
    for (TemplateId tid : ids) {
      if (seg.postings.count(tid) != 0) {
        overlaps = true;
        break;
      }
    }
    if (!overlaps) continue;
    visits.count += hi - lo;
    for (uint64_t s = lo; s < hi; ++s) {
      const LogRecord& rec = seg.records[s - seg_begin];
      if (rec.timestamp_us >= min_ts_us && rec.timestamp_us <= max_ts_us &&
          ids.count(rec.template_id) != 0) {
        fn(s, rec.template_id);
      }
    }
  }
  return Status::OK();
}

Status MemoryBackend::Checkpoint(std::string_view metadata) {
  metadata_.assign(metadata);
  return Status::OK();
}

std::unique_ptr<StorageBackend> CreateStorageBackend(
    const StorageConfig& config) {
  switch (config.kind) {
    case StorageConfig::Kind::kSegmentedDisk:
      return std::make_unique<SegmentedDiskBackend>(config);
    case StorageConfig::Kind::kMemory:
      break;
  }
  return std::make_unique<MemoryBackend>(config.memory_segment_capacity);
}

}  // namespace bytebrain
