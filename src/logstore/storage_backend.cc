#include "logstore/storage_backend.h"

#include <algorithm>

#include "logstore/disk_backend.h"

namespace bytebrain {

Status StorageBackend::AssignTemplates(uint64_t begin_seq,
                                       const std::vector<TemplateId>& ids) {
  if (ids.empty()) return Status::OK();
  if (begin_seq + ids.size() > size()) {
    return Status::NotFound("range beyond end of store");
  }
  // Honor the documented skip-unchanged contract here in the base so
  // every backend gets it: one Scan reads the current ids, then only
  // the records whose id actually changed pay a virtual AssignTemplate
  // call (after a model merge most established assignments are
  // unchanged).
  std::vector<TemplateId> current(ids.size(), kInvalidTemplateId);
  BB_RETURN_IF_ERROR(Scan(begin_seq, begin_seq + ids.size(),
                          [&](uint64_t seq, const LogRecord& rec) {
                            current[seq - begin_seq] = rec.template_id;
                          }));
  for (size_t i = 0; i < ids.size(); ++i) {
    if (current[i] == ids[i]) continue;
    BB_RETURN_IF_ERROR(AssignTemplate(begin_seq + i, ids[i]));
  }
  return Status::OK();
}

Status StorageBackend::TemplateCounts(
    uint64_t begin, uint64_t end,
    std::unordered_map<TemplateId, uint64_t>* counts) const {
  return Scan(begin, end, [counts](uint64_t, const LogRecord& rec) {
    ++(*counts)[rec.template_id];
  });
}

Status StorageBackend::ScanTemplates(
    uint64_t begin, uint64_t end, const std::unordered_set<TemplateId>& ids,
    const std::function<void(uint64_t, TemplateId)>& fn) const {
  return Scan(begin, end, [&](uint64_t seq, const LogRecord& rec) {
    if (ids.count(rec.template_id) != 0) fn(seq, rec.template_id);
  });
}

Status StorageBackend::TemplateCountsInRange(
    uint64_t begin, uint64_t end, uint64_t min_ts_us, uint64_t max_ts_us,
    std::unordered_map<TemplateId, uint64_t>* counts) const {
  if (min_ts_us == 0 && max_ts_us == UINT64_MAX) {
    return TemplateCounts(begin, end, counts);
  }
  return Scan(begin, end, [&](uint64_t, const LogRecord& rec) {
    if (rec.timestamp_us >= min_ts_us && rec.timestamp_us <= max_ts_us) {
      ++(*counts)[rec.template_id];
    }
  });
}

Status StorageBackend::ScanTemplatesInRange(
    uint64_t begin, uint64_t end, uint64_t min_ts_us, uint64_t max_ts_us,
    const std::unordered_set<TemplateId>& ids,
    const std::function<void(uint64_t, TemplateId)>& fn) const {
  if (min_ts_us == 0 && max_ts_us == UINT64_MAX) {
    return ScanTemplates(begin, end, ids, fn);
  }
  return Scan(begin, end, [&](uint64_t seq, const LogRecord& rec) {
    if (rec.timestamp_us >= min_ts_us && rec.timestamp_us <= max_ts_us &&
        ids.count(rec.template_id) != 0) {
      fn(seq, rec.template_id);
    }
  });
}

MemoryBackend::MemoryBackend(size_t segment_capacity)
    : segment_capacity_(segment_capacity == 0 ? 1 : segment_capacity) {}

Status MemoryBackend::Append(LogRecord record) {
  if (segments_.empty() ||
      segments_.back()->records.size() >= segment_capacity_) {
    segments_.push_back(std::make_unique<Segment>());
    segments_.back()->records.reserve(segment_capacity_);
  }
  text_bytes_ += record.text.size();
  ++segments_.back()->postings[record.template_id];
  segments_.back()->records.push_back(std::move(record));
  ++count_;
  return Status::OK();
}

Status MemoryBackend::AppendBatch(std::vector<LogRecord> records) {
  for (LogRecord& record : records) {
    (void)Append(std::move(record));  // cannot fail
  }
  return Status::OK();
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

Status MemoryBackend::AssignTemplate(uint64_t seq, TemplateId template_id) {
  if (seq >= count_) {
    return Status::NotFound("sequence beyond end of store");
  }
  Segment& seg = *segments_[seq / segment_capacity_];
  LogRecord& rec = seg.records[seq % segment_capacity_];
  if (rec.template_id == template_id) return Status::OK();
  auto it = seg.postings.find(rec.template_id);
  if (it != seg.postings.end() && --it->second == 0) seg.postings.erase(it);
  ++seg.postings[template_id];
  rec.template_id = template_id;
  return Status::OK();
}

Status MemoryBackend::AssignTemplates(uint64_t begin_seq,
                                      const std::vector<TemplateId>& ids) {
  if (begin_seq + ids.size() > count_) {
    return Status::NotFound("range beyond end of store");
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    (void)AssignTemplate(begin_seq + i, ids[i]);  // in range; cannot fail
  }
  return Status::OK();
}

Status MemoryBackend::TemplateCounts(
    uint64_t begin, uint64_t end,
    std::unordered_map<TemplateId, uint64_t>* counts) const {
  end = std::min(end, count_);
  ScanVisitTally visits(&scan_visits_);
  uint64_t seq = begin;
  while (seq < end) {
    const size_t si = seq / segment_capacity_;
    const Segment& seg = *segments_[si];
    const uint64_t seg_begin = static_cast<uint64_t>(si) * segment_capacity_;
    const uint64_t seg_end = seg_begin + seg.records.size();
    const uint64_t hi = std::min(end, seg_end);
    if (seq == seg_begin && hi == seg_end) {
      // Fully covered: answer from the segment's postings.
      for (const auto& [tid, n] : seg.postings) (*counts)[tid] += n;
    } else {
      visits.count += hi - seq;
      for (uint64_t s = seq; s < hi; ++s) {
        ++(*counts)[seg.records[s - seg_begin].template_id];
      }
    }
    seq = hi;
  }
  return Status::OK();
}

Status MemoryBackend::ScanTemplates(
    uint64_t begin, uint64_t end, const std::unordered_set<TemplateId>& ids,
    const std::function<void(uint64_t, TemplateId)>& fn) const {
  end = std::min(end, count_);
  ScanVisitTally visits(&scan_visits_);
  uint64_t seq = begin;
  while (seq < end) {
    const size_t si = seq / segment_capacity_;
    const Segment& seg = *segments_[si];
    const uint64_t seg_begin = static_cast<uint64_t>(si) * segment_capacity_;
    const uint64_t hi = std::min(end, seg_begin + seg.records.size());
    bool overlaps = false;
    for (TemplateId tid : ids) {
      if (seg.postings.count(tid) != 0) {
        overlaps = true;
        break;
      }
    }
    if (overlaps) {
      visits.count += hi - seq;
      for (uint64_t s = seq; s < hi; ++s) {
        const TemplateId tid = seg.records[s - seg_begin].template_id;
        if (ids.count(tid) != 0) fn(s, tid);
      }
    }
    seq = hi;
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
