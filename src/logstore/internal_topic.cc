#include "logstore/internal_topic.h"

namespace bytebrain {

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
