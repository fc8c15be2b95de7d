// The internal topic (paper §3): the append-only store of clustering-
// tree node metadata that queries walk to move between precision
// levels without an external database.
#pragma once

#include <mutex>
#include <unordered_map>
#include <vector>

#include "logstore/log_record.h"
#include "util/status.h"

namespace bytebrain {

/// Append-only store for clustering-tree node metadata ("internal topic",
/// paper §3). Supports id lookup and parent traversal for queries.
class InternalTopic {
 public:
  /// Appends (or overwrites, for retraining merges) a node's metadata.
  void Put(TemplateMeta meta);

  /// Looks up a node by template id.
  Result<TemplateMeta> Get(TemplateId id) const;

  /// Walks ancestors from `id` toward the root: the returned chain starts
  /// at `id` itself and ends at the root node.
  Result<std::vector<TemplateMeta>> AncestorChain(TemplateId id) const;

  /// All stored nodes (snapshot), in insertion order.
  std::vector<TemplateMeta> All() const;

  size_t size() const;

 private:
  std::vector<TemplateMeta> entries_;
  std::unordered_map<TemplateId, size_t> index_;
  mutable std::mutex mu_;
};

}  // namespace bytebrain
