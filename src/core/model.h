// The clustering-tree template model (paper §3, §4.3).
//
// Each node is one template: deeper nodes are more precise, and the
// saturation score strictly increases from parent to child. The model
// stores, per node, only the template token texts, saturation, support
// and parent/child links — no per-node token statistics — which is what
// makes text-based online matching (§4.8) storage-cheap.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/token_table.h"
#include "util/status.h"
#include "util/template_id.h"

namespace bytebrain {

/// One node of the clustering tree.
struct TreeNode {
  TemplateId id = kInvalidTemplateId;
  TemplateId parent = kInvalidTemplateId;  // 0 for roots
  std::vector<TemplateId> children;
  double saturation = 0.0;
  /// Template tokens; kWildcard ("*") marks variable positions.
  std::vector<std::string> tokens;
  /// The same tokens interned in the owning model's TokenTable
  /// (TokenTable::kWildcardId marks variable positions). Maintained by
  /// AddNode so the matcher can be built without re-interning.
  std::vector<uint32_t> token_ids;
  /// Training logs (raw count, duplicates included) under this node.
  uint64_t support = 0;
  /// True for templates adopted online from unmatched logs (§3); they are
  /// reconsidered — and replaced — at the next training cycle.
  bool temporary = false;

  bool is_leaf() const { return children.empty(); }
};

/// Similarity between two equal-length templates in [0, 1]: exact token
/// matches count 1, wildcard-vs-token 0.5, mismatches 0. Different
/// lengths score 0. Used by model merging (§3).
double TemplateSimilarity(const std::vector<std::string>& a,
                          const std::vector<std::string>& b);

/// The trained model: a forest of clustering trees.
class TemplateModel {
 public:
  TemplateModel() : token_table_(std::make_shared<TokenTable>()) {}

  /// Adds a node; parent = 0 creates a root. Returns the new id.
  TemplateId AddNode(TemplateId parent, double saturation,
                     std::vector<std::string> tokens, uint64_t support,
                     bool temporary = false);

  /// Node lookup; nullptr if the id is unknown.
  const TreeNode* node(TemplateId id) const;

  const std::vector<TemplateId>& roots() const { return roots_; }
  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  /// All nodes in id order (ids are dense, starting at 1).
  const std::vector<TreeNode>& nodes() const { return nodes_; }

  /// Query-time precision adjustment (§3 "Query"): walks from `id` toward
  /// the root and returns the COARSEST ancestor whose saturation still
  /// meets `threshold`. Falls back to `id` itself when even it is below
  /// the threshold. Fails with NotFound for unknown ids.
  Result<TemplateId> ResolveAtThreshold(TemplateId id,
                                        double threshold) const;

  /// Rendered template text ("tok1 tok2 * tok4"). Empty for unknown ids.
  std::string TemplateText(TemplateId id) const;

  /// Template text with consecutive wildcards collapsed into one (the §7
  /// query-result optimization for dynamic-length lists).
  std::string MergedWildcardText(TemplateId id) const;

  /// Deep copy with a FRESH TokenTable: every node's token_ids are
  /// re-interned into the copy's own table, so mutating the clone (e.g.
  /// a background retrain merging into it) never touches the table the
  /// live matcher is concurrently reading. This — not the implicit copy
  /// constructor, which shares the table by shared_ptr — is the snapshot
  /// primitive for async retraining: snapshot under the service's lock,
  /// train/merge into the clone off-lock, then publish the finished
  /// model atomically. A published model is treated as immutable except
  /// for AdoptTemporary/MergeFrom under the owner's exclusive lock.
  TemplateModel Clone() const;

  /// Adopts an unmatched log as a temporary root template (§3).
  TemplateId AdoptTemporary(std::vector<std::string> tokens);

  /// Drops all temporary nodes (called when a fresh training lands).
  void DropTemporaries();

  /// Merges `incoming` (a freshly trained model) into this one: nodes are
  /// matched top-down by template similarity >= `similarity_threshold`;
  /// matched nodes merge support, unmatched subtrees attach as new
  /// children/roots (§3 "The newly trained model is merged...").
  void MergeFrom(const TemplateModel& incoming, double similarity_threshold);

  /// Bulk counterpart of AdoptTemporary for the sharded ingest path:
  /// adopts the nodes of `pending` (a shard-local model of temporary
  /// roots with its OWN TokenTable) starting at 0-based node index
  /// `first`, re-interning every token into THIS model's table. Returns
  /// the new ids in pending-node order, so the caller can remap
  /// shard-local assignments to published ids. `count` bounds how many
  /// nodes are taken (SIZE_MAX = all remaining). The folded nodes'
  /// token strings are MOVED out of `pending` (adoption is on the
  /// ingest hot path; the pending copy is never rendered again — its
  /// matcher works on interned ids). No similarity matching: pendings
  /// are adopted verbatim, exactly as online adoption at first miss
  /// would have — similarity reconciliation belongs to the next
  /// training cycle (MergeFrom), not the fold.
  std::vector<TemplateId> MergeTemporariesFrom(TemplateModel* pending,
                                               size_t first,
                                               size_t count = SIZE_MAX);

  /// Serialized byte size (the "Model Size" column of Table 5).
  std::string Serialize() const;
  static Result<TemplateModel> Deserialize(std::string_view bytes);
  uint64_t ApproxBytes() const;

  /// The interner holding every template token of this model. Shared with
  /// matchers built from the model: AdoptTemporary interns new tokens into
  /// the same table so TemplateMatcher::Insert needs no re-interning.
  /// Mutations (AddNode/AdoptTemporary/MergeFrom) must be serialized with
  /// concurrent matcher lookups by the caller.
  const std::shared_ptr<TokenTable>& token_table() const {
    return token_table_;
  }

 private:
  TreeNode* mutable_node(TemplateId id);
  TemplateId CopySubtree(const TemplateModel& src, TemplateId src_id,
                         TemplateId new_parent);

  std::vector<TreeNode> nodes_;  // nodes_[i].id == i + 1
  std::vector<TemplateId> roots_;
  std::shared_ptr<TokenTable> token_table_;
};

}  // namespace bytebrain
