#include "core/model.h"

#include <algorithm>

#include "core/variable_replacer.h"
#include "util/serde.h"

namespace bytebrain {

namespace {
constexpr uint64_t kModelMagic = 0x4242'4d4f'4445'4c31ULL;  // "BBMODEL1"
}  // namespace

double TemplateSimilarity(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  if (a.size() != b.size() || a.empty()) return a.empty() && b.empty() ? 1.0 : 0.0;
  double score = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) {
      score += 1.0;
    } else if (a[i] == kWildcard || b[i] == kWildcard) {
      score += 0.5;
    }
  }
  return score / static_cast<double>(a.size());
}

TemplateId TemplateModel::AddNode(TemplateId parent, double saturation,
                                  std::vector<std::string> tokens,
                                  uint64_t support, bool temporary) {
  TreeNode node;
  node.id = nodes_.size() + 1;
  node.parent = parent;
  node.saturation = saturation;
  node.tokens = std::move(tokens);
  node.token_ids.reserve(node.tokens.size());
  for (const std::string& t : node.tokens) {
    node.token_ids.push_back(token_table_->Intern(t));
  }
  node.support = support;
  node.temporary = temporary;
  if (parent == kInvalidTemplateId) {
    roots_.push_back(node.id);
  } else {
    TreeNode* p = mutable_node(parent);
    if (p != nullptr) p->children.push_back(node.id);
  }
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

const TreeNode* TemplateModel::node(TemplateId id) const {
  if (id == kInvalidTemplateId || id > nodes_.size()) return nullptr;
  return &nodes_[id - 1];
}

TreeNode* TemplateModel::mutable_node(TemplateId id) {
  if (id == kInvalidTemplateId || id > nodes_.size()) return nullptr;
  return &nodes_[id - 1];
}

Result<TemplateId> TemplateModel::ResolveAtThreshold(TemplateId id,
                                                     double threshold) const {
  const TreeNode* cur = node(id);
  if (cur == nullptr) {
    return Status::NotFound("template id " + std::to_string(id));
  }
  TemplateId best = id;
  // Walk upward; every ancestor that still meets the threshold is coarser
  // and therefore preferred.
  while (cur != nullptr && cur->parent != kInvalidTemplateId) {
    const TreeNode* parent = node(cur->parent);
    if (parent == nullptr || parent->saturation < threshold) break;
    best = parent->id;
    cur = parent;
  }
  // Root case: a root meeting the threshold is the coarsest option.
  if (cur != nullptr && cur->parent == kInvalidTemplateId &&
      cur->saturation >= threshold) {
    best = cur->id;
  }
  return best;
}

std::string TemplateModel::TemplateText(TemplateId id) const {
  const TreeNode* n = node(id);
  if (n == nullptr) return "";
  std::string out;
  for (size_t i = 0; i < n->tokens.size(); ++i) {
    if (i > 0) out += ' ';
    out += n->tokens[i];
  }
  return out;
}

std::string TemplateModel::MergedWildcardText(TemplateId id) const {
  const TreeNode* n = node(id);
  if (n == nullptr) return "";
  std::string out;
  bool last_was_wildcard = false;
  bool first = true;
  for (const std::string& tok : n->tokens) {
    const bool is_wildcard = tok == kWildcard;
    if (is_wildcard && last_was_wildcard) continue;  // collapse runs
    if (!first) out += ' ';
    out += tok;
    first = false;
    last_was_wildcard = is_wildcard;
  }
  return out;
}

TemplateModel TemplateModel::Clone() const {
  TemplateModel copy;
  copy.roots_ = roots_;
  copy.nodes_ = nodes_;
  // Re-intern into the copy's own table. Interning in node order assigns
  // ids in first-encounter order, which is exactly how the copied nodes
  // reference them; the clone is self-consistent even though its ids need
  // not equal the source table's (the source may hold tokens of dropped
  // temporaries that no surviving node references).
  for (TreeNode& n : copy.nodes_) {
    n.token_ids.clear();
    n.token_ids.reserve(n.tokens.size());
    for (const std::string& t : n.tokens) {
      n.token_ids.push_back(copy.token_table_->Intern(t));
    }
  }
  return copy;
}

TemplateId TemplateModel::AdoptTemporary(std::vector<std::string> tokens) {
  // Unmatched logs become fully-precise standalone templates until the
  // next training cycle reconsiders them (§3).
  return AddNode(kInvalidTemplateId, 1.0, std::move(tokens), 1,
                 /*temporary=*/true);
}

void TemplateModel::DropTemporaries() {
  // Temporaries are always roots with no children; rebuild without them.
  std::vector<TreeNode> kept;
  std::vector<TemplateId> remap(nodes_.size() + 1, kInvalidTemplateId);
  for (const TreeNode& n : nodes_) {
    if (n.temporary) continue;
    remap[n.id] = kept.size() + 1;
    kept.push_back(n);
  }
  for (TreeNode& n : kept) {
    n.id = remap[n.id];
    if (n.parent != kInvalidTemplateId) n.parent = remap[n.parent];
    std::vector<TemplateId> children;
    for (TemplateId c : n.children) {
      if (remap[c] != kInvalidTemplateId) children.push_back(remap[c]);
    }
    n.children = std::move(children);
  }
  roots_.clear();
  nodes_ = std::move(kept);
  for (const TreeNode& n : nodes_) {
    if (n.parent == kInvalidTemplateId) roots_.push_back(n.id);
  }
}

TemplateId TemplateModel::CopySubtree(const TemplateModel& src,
                                      TemplateId src_id,
                                      TemplateId new_parent) {
  const TreeNode* s = src.node(src_id);
  if (s == nullptr) return kInvalidTemplateId;
  const TemplateId id =
      AddNode(new_parent, s->saturation, s->tokens, s->support, s->temporary);
  for (TemplateId c : s->children) CopySubtree(src, c, id);
  return id;
}

void TemplateModel::MergeFrom(const TemplateModel& incoming,
                              double similarity_threshold) {
  // Pairs of (existing node, incoming node) to reconcile, starting with a
  // virtual root pairing (0, 0) whose children are the two root sets.
  struct Pending {
    TemplateId existing;
    TemplateId fresh;
  };
  std::vector<Pending> stack{{kInvalidTemplateId, kInvalidTemplateId}};
  while (!stack.empty()) {
    const Pending p = stack.back();
    stack.pop_back();

    const std::vector<TemplateId>& fresh_children =
        p.fresh == kInvalidTemplateId ? incoming.roots()
                                      : incoming.node(p.fresh)->children;
    for (TemplateId fc : fresh_children) {
      const TreeNode* fresh_node = incoming.node(fc);
      // Candidate existing children of the matched parent.
      const std::vector<TemplateId>& existing_children =
          p.existing == kInvalidTemplateId ? roots_
                                           : node(p.existing)->children;
      TemplateId best = kInvalidTemplateId;
      double best_sim = similarity_threshold;
      for (TemplateId ec : existing_children) {
        const TreeNode* existing_node = node(ec);
        if (existing_node->temporary) continue;
        const double sim =
            TemplateSimilarity(existing_node->tokens, fresh_node->tokens);
        if (sim >= best_sim) {
          best_sim = sim;
          best = ec;
        }
      }
      if (best != kInvalidTemplateId) {
        TreeNode* merged = mutable_node(best);
        merged->support += fresh_node->support;
        // Refresh saturation toward the newer estimate.
        merged->saturation =
            std::max(merged->saturation, fresh_node->saturation);
        stack.push_back({best, fc});
      } else {
        CopySubtree(incoming, fc, p.existing);
      }
    }
  }
}

std::vector<TemplateId> TemplateModel::MergeTemporariesFrom(
    TemplateModel* pending, size_t first, size_t count) {
  std::vector<TemplateId> ids;
  std::vector<TreeNode>& nodes = pending->nodes_;
  if (first >= nodes.size()) return ids;
  const size_t end = count >= nodes.size() - first ? nodes.size()
                                                   : first + count;
  ids.reserve(end - first);
  for (size_t i = first; i < end; ++i) {
    // AddNode interns the token texts into this model's table; the
    // pending model's private ids/table never leak across. The token
    // strings move — the pending node keeps only its interned ids,
    // which is all its matcher reads.
    ids.push_back(AddNode(kInvalidTemplateId, nodes[i].saturation,
                          std::move(nodes[i].tokens), nodes[i].support,
                          /*temporary=*/true));
  }
  return ids;
}

std::string TemplateModel::Serialize() const {
  std::string out;
  ByteWriter w(&out);
  w.PutU64(kModelMagic);
  w.PutU64(nodes_.size());
  for (const TreeNode& n : nodes_) {
    w.PutU64(n.id);
    w.PutU64(n.parent);
    w.PutDouble(n.saturation);
    w.PutU64(n.support);
    w.PutU32(n.temporary ? 1 : 0);
    w.PutU32(static_cast<uint32_t>(n.tokens.size()));
    for (const std::string& t : n.tokens) w.PutString(t);
  }
  return out;
}

Result<TemplateModel> TemplateModel::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  uint64_t magic = 0;
  uint64_t count = 0;
  if (!r.GetU64(&magic) || magic != kModelMagic) {
    return Status::Corruption("bad model magic");
  }
  if (!r.GetU64(&count)) return Status::Corruption("truncated model header");
  TemplateModel model;
  model.nodes_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TreeNode n;
    uint32_t temporary = 0;
    uint32_t num_tokens = 0;
    if (!r.GetU64(&n.id) || !r.GetU64(&n.parent) ||
        !r.GetDouble(&n.saturation) || !r.GetU64(&n.support) ||
        !r.GetU32(&temporary) || !r.GetU32(&num_tokens)) {
      return Status::Corruption("truncated model node");
    }
    if (n.id != i + 1) return Status::Corruption("non-dense node ids");
    n.temporary = temporary != 0;
    n.tokens.resize(num_tokens);
    n.token_ids.reserve(num_tokens);
    for (uint32_t t = 0; t < num_tokens; ++t) {
      if (!r.GetString(&n.tokens[t])) {
        return Status::Corruption("truncated token");
      }
      n.token_ids.push_back(model.token_table_->Intern(n.tokens[t]));
    }
    model.nodes_.push_back(std::move(n));
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in model");
  // Rebuild links.
  for (const TreeNode& n : model.nodes_) {
    if (n.parent == kInvalidTemplateId) {
      model.roots_.push_back(n.id);
    } else if (n.parent >= n.id) {
      // Every model the code builds links a node only to an existing
      // (lower-id) parent; a later parent is corrupt and could close a
      // cycle that ResolveAtThreshold would walk forever.
      return Status::Corruption("parent id not below node id");
    } else {
      model.nodes_[n.parent - 1].children.push_back(n.id);
    }
  }
  return model;
}

uint64_t TemplateModel::ApproxBytes() const {
  uint64_t bytes = 16;
  for (const TreeNode& n : nodes_) {
    bytes += 8 + 8 + 8 + 8 + 4 + 4;
    for (const std::string& t : n.tokens) bytes += 4 + t.size();
  }
  return bytes;
}

}  // namespace bytebrain
