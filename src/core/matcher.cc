#include "core/matcher.h"

#include <algorithm>

#include "core/tokenizer.h"
#include "threading/thread_pool.h"

namespace bytebrain {

namespace {
// Candidate lists longer than this are split into a refinement trie on
// the next discriminating constant position. Small on purpose: most
// buckets index down to a handful of templates on the first key alone.
constexpr size_t kTrieLeafMax = 8;

constexpr uint64_t KeyOf(uint32_t pos, uint32_t token_id) {
  return (static_cast<uint64_t>(pos) << 32) | token_id;
}
}  // namespace

TemplateMatcher::TemplateMatcher(const TemplateModel& model,
                                 const VariableReplacer* replacer)
    : table_(model.token_table()), replacer_(replacer) {
  entries_.reserve(model.size());
  for (const TreeNode& n : model.nodes()) {
    entries_.push_back({n.id, n.saturation, n.token_ids});
  }
  // Store entries pre-sorted by descending saturation so entry-index
  // order encodes the stable tie-break; the most precise templates are
  // tried first (§4.8).
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.saturation > b.saturation;
                   });
  for (uint32_t i = 0; i < entries_.size(); ++i) IndexEntry(i);
}

void TemplateMatcher::Insert(const TreeNode& node) {
  const uint32_t idx = static_cast<uint32_t>(entries_.size());
  entries_.push_back({node.id, node.saturation, node.token_ids});
  IndexEntry(idx);
}

void TemplateMatcher::IndexEntry(uint32_t idx) {
  const Entry& e = entries_[idx];
  const size_t len = e.token_ids.size();
  if (len >= buckets_.size()) buckets_.resize(len + 1);
  if (buckets_[len] == nullptr) buckets_[len] = std::make_unique<Bucket>();
  Bucket& bucket = *buckets_[len];

  uint32_t first_const = TrieNode::kLeaf;
  for (uint32_t p = 0; p < e.token_ids.size(); ++p) {
    if (e.token_ids[p] != TokenTable::kWildcardId) {
      first_const = p;
      break;
    }
  }
  if (first_const == TrieNode::kLeaf) {
    auto& list = bucket.all_wildcard;
    list.insert(std::upper_bound(list.begin(), list.end(), idx,
                                 [this](uint32_t a, uint32_t b) {
                                   return TryBefore(a, b);
                                 }),
                idx);
    return;
  }

  const auto kp_it = std::lower_bound(bucket.key_positions.begin(),
                                      bucket.key_positions.end(), first_const);
  if (kp_it == bucket.key_positions.end() || *kp_it != first_const) {
    bucket.key_positions.insert(kp_it, first_const);
  }
  const uint64_t key = KeyOf(first_const, e.token_ids[first_const]);
  auto it = std::lower_bound(
      bucket.keyed.begin(), bucket.keyed.end(), key,
      [](const auto& kv, uint64_t k) { return kv.first < k; });
  if (it == bucket.keyed.end() || it->first != key) {
    it = bucket.keyed.emplace(it, key, std::make_unique<TrieNode>());
  }
  InsertIntoTrie(it->second.get(), idx);
}

void TemplateMatcher::InsertIntoTrie(TrieNode* node, uint32_t idx) {
  const Entry& e = entries_[idx];
  while (node->key_pos != TrieNode::kLeaf) {
    const uint32_t tid = e.token_ids[node->key_pos];
    if (tid == TokenTable::kWildcardId) {
      if (node->wild == nullptr) node->wild = std::make_unique<TrieNode>();
      node = node->wild.get();
    } else {
      auto& child = node->children[tid];
      if (child == nullptr) child = std::make_unique<TrieNode>();
      node = child.get();
    }
  }
  auto& list = node->entries;
  list.insert(std::upper_bound(list.begin(), list.end(), idx,
                               [this](uint32_t a, uint32_t b) {
                                 return TryBefore(a, b);
                               }),
              idx);
  if (list.size() > kTrieLeafMax) MaybeSplitLeaf(node);
}

void TemplateMatcher::MaybeSplitLeaf(TrieNode* node) {
  const std::vector<uint32_t>& members = node->entries;
  const size_t len = entries_[members.front()].token_ids.size();
  const size_t total = members.size();

  // Pick the position whose split minimizes the largest resulting group;
  // positions uniform across members (one group) cannot split.
  uint32_t best_pos = TrieNode::kLeaf;
  size_t best_largest = total;
  std::unordered_map<uint32_t, size_t> counts;
  for (uint32_t pos = 0; pos < len; ++pos) {
    counts.clear();
    size_t wild_count = 0;
    for (uint32_t m : members) {
      const uint32_t tid = entries_[m].token_ids[pos];
      if (tid == TokenTable::kWildcardId) {
        ++wild_count;
      } else {
        ++counts[tid];
      }
    }
    const size_t groups = counts.size() + (wild_count > 0 ? 1 : 0);
    if (groups < 2) continue;
    size_t largest = wild_count;
    for (const auto& [tid, c] : counts) largest = std::max(largest, c);
    if (largest < best_largest) {
      best_largest = largest;
      best_pos = pos;
    }
  }
  if (best_pos == TrieNode::kLeaf) return;  // no discriminating position

  std::vector<uint32_t> moved = std::move(node->entries);
  node->entries.clear();
  node->key_pos = best_pos;
  // Re-inserting in list order preserves the sorted try order in every
  // child leaf.
  for (uint32_t m : moved) {
    const uint32_t tid = entries_[m].token_ids[best_pos];
    TrieNode* dst;
    if (tid == TokenTable::kWildcardId) {
      if (node->wild == nullptr) node->wild = std::make_unique<TrieNode>();
      dst = node->wild.get();
    } else {
      auto& child = node->children[tid];
      if (child == nullptr) child = std::make_unique<TrieNode>();
      dst = child.get();
    }
    dst->entries.push_back(m);
  }
  for (auto& [tid, child] : node->children) {
    if (child->entries.size() > kTrieLeafMax) MaybeSplitLeaf(child.get());
  }
  if (node->wild != nullptr && node->wild->entries.size() > kTrieLeafMax) {
    MaybeSplitLeaf(node->wild.get());
  }
}

void TemplateMatcher::CollectCandidates(
    const TrieNode& node, const std::vector<uint32_t>& ids,
    std::vector<const std::vector<uint32_t>*>* lists) const {
  if (node.key_pos == TrieNode::kLeaf) {
    if (!node.entries.empty()) lists->push_back(&node.entries);
    return;
  }
  const auto it = node.children.find(ids[node.key_pos]);
  if (it != node.children.end()) CollectCandidates(*it->second, ids, lists);
  if (node.wild != nullptr) CollectCandidates(*node.wild, ids, lists);
}

bool TemplateMatcher::Matches(const Entry& e,
                              const std::vector<uint32_t>& ids) const {
  const uint32_t* t = e.token_ids.data();
  const uint32_t* l = ids.data();
  const size_t n = ids.size();
  for (size_t i = 0; i < n; ++i) {
    if (t[i] != TokenTable::kWildcardId && t[i] != l[i]) return false;
  }
  return true;
}

TemplateId TemplateMatcher::MatchIds(const std::vector<uint32_t>& ids,
                                     MatchScratch* scratch) const {
  if (ids.size() >= buckets_.size() || buckets_[ids.size()] == nullptr) {
    return kInvalidTemplateId;
  }
  const Bucket& bucket = *buckets_[ids.size()];

  auto& lists = scratch->lists;
  lists.clear();
  for (uint32_t kp : bucket.key_positions) {
    const uint64_t key = KeyOf(kp, ids[kp]);
    const auto it = std::lower_bound(
        bucket.keyed.begin(), bucket.keyed.end(), key,
        [](const auto& kv, uint64_t k) { return kv.first < k; });
    if (it != bucket.keyed.end() && it->first == key) {
      CollectCandidates(*it->second, ids, &lists);
    }
  }
  if (!bucket.all_wildcard.empty()) lists.push_back(&bucket.all_wildcard);

  if (lists.empty()) return kInvalidTemplateId;
  if (lists.size() == 1) {
    for (uint32_t idx : *lists[0]) {
      if (Matches(entries_[idx], ids)) return entries_[idx].id;
    }
    return kInvalidTemplateId;
  }

  // K-way merge across the (few) candidate lists so the overall try order
  // stays descending-saturation with stable ties.
  auto& cursors = scratch->cursors;
  cursors.assign(lists.size(), 0);
  while (true) {
    size_t best_list = lists.size();
    uint32_t best_idx = 0;
    for (size_t li = 0; li < lists.size(); ++li) {
      if (cursors[li] >= lists[li]->size()) continue;
      const uint32_t idx = (*lists[li])[cursors[li]];
      if (best_list == lists.size() || TryBefore(idx, best_idx)) {
        best_list = li;
        best_idx = idx;
      }
    }
    if (best_list == lists.size()) return kInvalidTemplateId;
    ++cursors[best_list];
    if (Matches(entries_[best_idx], ids)) return entries_[best_idx].id;
  }
}

uint64_t TemplateMatcher::Tokenize(std::string_view raw_log,
                                   MatchScratch* scratch) const {
  scratch->ids.clear();
  if (replacer_->fused_fast_path()) {
    // One pass over the raw text: replace + tokenize + hash + intern
    // lookup, with no replaced-text copy.
    return TokenizeReplacedIdsInto(raw_log, *table_, &scratch->replaced,
                                   &scratch->ids);
  }
  replacer_->ReplaceInto(raw_log, &scratch->replaced);
  scratch->tokens.clear();
  TokenizeDefaultInto(scratch->replaced, &scratch->tokens);
  scratch->ids.reserve(scratch->tokens.size());
  uint64_t shape = kTokenSeqFastSeed;
  for (std::string_view tok : scratch->tokens) {
    const uint64_t hash = TokenTable::HashOf(tok);
    scratch->ids.push_back(table_->LookupHashed(hash, tok));
    shape = CombineTokenHashFast(shape, hash);
  }
  return shape;
}

TemplateId TemplateMatcher::Match(std::string_view raw_log,
                                  MatchScratch* scratch) const {
  Tokenize(raw_log, scratch);
  return MatchIds(scratch->ids, scratch);
}

TemplateId TemplateMatcher::Match(std::string_view raw_log) const {
  thread_local MatchScratch scratch;
  return Match(raw_log, &scratch);
}

namespace {

// MatchAll work items: up to 1024 logs each (enough to amortize the
// claim), and at least 8 per thread, so that a batch of a few thousand
// logs still spreads evenly and workers finishing early keep claiming.
constexpr size_t kMaxMatchChunk = 1024;
constexpr size_t kMatchChunksPerThread = 8;

// Shared by the string and string_view MatchAll overloads; Logs only
// needs operator[] convertible to string_view and size(). Workers claim
// chunks from a shared counter, so a slow stretch of logs does not hold
// the whole call on one thread.
template <typename Logs>
std::vector<TemplateId> MatchAllImpl(const TemplateMatcher& matcher,
                                     const Logs& raw_logs, int num_threads) {
  const size_t n = raw_logs.size();
  const size_t threads = static_cast<size_t>(std::max(1, num_threads));
  const size_t chunk = std::clamp<size_t>(
      n / (threads * kMatchChunksPerThread), 1, kMaxMatchChunk);
  std::vector<TemplateId> out(n, kInvalidTemplateId);
  ParallelFor((n + chunk - 1) / chunk, threads, [&](size_t k) {
    // Per-thread, like Match(): a short batch must not pay the scratch's
    // allocations on every call.
    thread_local TemplateMatcher::MatchScratch scratch;
    const size_t end = std::min(n, (k + 1) * chunk);
    for (size_t i = k * chunk; i < end; ++i) {
      out[i] = matcher.Match(raw_logs[i], &scratch);
    }
  });
  return out;
}

}  // namespace

std::vector<TemplateId> TemplateMatcher::MatchAll(
    const std::vector<std::string>& raw_logs, int num_threads) const {
  return MatchAllImpl(*this, raw_logs, num_threads);
}

std::vector<TemplateId> TemplateMatcher::MatchAll(
    const std::vector<std::string_view>& raw_logs, int num_threads) const {
  return MatchAllImpl(*this, raw_logs, num_threads);
}

}  // namespace bytebrain
