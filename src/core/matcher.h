// Online matching (paper §4.8).
//
// Incoming logs are matched directly against template token-id arrays —
// not by re-walking the clustering tree with distance computations — so
// the model needs no per-node token statistics. Template tokens are
// interned once (core/token_table.h); the per-position test is a single
// integer comparison ("wildcard or equal"). Templates are tried in
// descending saturation order; ties break toward earlier entries, which
// reproduces the stable order of a plain sorted list.
//
// Candidate pruning is two-level:
//  * bucket by token count (a log only matches equal-length templates);
//  * within a bucket, a keyed index over each template's FIRST
//    NON-WILDCARD position: key (position, token id) -> candidates. A
//    log probes one key per distinct first-constant position present in
//    the bucket (usually just position 0). Oversized candidate lists
//    fall back to a small trie over subsequent constant positions.
// Templates with no constant token at all are always candidates.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/model.h"
#include "core/token_table.h"
#include "core/variable_replacer.h"

namespace bytebrain {

/// Matcher snapshot built from a model. Rebuild after retrain / merge;
/// cheap relative to training. Thread-safe for concurrent Match.
///
/// Threading contract (load-bearing for the service's async retraining —
/// see ARCHITECTURE.md): the matcher owns no lock of its own; the owner
/// (ByteBrainParser under ManagedTopic's shared_mutex) serializes the
/// mutators. All Match* methods are const, take no lock, never block and
/// never train; any number may run concurrently with each other — and
/// with a BACKGROUND TemplateMatcher being constructed from a cloned
/// model, because construction touches only the model it is given.
/// Insert (and the shared TokenTable's Intern it relies on) mutates and
/// must be exclusive with all lookups.
class TemplateMatcher {
 public:
  /// Reusable per-thread scratch for the match hot path: with a
  /// caller-owned scratch the per-log path performs no heap allocation
  /// in steady state. Match() without a scratch uses a thread_local one.
  struct MatchScratch {
    std::string replaced;
    std::vector<std::string_view> tokens;
    std::vector<uint32_t> ids;
    std::vector<const std::vector<uint32_t>*> lists;
    std::vector<size_t> cursors;
  };

  /// `replacer` preprocesses incoming logs exactly as training did; it
  /// must outlive the matcher. The matcher shares the model's TokenTable.
  /// Locking: reads only `model` and the replacer's rule set — do not
  /// mutate either concurrently; safe to run off-lock on a Clone()d model
  /// while a different matcher serves lookups.
  TemplateMatcher(const TemplateModel& model,
                  const VariableReplacer* replacer);

  /// Most precise (highest-saturation) matching template id, or
  /// kInvalidTemplateId when nothing matches.
  /// Locking: none taken; requires no concurrent Insert/Intern (the
  /// service guarantees this by holding at least the shared topic lock).
  /// Never blocks, never trains.
  TemplateId Match(std::string_view raw_log) const;

  /// Match with caller-owned scratch buffers (allocation-free once the
  /// scratch is warm). Locking: as Match; the scratch must be owned by
  /// the calling thread.
  TemplateId Match(std::string_view raw_log, MatchScratch* scratch) const;

  /// Match in two halves, for a caller that keys on a log's shape
  /// before matching it: Tokenize leaves the log's token ids in
  /// scratch->ids and returns the content hash of its replaced token
  /// sequence (equal sequences hash equal under any model; the fused
  /// and two-pass scans agree bit for bit), and MatchIds matches those
  /// ids. Match == Tokenize then MatchIds. Locking: as Match.
  uint64_t Tokenize(std::string_view raw_log, MatchScratch* scratch) const;
  TemplateId MatchIds(const std::vector<uint32_t>& ids,
                      MatchScratch* scratch) const;

  /// Match a batch across `num_threads` processing queues (§3 "the system
  /// distributes matching tasks across multiple processing queues").
  /// Threads claim chunks of up to 1024 logs in turn, at least 8 chunks
  /// per thread; each id is Match's.
  /// Locking: as Match; spawns shard tasks on the shared process pool but
  /// itself blocks only until its own shards finish. Never trains. The
  /// view overload serves the off-lock training path, which reads its
  /// window as views into mmap'd storage segments.
  std::vector<TemplateId> MatchAll(const std::vector<std::string>& raw_logs,
                                   int num_threads) const;
  std::vector<TemplateId> MatchAll(
      const std::vector<std::string_view>& raw_logs, int num_threads) const;

  /// Adds one template (an adopted temporary, §3) without rebuilding. The
  /// node must come from the same model (its token_ids must be interned
  /// in the shared table). Locking: MUTATES — the caller must hold its
  /// exclusive lock (no concurrent Match/MatchAll/Insert); the service
  /// calls this only from the exclusive adopt section.
  void Insert(const TreeNode& node);

  /// Locking: safe under the same conditions as Match.
  size_t num_templates() const { return entries_.size(); }

 private:
  struct Entry {
    TemplateId id;
    double saturation;
    std::vector<uint32_t> token_ids;  // kWildcardId marks variables
  };

  /// Refinement trie node: either a leaf holding candidate entry indices
  /// in try order, or an interior node splitting on the token id at
  /// `key_pos` (entries with a wildcard there go to `wild`, which is a
  /// candidate for every log).
  struct TrieNode {
    static constexpr uint32_t kLeaf = 0xFFFFFFFFu;
    uint32_t key_pos = kLeaf;
    std::vector<uint32_t> entries;  // leaf payload, sorted by try order
    std::unordered_map<uint32_t, std::unique_ptr<TrieNode>> children;
    std::unique_ptr<TrieNode> wild;
  };

  struct Bucket {
    // (first non-wildcard position << 32 | token id) -> candidates.
    // Sorted flat vector: buckets hold few keys, so a binary search
    // beats a node-based hash map's pointer chase on the hot path.
    std::vector<std::pair<uint64_t, std::unique_ptr<TrieNode>>> keyed;
    // Distinct first-constant positions present in `keyed`, ascending:
    // the per-log probe set.
    std::vector<uint32_t> key_positions;
    // Templates whose every position is a wildcard: always candidates.
    std::vector<uint32_t> all_wildcard;
  };

  /// Global try order: descending saturation, ties toward the smaller
  /// entry index. Entries are stored pre-sorted by this order at
  /// construction, so index order encodes tie-breaks.
  bool TryBefore(uint32_t a, uint32_t b) const {
    if (entries_[a].saturation != entries_[b].saturation) {
      return entries_[a].saturation > entries_[b].saturation;
    }
    return a < b;
  }

  void IndexEntry(uint32_t idx);
  void InsertIntoTrie(TrieNode* node, uint32_t idx);
  void MaybeSplitLeaf(TrieNode* node);
  void CollectCandidates(const TrieNode& node,
                         const std::vector<uint32_t>& ids,
                         std::vector<const std::vector<uint32_t>*>* lists) const;
  bool Matches(const Entry& e, const std::vector<uint32_t>& ids) const;

  std::vector<Entry> entries_;
  // Indexed by token count; null where no template has that length.
  std::vector<std::unique_ptr<Bucket>> buckets_;
  std::shared_ptr<const TokenTable> table_;
  const VariableReplacer* replacer_;
};

}  // namespace bytebrain
