#include "core/trainer.h"

#include <algorithm>

#include "core/grouping.h"
#include "threading/thread_pool.h"
#include "util/rng.h"

namespace bytebrain {

namespace {

// A node of a per-group local tree, produced by the parallel phase and
// stitched into the global model sequentially afterwards.
struct LocalNode {
  int parent = -1;  // index into the local vector, -1 for the group root
  double saturation = 0.0;
  std::vector<std::string> tokens;
  uint64_t support = 0;
  /// For leaves: the distinct-log indices resolved to this node.
  std::vector<uint32_t> leaf_members;
};

// Template tokens for a member set: constant positions keep their text,
// unresolved positions become the wildcard.
std::vector<std::string> TemplateTokensFor(
    const std::vector<EncodedLog>& logs, const std::vector<uint32_t>& members,
    const PositionStats& stats) {
  const EncodedLog& first = logs[members[0]];
  std::vector<std::string> tokens;
  tokens.reserve(stats.num_positions);
  for (uint32_t i = 0; i < stats.num_positions; ++i) {
    if (stats.distinct[i] == 1) {
      tokens.emplace_back(first.text(i));
    } else {
      tokens.emplace_back(kWildcard);
    }
  }
  return tokens;
}

uint64_t SupportOf(const std::vector<EncodedLog>& logs,
                   const std::vector<uint32_t>& members) {
  uint64_t s = 0;
  for (uint32_t m : members) s += logs[m].count;
  return s;
}

// Builds the clustering tree for one initial group.
std::vector<LocalNode> BuildGroupTree(const std::vector<EncodedLog>& logs,
                                      std::vector<uint32_t> root_members,
                                      const TrainerOptions& options,
                                      uint64_t group_seed) {
  Rng rng(group_seed);
  std::vector<LocalNode> nodes;

  // Each member set's PositionStats are counted once, when the set is
  // formed, and then serve its saturation, its template tokens and its
  // own clustering step.
  struct Work {
    int node_index;
    std::vector<uint32_t> members;
    PositionStats stats;
    double saturation;
  };
  std::vector<Work> stack;

  auto add_node = [&](int parent, const std::vector<uint32_t>& members,
                      const PositionStats& stats, double saturation) {
    LocalNode node;
    node.parent = parent;
    node.saturation = saturation;
    node.tokens = TemplateTokensFor(logs, members, stats);
    node.support = SupportOf(logs, members);
    nodes.push_back(std::move(node));
    return static_cast<int>(nodes.size()) - 1;
  };

  PositionStats root_stats = ComputePositionStats(logs, root_members);
  const double root_sat =
      SaturationFromStats(root_stats, options.cluster.saturation);
  const int root_index = add_node(-1, root_members, root_stats, root_sat);
  stack.push_back(
      {root_index, std::move(root_members), std::move(root_stats), root_sat});

  while (!stack.empty()) {
    Work work = std::move(stack.back());
    stack.pop_back();

    bool made_children = false;
    if (work.saturation < options.saturation_stop &&
        work.members.size() > 1) {
      ClusterOutcome outcome =
          SingleClusteringProcess(logs, work.members, work.stats,
                                  work.saturation, options.cluster, &rng);
      if (outcome.split) {
        for (size_t c = 0; c < outcome.clusters.size(); ++c) {
          std::vector<uint32_t>& cluster = outcome.clusters[c];
          PositionStats& stats = outcome.cluster_stats[c];
          // Guard against degenerate "splits" that return the parent set;
          // they would recurse forever.
          if (cluster.size() == work.members.size()) continue;
          const double child_sat =
              SaturationFromStats(stats, options.cluster.saturation);
          if (child_sat > work.saturation ||
              !options.cluster.ensure_saturation_increase) {
            // Real child: the tree edge strictly increases saturation.
            const int child_index =
                add_node(work.node_index, cluster, stats, child_sat);
            stack.push_back({child_index, std::move(cluster),
                             std::move(stats), child_sat});
          } else {
            // Virtual partition (§4.4 cluster expansion, amortized): the
            // cluster did not resolve any new position yet — keep
            // partitioning its members but attach future improving
            // descendants to the CURRENT node, so every stored edge
            // still strictly increases saturation. Progress is
            // guaranteed because the cluster is a proper subset.
            stack.push_back({work.node_index, std::move(cluster),
                             std::move(stats), work.saturation});
          }
          made_children = true;
        }
      }
    }
    if (!made_children) {
      if (nodes[work.node_index].leaf_members.empty()) {
        nodes[work.node_index].leaf_members = std::move(work.members);
      } else {
        // A virtual partition bottomed out on an already-leaf node:
        // merge the member lists.
        auto& lm = nodes[work.node_index].leaf_members;
        lm.insert(lm.end(), work.members.begin(), work.members.end());
      }
    }
  }
  return nodes;
}

}  // namespace

Result<TrainOutput> Trainer::Train(const std::vector<std::string>& raw_logs,
                                   const VariableReplacer& replacer) const {
  return Train(std::vector<std::string_view>(raw_logs.begin(), raw_logs.end()),
               replacer);
}

Result<TrainOutput> Trainer::Train(
    const std::vector<std::string_view>& raw_logs,
    const VariableReplacer& replacer) const {
  TrainOutput out;
  out.assignments.assign(raw_logs.size(), kInvalidTemplateId);
  if (raw_logs.empty()) return out;

  // Optional random sampling to bound memory (§3). Sampled-out logs keep
  // kInvalidTemplateId assignments; callers match them online instead.
  const std::vector<std::string_view>* input = &raw_logs;
  std::vector<std::string_view> sampled;
  std::vector<uint32_t> sample_map;
  if (options_.max_train_logs > 0 && raw_logs.size() > options_.max_train_logs) {
    Rng rng(options_.seed ^ 0x5A4D31ULL);
    sample_map.resize(raw_logs.size());
    for (uint32_t i = 0; i < raw_logs.size(); ++i) sample_map[i] = i;
    for (size_t i = raw_logs.size(); i > 1; --i) {
      std::swap(sample_map[i - 1], sample_map[rng.NextBelow(i)]);
    }
    sample_map.resize(options_.max_train_logs);
    sampled.reserve(sample_map.size());
    for (uint32_t idx : sample_map) sampled.push_back(raw_logs[idx]);
    input = &sampled;
  }

  PreprocessResult pre = Preprocess(*input, replacer, options_.preprocess);
  out.distinct_logs = pre.logs.size();
  out.total_logs = pre.total_logs;
  out.dictionary_bytes = pre.dictionary_bytes;

  std::vector<InitialGroup> groups = InitialGrouping(pre.logs, options_.prefix_k);

  // Parallel phase: independent tree construction per initial group.
  // Groups are dispatched largest first (members x token count, a proxy
  // for clustering cost) so the biggest group starts at once instead of
  // queueing behind small ones. Each tree lands in its own slot and uses
  // its own per-group RNG, so the dispatch order cannot change the model.
  std::vector<uint32_t> order(groups.size());
  std::vector<uint64_t> cost(groups.size());
  for (uint32_t g = 0; g < groups.size(); ++g) {
    order[g] = g;
    cost[g] = static_cast<uint64_t>(groups[g].members.size()) *
              groups[g].token_count;
  }
  std::stable_sort(
      order.begin(), order.end(),
      [&cost](uint32_t a, uint32_t b) { return cost[a] > cost[b]; });
  std::vector<std::vector<LocalNode>> local_trees(groups.size());
  ParallelFor(groups.size(),
              static_cast<size_t>(std::max(1, options_.num_threads)),
              [&](size_t k) {
                const uint32_t g = order[k];
                local_trees[g] = BuildGroupTree(
                    pre.logs, std::move(groups[g].members), options_,
                    HashCombine(options_.seed, g));
              });

  // Sequential stitch: assign global ids, collect leaf assignments.
  std::vector<TemplateId> distinct_assignment(pre.logs.size(),
                                              kInvalidTemplateId);
  for (auto& tree : local_trees) {
    std::vector<TemplateId> global_ids(tree.size(), kInvalidTemplateId);
    for (size_t i = 0; i < tree.size(); ++i) {
      LocalNode& n = tree[i];
      const TemplateId parent =
          n.parent < 0 ? kInvalidTemplateId : global_ids[n.parent];
      // Tokens are moved, not copied: the local trees are dead after the
      // stitch and AddNode interns from the strings it receives.
      global_ids[i] =
          out.model.AddNode(parent, n.saturation, std::move(n.tokens),
                            n.support);
      for (uint32_t member : n.leaf_members) {
        distinct_assignment[member] = global_ids[i];
      }
    }
  }

  // Expand distinct-log assignments back to raw inputs.
  for (size_t i = 0; i < pre.distinct_of.size(); ++i) {
    const size_t raw_index = sample_map.empty() ? i : sample_map[i];
    out.assignments[raw_index] = distinct_assignment[pre.distinct_of[i]];
  }
  return out;
}

}  // namespace bytebrain
