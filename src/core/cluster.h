// Single clustering process (paper §4.4) with positional similarity
// distance (Eq. 2), K-Means++-style seeding, balanced grouping (§4.6) and
// early stop (§4.7).
//
// Given the members of one tree node, the process partitions them into
// clusters such that every cluster's saturation improves on the parent's.
// Clusters are added adaptively: whenever a cluster stops improving, a new
// cluster is seeded with the log farthest from all existing clusters. The
// expansion is bounded by the number of token positions / member logs.
//
// The implementation scores members against dense cluster profiles: each
// (active position, token) pair is a cell numbered by first-seen order,
// and a profile keeps per-cell counts plus the Eq. 2 term w_k * f of
// every cell. Profiles are built in full once; every later reassignment
// (and each expansion seed) is a move applied as Remove + Add, and only
// the profiles a move touched recompute their terms. The terms are
// computed with the same operations in the same order whichever way the
// counts were reached, so the partition does not depend on it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/preprocess.h"
#include "core/saturation.h"
#include "util/rng.h"

namespace bytebrain {

/// Knobs for one clustering step; the bool switches correspond one-to-one
/// to the paper's Fig. 8 / Fig. 9 ablation variants.
struct ClusterOptions {
  /// Position weight w_i = 1/(n_i - 1); false -> w_i = 1
  /// ("w/o position importance").
  bool use_position_importance = true;
  /// Random tie-breaking across equidistant clusters; false -> first
  /// cluster wins ("w/o balanced group").
  bool balanced_grouping = true;
  /// K-Means++-style seeding; false -> both seeds uniformly random
  /// ("random centroid selection").
  bool kmeanspp_seeding = true;
  /// Require every kept cluster to improve saturation; false -> always
  /// accept the 2-way split ("w/o ensure saturation increase").
  bool ensure_saturation_increase = true;
  /// §4.7 shortcuts; false -> full clustering even on trivial nodes
  /// ("w/o early stopping").
  bool early_stop = true;
  /// Reassignment rounds per cluster-count level.
  int max_iterations = 8;
  SaturationOptions saturation;
};

/// Result of one clustering step.
struct ClusterOutcome {
  /// Partition of the input members (indices into the EncodedLog vector).
  /// Meaningful only when split == true; clusters are non-empty.
  std::vector<std::vector<uint32_t>> clusters;
  /// cluster_stats[c] = ComputePositionStats over clusters[c], computed
  /// once here so the caller can score and template the children without
  /// recounting them. Only the parent's confirmed-variable positions are
  /// scanned: constants stay constant and the profiles hold the rest.
  std::vector<PositionStats> cluster_stats;
  /// false -> the node should become a leaf (no useful split exists).
  bool split = false;
};

/// Positional similarity of `log` to a cluster described by per-position
/// token frequencies. Exposed for unit tests.
/// Returns a value in [0, 1]; 1 means every position matches the cluster's
/// dominant structure.
class ClusterProfile {
 public:
  /// `active_positions`: positions unresolved in the parent (constant
  /// positions carry no signal and are skipped).
  ClusterProfile(const std::vector<uint32_t>& active_positions,
                 const std::vector<EncodedLog>& logs);

  void Add(uint32_t member);
  void Clear();

  /// Eq. 2: sum(w_i * f_i) / sum(w_i), f_i = relative frequency of the
  /// log's token at position i, w_i = 1/(n_i - 1) (capped at 2 for
  /// constant positions) or 1 without position importance.
  double Similarity(const EncodedLog& log, bool use_position_importance) const;

  uint32_t size() const { return size_; }

 private:
  const std::vector<uint32_t>& active_;
  const std::vector<EncodedLog>& logs_;
  // freq_[k] maps token -> count at active position k.
  std::vector<std::unordered_map<uint64_t, uint32_t>> freq_;
  uint32_t size_ = 0;
};

/// Runs the single clustering process for one node.
/// `parent_stats` are ComputePositionStats(logs, members) and
/// `parent_saturation` is the node's own score; kept clusters must beat it
/// (unless ensure_saturation_increase is off).
ClusterOutcome SingleClusteringProcess(const std::vector<EncodedLog>& logs,
                                       const std::vector<uint32_t>& members,
                                       const PositionStats& parent_stats,
                                       double parent_saturation,
                                       const ClusterOptions& options,
                                       Rng* rng);

}  // namespace bytebrain
