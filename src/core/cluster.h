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
//
// Every member's similarity to every cluster is cached in one
// member-major matrix that the assignment rounds and the farthest-member
// scan both read; only the columns of profiles a move (or the expansion
// seed) touched are rescored, and the sequential tie loop reads the
// cached row, so the RNG draws, and with them the partition, are those of
// rescoring everything. The matrix holds at most 2^19 similarities
// (4 MiB); in a group too large for that, the clusters whose columns do
// not fit are scored on every read.
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
