#include "core/cluster.h"

#include <algorithm>
#include <cmath>

namespace bytebrain {

namespace {

// Weight cap for positions that are constant within a cluster: the n = 2
// weight (1/(2-1) = 1) doubled, so fully-agreed positions dominate without
// the 1/(n-1) formula dividing by zero.
constexpr double kConstantPositionWeight = 2.0;

// Similarity values within this epsilon are treated as ties for balanced
// grouping (§4.6).
constexpr double kTieEpsilon = 1e-12;

}  // namespace

ClusterProfile::ClusterProfile(const std::vector<uint32_t>& active_positions,
                               const std::vector<EncodedLog>& logs)
    : active_(active_positions), logs_(logs), freq_(active_positions.size()) {}

void ClusterProfile::Add(uint32_t member) {
  const EncodedLog& log = logs_[member];
  for (size_t k = 0; k < active_.size(); ++k) {
    freq_[k][log.tokens[active_[k]]]++;
  }
  ++size_;
}

void ClusterProfile::Clear() {
  for (auto& f : freq_) f.clear();
  size_ = 0;
}

double ClusterProfile::Similarity(const EncodedLog& log,
                                  bool use_position_importance) const {
  if (size_ == 0 || active_.empty()) return 0.0;
  double weighted = 0.0;
  double total_weight = 0.0;
  for (size_t k = 0; k < active_.size(); ++k) {
    const auto& f = freq_[k];
    const auto it = f.find(log.tokens[active_[k]]);
    const double fi =
        it == f.end() ? 0.0
                      : static_cast<double>(it->second) / size_;
    double wi = 1.0;
    if (use_position_importance) {
      const size_t ni = f.size();
      wi = ni <= 1 ? kConstantPositionWeight
                   : 1.0 / static_cast<double>(ni - 1);
    }
    weighted += wi * fi;
    total_weight += wi;
  }
  return total_weight > 0.0 ? weighted / total_weight : 0.0;
}

namespace {

// Dense re-encoding of the members' tokens at the active positions:
// tokens become small consecutive value ids so cluster profiles can use
// array indexing instead of hash lookups in the assignment inner loop.
// ClusterProfile (above) stays as the reference implementation exercised
// by the unit tests.
struct DenseView {
  // values[i * num_positions + k] = value id of members[i] at active k.
  std::vector<uint32_t> values;
  std::vector<uint32_t> cardinality;  // distinct values per active position
  size_t num_positions = 0;

  uint32_t at(size_t member_index, size_t k) const {
    return values[member_index * num_positions + k];
  }
};

DenseView BuildDenseView(const std::vector<EncodedLog>& logs,
                         const std::vector<uint32_t>& members,
                         const std::vector<uint32_t>& active) {
  DenseView view;
  view.num_positions = active.size();
  view.values.resize(members.size() * active.size());
  view.cardinality.resize(active.size(), 0);
  std::unordered_map<uint64_t, uint32_t> ids;
  for (size_t k = 0; k < active.size(); ++k) {
    ids.clear();
    for (size_t i = 0; i < members.size(); ++i) {
      const uint64_t tok = logs[members[i]].tokens[active[k]];
      auto [it, inserted] =
          ids.emplace(tok, static_cast<uint32_t>(ids.size()));
      view.values[i * active.size() + k] = it->second;
    }
    view.cardinality[k] = static_cast<uint32_t>(ids.size());
  }
  return view;
}

// Cluster profile over the dense view: per-position frequency arrays.
// After a batch of Add calls, UpdateWeights must run before Similarity:
// the Eq. 2 weights depend only on the profile, not on the log scored,
// so they are computed once per rebuild instead of once per comparison.
class DenseProfile {
 public:
  DenseProfile(const DenseView& view, bool use_position_importance)
      : view_(view), use_position_importance_(use_position_importance) {
    offsets_.resize(view.num_positions + 1, 0);
    for (size_t k = 0; k < view.num_positions; ++k) {
      offsets_[k + 1] = offsets_[k] + view.cardinality[k];
    }
    freq_.resize(offsets_.back(), 0);
    distinct_.resize(view.num_positions, 0);
    weights_.resize(view.num_positions, 0.0);
  }

  void Add(size_t member_index) {
    for (size_t k = 0; k < view_.num_positions; ++k) {
      uint32_t& f = freq_[offsets_[k] + view_.at(member_index, k)];
      if (f == 0) ++distinct_[k];
      ++f;
    }
    ++size_;
  }

  void Clear() {
    std::fill(freq_.begin(), freq_.end(), 0);
    std::fill(distinct_.begin(), distinct_.end(), 0);
    size_ = 0;
  }

  // w_i per position and their sum, accumulated in position order (the
  // order ClusterProfile::Similarity sums them in).
  void UpdateWeights() {
    total_weight_ = 0.0;
    for (size_t k = 0; k < view_.num_positions; ++k) {
      double wi = 1.0;
      if (use_position_importance_) {
        const uint32_t ni = distinct_[k];
        wi = ni <= 1 ? kConstantPositionWeight
                     : 1.0 / static_cast<double>(ni - 1);
      }
      weights_[k] = wi;
      total_weight_ += wi;
    }
    inv_size_ = size_ == 0 ? 0.0 : 1.0 / static_cast<double>(size_);
  }

  // Eq. 2 similarity of members[member_index] to this cluster.
  double Similarity(size_t member_index) const {
    if (size_ == 0 || view_.num_positions == 0) return 0.0;
    const uint32_t* values =
        view_.values.data() + member_index * view_.num_positions;
    double weighted = 0.0;
    for (size_t k = 0; k < view_.num_positions; ++k) {
      const double fi =
          static_cast<double>(freq_[offsets_[k] + values[k]]) * inv_size_;
      weighted += weights_[k] * fi;
    }
    return total_weight_ > 0.0 ? weighted / total_weight_ : 0.0;
  }

  uint32_t size() const { return size_; }

 private:
  const DenseView& view_;
  bool use_position_importance_;
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> freq_;
  std::vector<uint32_t> distinct_;
  std::vector<double> weights_;
  double total_weight_ = 0.0;
  double inv_size_ = 0.0;
  uint32_t size_ = 0;
};

// Positions still unresolved across `members`: constants carry no signal
// and confirmed-variable positions must not drive splits (splitting on a
// variable's values produces meaningless templates, §4.5).
std::vector<uint32_t> ActivePositions(const PositionStats& stats) {
  std::vector<uint32_t> active;
  for (uint32_t i = 0; i < stats.num_positions; ++i) {
    if (stats.unresolved(i)) active.push_back(i);
  }
  return active;
}

// Early-stop checks (§4.7). Returns true and fills `outcome` when the
// decision is immediate.
bool TryEarlyStop(const std::vector<uint32_t>& members,
                  const PositionStats& stats, ClusterOutcome* outcome) {
  // (1) Few logs: each distinct log forms its own cluster.
  if (members.size() <= 2) {
    if (members.size() < 2) {
      outcome->split = false;
      return true;
    }
    outcome->split = true;
    outcome->clusters = {{members[0]}, {members[1]}};
    return true;
  }
  uint32_t unresolved = 0;
  bool all_unresolved_distinct = true;
  for (size_t i = 0; i < stats.distinct.size(); ++i) {
    if (!stats.unresolved(i)) continue;
    ++unresolved;
    if (stats.distinct[i] != stats.num_logs) all_unresolved_distinct = false;
  }
  // (2) Single unresolved position: splitting on one position cannot
  // produce a better template; the position is simply a variable.
  if (unresolved == 1) {
    outcome->split = false;
    return true;
  }
  // (3) Completely distinct unresolved positions: the logs are pairwise
  // dissimilar everywhere unresolved; each becomes its own cluster.
  if (unresolved >= 2 && all_unresolved_distinct) {
    outcome->split = true;
    outcome->clusters.reserve(members.size());
    for (uint32_t m : members) outcome->clusters.push_back({m});
    return true;
  }
  return false;
}

}  // namespace

ClusterOutcome SingleClusteringProcess(const std::vector<EncodedLog>& logs,
                                       const std::vector<uint32_t>& members,
                                       const PositionStats& parent_stats,
                                       double parent_saturation,
                                       const ClusterOptions& options,
                                       Rng* rng) {
  ClusterOutcome outcome;
  if (members.size() < 2) return outcome;  // nothing to split
  if (parent_stats.fully_resolved()) return outcome;  // saturated already

  if (options.early_stop && TryEarlyStop(members, parent_stats, &outcome)) {
    for (const auto& cluster : outcome.clusters) {
      outcome.cluster_stats.push_back(ComputePositionStats(logs, cluster));
    }
    return outcome;
  }

  const std::vector<uint32_t> active = ActivePositions(parent_stats);
  const DenseView view = BuildDenseView(logs, members, active);
  const bool weighted = options.use_position_importance;

  // --- Seeding -------------------------------------------------------
  // First seed uniformly at random; second is the member farthest from
  // the first (K-Means++ principle), or random under the ablation.
  const size_t seed1 = rng->NextBelow(members.size());
  DenseProfile seed_profile(view, weighted);
  seed_profile.Add(seed1);
  seed_profile.UpdateWeights();

  size_t seed2 = seed1;
  if (options.kmeanspp_seeding) {
    double best = 2.0;  // similarity in [0,1]; pick the minimum
    for (size_t i = 0; i < members.size(); ++i) {
      if (i == seed1) continue;
      const double sim = seed_profile.Similarity(i);
      if (sim < best) {
        best = sim;
        seed2 = i;
      }
    }
  } else {
    while (members.size() > 1 && seed2 == seed1) {
      seed2 = rng->NextBelow(members.size());
    }
  }

  // assignment[i]: cluster index of members[i].
  std::vector<uint32_t> assignment(members.size(), 0);
  uint32_t num_clusters = 2;
  std::vector<DenseProfile> profiles;
  profiles.reserve(8);
  profiles.emplace_back(view, weighted);
  profiles.emplace_back(view, weighted);
  profiles[0].Add(seed1);
  profiles[1].Add(seed2);
  for (auto& p : profiles) p.UpdateWeights();

  std::vector<uint32_t> tie_buffer;
  auto assign_all = [&]() -> bool {
    bool changed = false;
    for (size_t i = 0; i < members.size(); ++i) {
      double best = -1.0;
      tie_buffer.clear();
      for (uint32_t c = 0; c < num_clusters; ++c) {
        if (profiles[c].size() == 0) continue;
        const double sim = profiles[c].Similarity(i);
        if (sim > best + kTieEpsilon) {
          best = sim;
          tie_buffer.clear();
          tie_buffer.push_back(c);
        } else if (sim >= best - kTieEpsilon) {
          tie_buffer.push_back(c);
        }
      }
      uint32_t chosen;
      if (tie_buffer.size() == 1 || !options.balanced_grouping) {
        chosen = tie_buffer.front();
      } else {
        // §4.6 balanced grouping: equidistant ties break uniformly at
        // random so no cluster systematically absorbs the overflow.
        chosen = tie_buffer[rng->NextBelow(tie_buffer.size())];
      }
      if (assignment[i] != chosen) {
        assignment[i] = chosen;
        changed = true;
      }
    }
    return changed;
  };

  auto rebuild_profiles = [&]() {
    for (auto& p : profiles) p.Clear();
    for (size_t i = 0; i < members.size(); ++i) {
      profiles[assignment[i]].Add(i);
    }
    for (auto& p : profiles) p.UpdateWeights();
  };

  // groups[c] = members assigned to cluster c; group_stats[c] is filled
  // when the saturation check counts group c (num_logs == 0 until then).
  std::vector<std::vector<uint32_t>> groups;
  std::vector<PositionStats> group_stats;
  auto partition = [&]() {
    groups.assign(num_clusters, {});
    group_stats.assign(num_clusters, PositionStats{});
    for (size_t i = 0; i < members.size(); ++i) {
      groups[assignment[i]].push_back(members[i]);
    }
  };

  // --- Iterate: reassign, check saturation, expand -------------------
  const uint32_t max_clusters =
      static_cast<uint32_t>(std::min<size_t>(members.size(), 64));
  int iterations_left = options.max_iterations;
  assign_all();
  rebuild_profiles();
  while (true) {
    bool changed = false;
    for (int it = 0; it < 2 && iterations_left > 0; ++it, --iterations_left) {
      changed = assign_all();
      rebuild_profiles();
      if (!changed) break;
    }

    if (!options.ensure_saturation_increase) break;

    // Find a cluster whose saturation does not improve on the parent.
    partition();
    bool all_improved = true;
    for (uint32_t c = 0; c < num_clusters && all_improved; ++c) {
      if (groups[c].empty()) continue;
      if (groups[c].size() == members.size()) {
        // Degenerate: everything collapsed into one cluster.
        all_improved = false;
        break;
      }
      group_stats[c] = ComputePositionStats(logs, groups[c]);
      const double s = SaturationFromStats(group_stats[c], options.saturation);
      if (s <= parent_saturation + 1e-12) all_improved = false;
    }
    // Breaking out leaves `groups` describing the final assignment.
    if (all_improved) break;
    if (num_clusters >= max_clusters || iterations_left <= 0) break;

    // Expand: seed a new cluster with the member farthest from all
    // existing clusters (lowest best-similarity).
    double worst_best = 2.0;
    size_t farthest_idx = 0;
    for (size_t i = 0; i < members.size(); ++i) {
      double best_sim = 0.0;
      for (uint32_t c = 0; c < num_clusters; ++c) {
        if (profiles[c].size() == 0) continue;
        best_sim = std::max(best_sim, profiles[c].Similarity(i));
      }
      if (best_sim < worst_best) {
        worst_best = best_sim;
        farthest_idx = i;
      }
    }
    profiles.emplace_back(view, weighted);
    assignment[farthest_idx] = num_clusters;
    ++num_clusters;
    rebuild_profiles();
    iterations_left = std::max(iterations_left, 2);  // allow a settle round
  }
  if (!options.ensure_saturation_increase) partition();

  // --- Materialize the partition --------------------------------------
  for (uint32_t c = 0; c < num_clusters; ++c) {
    if (groups[c].empty()) continue;
    outcome.clusters.push_back(std::move(groups[c]));
    outcome.cluster_stats.push_back(std::move(group_stats[c]));
  }
  outcome.split = outcome.clusters.size() >= 2;
  if (!outcome.split) return outcome;
  for (size_t c = 0; c < outcome.clusters.size(); ++c) {
    if (outcome.cluster_stats[c].num_logs == 0) {
      outcome.cluster_stats[c] =
          ComputePositionStats(logs, outcome.clusters[c]);
    }
  }
  return outcome;
}

}  // namespace bytebrain
