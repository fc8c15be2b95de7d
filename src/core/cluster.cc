#include "core/cluster.h"

#include <algorithm>
#include <cmath>

#include "util/flat_table.h"

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
// each (position, token) pair becomes a cell of one flat array, so
// cluster profiles use array indexing instead of hash lookups in the
// assignment inner loop. Position k owns cells [offsets[k],
// offsets[k + 1]), one per distinct token in first-seen order.
// ClusterProfile (above) stays as the reference implementation exercised
// by the unit tests.
struct DenseView {
  // cells[i * num_positions + k] = cell of members[i]'s token at active k.
  std::vector<uint32_t> cells;
  std::vector<uint32_t> offsets;  // num_positions + 1 entries
  size_t num_positions = 0;

  const uint32_t* row(size_t member_index) const {
    return cells.data() + member_index * num_positions;
  }
  size_t num_cells() const { return offsets.back(); }
};

DenseView BuildDenseView(const std::vector<EncodedLog>& logs,
                         const std::vector<uint32_t>& members,
                         const std::vector<uint32_t>& active) {
  DenseView view;
  view.num_positions = active.size();
  view.cells.resize(members.size() * active.size());
  view.offsets.resize(active.size() + 1, 0);
  // Each clustering thread reuses one table; it starts small and grows,
  // so positions with few distinct tokens stay in cache.
  thread_local FlatOrdinalTable<> ids;
  for (size_t k = 0; k < active.size(); ++k) {
    ids.Reset(0);
    const uint32_t offset = view.offsets[k];
    for (size_t i = 0; i < members.size(); ++i) {
      const uint64_t tok = logs[members[i]].tokens[active[k]];
      view.cells[i * active.size() + k] = offset + ids.Insert(tok).first;
    }
    view.offsets[k + 1] = offset + static_cast<uint32_t>(ids.size());
  }
  return view;
}

// Cluster profile over the dense view: per-cell frequencies. After a
// batch of Add/Remove calls, UpdateWeights must run before Similarity:
// the Eq. 2 terms depend only on the profile, not on the log scored, so
// they are computed once per change instead of once per comparison.
class DenseProfile {
 public:
  DenseProfile(const DenseView& view, bool use_position_importance)
      : view_(view),
        use_position_importance_(use_position_importance),
        freq_(view.num_cells(), 0),
        score_(view.num_cells(), 0.0),
        distinct_(view.num_positions, 0) {}

  void Add(size_t member_index) {
    const uint32_t* cells = view_.row(member_index);
    for (size_t k = 0; k < view_.num_positions; ++k) {
      if (freq_[cells[k]]++ == 0) ++distinct_[k];
    }
    ++size_;
  }

  // Undoes Add(member_index); the member must be in the profile.
  void Remove(size_t member_index) {
    const uint32_t* cells = view_.row(member_index);
    for (size_t k = 0; k < view_.num_positions; ++k) {
      if (--freq_[cells[k]] == 0) --distinct_[k];
    }
    --size_;
  }

  void Clear() {
    std::fill(freq_.begin(), freq_.end(), 0);
    std::fill(distinct_.begin(), distinct_.end(), 0);
    size_ = 0;
  }

  // Per cell, the Eq. 2 term w_k * f: w_k = 1/(n_k - 1) from position
  // k's distinct count (or 1 without position importance) and f the
  // cell's relative frequency; plus sum(w_k) in position order (the order
  // ClusterProfile::Similarity sums them in).
  void UpdateWeights() {
    total_weight_ = 0.0;
    const double inv_size =
        size_ == 0 ? 0.0 : 1.0 / static_cast<double>(size_);
    for (size_t k = 0; k < view_.num_positions; ++k) {
      double wi = 1.0;
      if (use_position_importance_) {
        const uint32_t ni = distinct_[k];
        wi = ni <= 1 ? kConstantPositionWeight
                     : 1.0 / static_cast<double>(ni - 1);
      }
      for (uint32_t c = view_.offsets[k]; c < view_.offsets[k + 1]; ++c) {
        score_[c] = wi * (static_cast<double>(freq_[c]) * inv_size);
      }
      total_weight_ += wi;
    }
  }

  // Eq. 2 similarity of members[member_index] to this cluster.
  double Similarity(size_t member_index) const {
    if (size_ == 0 || view_.num_positions == 0) return 0.0;
    const uint32_t* cells = view_.row(member_index);
    double weighted = 0.0;
    for (size_t k = 0; k < view_.num_positions; ++k) {
      weighted += score_[cells[k]];
    }
    return total_weight_ > 0.0 ? weighted / total_weight_ : 0.0;
  }

  uint32_t size() const { return size_; }
  // Distinct tokens among the profile's members at active position k.
  uint32_t distinct(size_t k) const { return distinct_[k]; }

 private:
  const DenseView& view_;
  bool use_position_importance_;
  std::vector<uint32_t> freq_;
  std::vector<double> score_;
  std::vector<uint32_t> distinct_;
  double total_weight_ = 0.0;
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

  // Members whose cluster changed since the profiles were last brought
  // up to date: (member index, cluster it left).
  struct Move {
    uint32_t member;
    uint32_t from;
  };
  std::vector<Move> moves;
  std::vector<uint32_t> tie_buffer;
  auto assign_all = [&]() -> bool {
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
        moves.push_back({static_cast<uint32_t>(i), assignment[i]});
        assignment[i] = chosen;
      }
    }
    return !moves.empty();  // every round starts with none pending
  };

  // Brings the profiles up to date with `assignment`. Integer counts do
  // not depend on how they were reached, so applying the moves yields the
  // same profiles (and bit-identical Eq. 2 terms) as re-adding every
  // member; only the profiles a move touched recompute their terms.
  std::vector<bool> touched;
  auto apply_moves = [&]() {
    touched.assign(num_clusters, false);
    for (const Move& move : moves) {
      const uint32_t to = assignment[move.member];
      profiles[move.from].Remove(move.member);
      profiles[to].Add(move.member);
      touched[move.from] = true;
      touched[to] = true;
    }
    moves.clear();
    for (uint32_t c = 0; c < num_clusters; ++c) {
      if (touched[c]) profiles[c].UpdateWeights();
    }
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
  // ComputePositionStats(logs, groups[c]) without rescanning what is
  // already known: positions constant in the parent stay constant, and
  // at the active positions the up-to-date profile holds the count. Only
  // the parent's confirmed-variable positions are counted.
  auto count_group = [&](uint32_t c) {
    std::vector<uint32_t> distinct(parent_stats.num_positions, 0);
    for (uint32_t i = 0; i < parent_stats.num_positions; ++i) {
      if (parent_stats.distinct[i] == 1) distinct[i] = 1;
    }
    for (size_t k = 0; k < active.size(); ++k) {
      distinct[active[k]] = profiles[c].distinct(k);
    }
    group_stats[c] = CompletePositionStats(logs, groups[c], std::move(distinct));
  };

  // --- Iterate: reassign, check saturation, expand -------------------
  const uint32_t max_clusters =
      static_cast<uint32_t>(std::min<size_t>(members.size(), 64));
  int iterations_left = options.max_iterations;
  // The first assignment replaces the seed-only profiles: the one full
  // build. Every later change to the profiles is a move.
  assign_all();
  moves.clear();
  for (auto& p : profiles) p.Clear();
  for (size_t i = 0; i < members.size(); ++i) profiles[assignment[i]].Add(i);
  for (auto& p : profiles) p.UpdateWeights();
  while (true) {
    bool changed = false;
    for (int it = 0; it < 2 && iterations_left > 0; ++it, --iterations_left) {
      changed = assign_all();
      apply_moves();
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
      count_group(c);
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
    moves.push_back({static_cast<uint32_t>(farthest_idx),
                     assignment[farthest_idx]});
    assignment[farthest_idx] = num_clusters;
    ++num_clusters;
    apply_moves();
    iterations_left = std::max(iterations_left, 2);  // allow a settle round
  }
  if (!options.ensure_saturation_increase) partition();

  // --- Materialize the partition --------------------------------------
  size_t kept = 0;
  for (const auto& group : groups) kept += group.empty() ? 0 : 1;
  outcome.split = kept >= 2;
  for (uint32_t c = 0; c < num_clusters; ++c) {
    if (groups[c].empty()) continue;
    if (outcome.split && group_stats[c].num_logs == 0) count_group(c);
    outcome.clusters.push_back(std::move(groups[c]));
    outcome.cluster_stats.push_back(std::move(group_stats[c]));
  }
  return outcome;
}

}  // namespace bytebrain
