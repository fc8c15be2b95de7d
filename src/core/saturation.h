// Saturation score (paper §4.5, Eq. 3).
//
// Saturation measures how fully a group of logs is resolved into
// constants and variables; it controls when hierarchical clustering stops
// and is the precision knob exposed to queries.
//
//   s(C) = (f_v * p_c + (1 - p_c)) * f_c
//
//   f_c = m_c / m            proportion of constant positions
//   f_v = min_i f_v^(i)      variability of the least-variable unresolved
//                            position, f_v^(i) = log(n_u) / log(n)
//   p_c = 1 / (2^(m - m_c) - 1)   confidence factor
//
// plus the Fig.-5 Set-1 rule: a group whose single unresolved position is
// distinct in every log is fully resolved (s = 1) — the position is a
// confirmed variable.
//
// Interpretation note (documented in DESIGN.md): the paper's PDF renders
// the per-position scale ambiguously; f_v^(i) = log(n_u)/log(n) together
// with the Set-1 rule is the reading that reproduces ALL FIVE node labels
// in the paper's Fig. 5 (1.0 / 0.4 / 0.6 / 1.0 / 1.0).
#pragma once

#include <cstdint>
#include <vector>

#include "core/preprocess.h"

namespace bytebrain {

/// Ablation switches for Fig. 8 / Fig. 9.
struct SaturationOptions {
  /// false -> s(C) = f_c ("w/o variable in saturation").
  bool use_variable_term = true;
  /// false -> s(C) = f_v * f_c ("w/o confidence factor").
  bool use_confidence_factor = true;
};

/// Per-group position statistics shared by saturation and the clusterer.
struct PositionStats {
  /// Distinct token count per position.
  std::vector<uint32_t> distinct;
  /// Number of member logs (distinct logs, post-dedup).
  uint32_t num_logs = 0;
  uint32_t num_positions = 0;
  uint32_t num_constant = 0;
  /// Positions confirmed as variables: in large groups (n >= 50), a
  /// position whose distinct-token count reaches sqrt(n) is resolved AS A
  /// VARIABLE — splitting on it "would not generate meaningful templates"
  /// (§4.5). Calibrated against the paper's Table 4, whose 0.9+-threshold
  /// templates keep high-cardinality fields (lock/uid/pid) wildcarded;
  /// without this rule the tree would refine them into literal constants.
  /// Small groups (n < 50) never confirm, preserving the Fig. 5 labels.
  uint32_t num_variable = 0;

  uint32_t num_resolved() const { return num_constant + num_variable; }
  bool fully_resolved() const { return num_resolved() == num_positions; }
  /// True if position i is neither constant nor a confirmed variable.
  bool unresolved(size_t i) const;
};

/// Computes per-position distinct-token counts for `members` (indices into
/// `logs`); all members must share one token count.
PositionStats ComputePositionStats(const std::vector<EncodedLog>& logs,
                                   const std::vector<uint32_t>& members);

/// ComputePositionStats when some counts are already known: `distinct`
/// has one entry per position, and only the zero entries are counted
/// over the (non-empty) `members`.
PositionStats CompletePositionStats(const std::vector<EncodedLog>& logs,
                                    const std::vector<uint32_t>& members,
                                    std::vector<uint32_t> distinct);

/// Saturation from precomputed stats. Groups with <= 1 member or no
/// unresolved positions score exactly 1.0.
double SaturationFromStats(const PositionStats& stats,
                           const SaturationOptions& options);

/// Convenience: stats + score in one call.
double ComputeSaturation(const std::vector<EncodedLog>& logs,
                         const std::vector<uint32_t>& members,
                         const SaturationOptions& options);

}  // namespace bytebrain
