#include "core/saturation.h"

#include <algorithm>
#include <cmath>

#include "util/flat_table.h"

namespace bytebrain {

namespace {

// Minimum group size before high-cardinality positions may be confirmed
// as variables (see PositionStats::num_variable). Fig. 5's three-log
// examples must stay below this so the published labels hold.
constexpr uint32_t kMinLogsForVariableConfirmation = 64;

// Cardinality at which a position is confirmed as a variable: it must be
// both absolutely high (structural vocabularies — log levels, actions,
// component names — rarely exceed a few dozen values, identifiers do)
// and distinct in at least HALF the member logs (so a group mixing many
// templates, where a structural position legitimately has dozens of
// values, is not misjudged — cf. Fig. 5 Set 2's correlation argument).
constexpr uint32_t kVariableConfirmationCardinality = 32;

inline bool IsConfirmedVariable(uint32_t distinct, uint32_t num_logs) {
  return num_logs >= kMinLogsForVariableConfirmation &&
         distinct >= kVariableConfirmationCardinality &&
         distinct >= num_logs / 2;
}

}  // namespace

bool PositionStats::unresolved(size_t i) const {
  const uint32_t nu = distinct[i];
  if (nu <= 1) return false;                        // constant
  if (IsConfirmedVariable(nu, num_logs)) return false;  // variable
  return true;
}

PositionStats ComputePositionStats(const std::vector<EncodedLog>& logs,
                                   const std::vector<uint32_t>& members) {
  if (members.empty()) return PositionStats{};
  return CompletePositionStats(
      logs, members,
      std::vector<uint32_t>(logs[members[0]].tokens.size(), 0));
}

PositionStats CompletePositionStats(const std::vector<EncodedLog>& logs,
                                    const std::vector<uint32_t>& members,
                                    std::vector<uint32_t> distinct) {
  PositionStats stats;
  stats.num_logs = static_cast<uint32_t>(members.size());
  stats.num_positions = static_cast<uint32_t>(distinct.size());
  stats.distinct = std::move(distinct);

  // Training clusters groups on several threads at once; each thread
  // keeps its own table, sized once per position for the worst case (every
  // member distinct) so counting never grows it.
  thread_local FlatOrdinalTable<> seen;
  for (size_t pos = 0; pos < stats.num_positions; ++pos) {
    uint32_t& nu = stats.distinct[pos];
    if (nu == 0) {
      seen.Reset(members.size());
      for (uint32_t idx : members) {
        seen.InsertPresized(logs[idx].tokens[pos]);
        // The set cannot exceed the member count; stop early once it
        // shows the position is maximally distinct.
        if (seen.size() == members.size()) break;
      }
      nu = static_cast<uint32_t>(seen.size());
    }
    if (nu == 1) {
      ++stats.num_constant;
    } else if (IsConfirmedVariable(nu, stats.num_logs)) {
      ++stats.num_variable;
    }
  }
  return stats;
}

double SaturationFromStats(const PositionStats& stats,
                           const SaturationOptions& options) {
  if (stats.num_logs <= 1 || stats.num_positions == 0) return 1.0;
  if (stats.num_constant == stats.num_positions) return 1.0;

  const double m = stats.num_positions;

  if (!options.use_variable_term) {
    // Ablation "w/o variable in saturation": only true constants count.
    return stats.num_constant / m;
  }

  if (stats.fully_resolved()) return 1.0;

  // Fig. 5 Set 1: a group whose ONLY unresolved position holds a distinct
  // token in every log is fully resolved — that position is definitively
  // a variable ("the saturation of all three logs is already 1"). With
  // two or more such positions the values may be structurally correlated
  // (Set 2), so the rule does not fire and Eq. 3 applies.
  uint32_t unresolved = 0;
  bool only_full_variables = true;
  for (size_t i = 0; i < stats.distinct.size(); ++i) {
    if (!stats.unresolved(i)) continue;
    ++unresolved;
    if (stats.distinct[i] != stats.num_logs) only_full_variables = false;
  }
  if (unresolved == 0) return 1.0;
  if (unresolved == 1 && only_full_variables) return 1.0;

  // Resolved positions = constants + confirmed variables.
  const double mc = stats.num_resolved();
  const double fc = mc / m;

  // f_v = min over unresolved positions of log(n_u) / log(n), each term in
  // (0, 1] and equal to 1 when the position is distinct in every log.
  // (The paper's PDF renders the scale ambiguously; this reading is the
  // one that reproduces the Fig. 5 node labels — see DESIGN.md.)
  const double log_n = std::log(static_cast<double>(stats.num_logs));
  double fv = 1.0;
  for (size_t i = 0; i < stats.distinct.size(); ++i) {
    if (!stats.unresolved(i)) continue;
    const double term =
        log_n > 0.0
            ? std::log(static_cast<double>(stats.distinct[i])) / log_n
            : 1.0;
    fv = std::min(fv, term);
  }
  fv = std::clamp(fv, 0.0, 1.0);

  if (!options.use_confidence_factor) return fv * fc;

  // p_c = 1 / (2^(m - m_c) - 1); saturates to ~0 for many unresolved
  // positions (guard the shift against overflow).
  const uint32_t unresolved_capped = std::min<uint32_t>(unresolved, 62);
  const double pc =
      1.0 / (static_cast<double>(1ULL << unresolved_capped) - 1.0);
  return (fv * pc + (1.0 - pc)) * fc;
}

double ComputeSaturation(const std::vector<EncodedLog>& logs,
                         const std::vector<uint32_t>& members,
                         const SaturationOptions& options) {
  return SaturationFromStats(ComputePositionStats(logs, members), options);
}

}  // namespace bytebrain
