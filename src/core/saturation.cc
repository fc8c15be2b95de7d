#include "core/saturation.h"

#include <algorithm>
#include <bit>
#include <cmath>

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

// Set of 64-bit tokens that only counts distinct insertions: open
// addressing with linear probing at load factor <= 1/2, emptied in O(1)
// by bumping a generation stamp. Reused across positions and calls, so
// counting allocates nothing once the table has grown to the largest
// group seen.
class DistinctCounter {
 public:
  // Empties the set and sizes it for up to `max_distinct` keys.
  void Reset(size_t max_distinct) {
    size_t capacity = 16;
    while (capacity < 2 * max_distinct) capacity <<= 1;
    if (capacity > keys_.size()) {
      keys_.assign(capacity, 0);
      stamps_.assign(capacity, 0);
      generation_ = 0;
    }
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<int>(std::countr_zero(capacity));
    size_ = 0;
    if (++generation_ == 0) {  // stamps wrapped: forget them for real
      std::fill(stamps_.begin(), stamps_.end(), 0);
      generation_ = 1;
    }
  }

  void Insert(uint64_t key) {
    // Fibonacci hashing: ordinal-encoded tokens are small consecutive
    // integers, so the key's high bits must be mixed in.
    size_t slot = static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (stamps_[slot] == generation_) {
      if (keys_[slot] == key) return;
      slot = (slot + 1) & mask_;
    }
    stamps_[slot] = generation_;
    keys_[slot] = key;
    ++size_;
  }

  size_t size() const { return size_; }

 private:
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> stamps_;
  uint32_t generation_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t size_ = 0;
};

}  // namespace

bool PositionStats::unresolved(size_t i) const {
  const uint32_t nu = distinct[i];
  if (nu <= 1) return false;                        // constant
  if (IsConfirmedVariable(nu, num_logs)) return false;  // variable
  return true;
}

PositionStats ComputePositionStats(const std::vector<EncodedLog>& logs,
                                   const std::vector<uint32_t>& members) {
  PositionStats stats;
  stats.num_logs = static_cast<uint32_t>(members.size());
  if (members.empty()) return stats;
  const size_t m = logs[members[0]].tokens.size();
  stats.num_positions = static_cast<uint32_t>(m);
  stats.distinct.resize(m, 0);

  // Training clusters groups on several threads at once; each thread
  // keeps its own counter.
  thread_local DistinctCounter seen;
  for (size_t pos = 0; pos < m; ++pos) {
    seen.Reset(members.size());
    for (uint32_t idx : members) {
      seen.Insert(logs[idx].tokens[pos]);
      // The set cannot exceed the member count; stop early once it shows
      // the position is maximally distinct.
      if (seen.size() == members.size()) break;
    }
    stats.distinct[pos] = static_cast<uint32_t>(seen.size());
    if (seen.size() == 1) {
      ++stats.num_constant;
    } else if (IsConfirmedVariable(stats.distinct[pos], stats.num_logs)) {
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
