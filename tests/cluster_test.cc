// Tests for the single clustering process: positional similarity,
// seeding, balanced grouping, early stop, and saturation-improving splits.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "core/cluster.h"
#include "test_logs.h"

namespace bytebrain {
namespace {

std::vector<uint32_t> AllOf(const std::vector<EncodedLog>& logs) {
  std::vector<uint32_t> v(logs.size());
  for (uint32_t i = 0; i < v.size(); ++i) v[i] = i;
  return v;
}

// Canonical form of a partition for comparisons.
std::set<std::set<uint32_t>> Canon(
    const std::vector<std::vector<uint32_t>>& clusters) {
  std::set<std::set<uint32_t>> out;
  for (const auto& c : clusters) out.insert(std::set<uint32_t>(c.begin(), c.end()));
  return out;
}

const ClusterOptions kDefault;

// One clustering step over `members`, given their own position stats as
// the trainer does.
ClusterOutcome Cluster(const std::vector<EncodedLog>& logs,
                       const std::vector<uint32_t>& members, double parent,
                       const ClusterOptions& options, Rng* rng) {
  return SingleClusteringProcess(logs, members,
                                 ComputePositionStats(logs, members), parent,
                                 options, rng);
}

// Eq. 2 positional similarity of a log to a cluster described by
// per-position token frequencies, in its textbook form (hash maps, no
// cached terms): sum(w_i * f_i) / sum(w_i), f_i = relative frequency of
// the log's token at position i, w_i = 1/(n_i - 1) (capped at 2 for
// constant positions) or 1 without position importance. Returns a value
// in [0, 1].
class ClusterProfile {
 public:
  ClusterProfile(const std::vector<uint32_t>& active_positions,
                 const std::vector<EncodedLog>& logs)
      : active_(active_positions),
        logs_(logs),
        freq_(active_positions.size()) {}

  void Add(uint32_t member) {
    for (size_t k = 0; k < active_.size(); ++k) {
      freq_[k][logs_[member].tokens[active_[k]]]++;
    }
    ++size_;
  }

  double Similarity(const EncodedLog& log, bool use_position_importance) const {
    if (size_ == 0 || active_.empty()) return 0.0;
    double weighted = 0.0;
    double total_weight = 0.0;
    for (size_t k = 0; k < active_.size(); ++k) {
      const auto& f = freq_[k];
      const auto it = f.find(log.tokens[active_[k]]);
      const double fi =
          it == f.end() ? 0.0 : static_cast<double>(it->second) / size_;
      double wi = 1.0;
      if (use_position_importance) {
        wi = f.size() <= 1 ? 2.0 : 1.0 / static_cast<double>(f.size() - 1);
      }
      weighted += wi * fi;
      total_weight += wi;
    }
    return total_weight > 0.0 ? weighted / total_weight : 0.0;
  }

 private:
  const std::vector<uint32_t>& active_;
  const std::vector<EncodedLog>& logs_;
  // freq_[k] maps token -> count at active position k.
  std::vector<std::unordered_map<uint64_t, uint32_t>> freq_;
  uint32_t size_ = 0;
};

TEST(ClusterProfileTest, SimilarityFavorsMatchingTokens) {
  auto logs = MakeLogs({{"open", "a"}, {"open", "b"}, {"close", "c"}});
  std::vector<uint32_t> active = {0, 1};
  ClusterProfile profile(active, logs);
  profile.Add(0);
  profile.Add(1);
  // Log 0 shares "open" with the cluster; log 2 shares nothing.
  const double in_sim = profile.Similarity(logs[0], true);
  const double out_sim = profile.Similarity(logs[2], true);
  EXPECT_GT(in_sim, out_sim);
  EXPECT_GE(in_sim, 0.0);
  EXPECT_LE(in_sim, 1.0);
}

TEST(ClusterProfileTest, SingletonClusterSimilarityIsMatchFraction) {
  auto logs = MakeLogs({{"a", "b", "c"}, {"a", "b", "z"}, {"x", "y", "z"}});
  std::vector<uint32_t> active = {0, 1, 2};
  ClusterProfile profile(active, logs);
  profile.Add(0);
  // All positions constant in a singleton: every weight is the cap, so
  // similarity = fraction of equal positions.
  EXPECT_DOUBLE_EQ(profile.Similarity(logs[1], true), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(profile.Similarity(logs[2], true), 0.0);
}

TEST(ClusterProfileTest, PositionImportanceDownweightsVolatilePositions) {
  // Position 0: two values ("open"/"close"). Position 1: many values.
  // A log agreeing only on the volatile position must score lower than a
  // log agreeing only on the stable position when importance is on.
  auto logs = MakeLogs({{"open", "v1"}, {"open", "v2"}, {"open", "v3"},
                        {"open", "v4"},
                        {"close", "v1"},   // agrees only at volatile pos 1
                        {"open", "v9"}});  // agrees only at stable pos 0
  std::vector<uint32_t> active = {0, 1};
  ClusterProfile profile(active, logs);
  for (uint32_t m : {0u, 1u, 2u, 3u}) profile.Add(m);
  const double volatile_agree = profile.Similarity(logs[4], true);
  const double stable_agree = profile.Similarity(logs[5], true);
  EXPECT_GT(stable_agree, volatile_agree);
}

TEST(ClusterTest, TwoLogsSplitIntoSingletons) {
  auto logs = MakeLogs({{"a", "x", "1"}, {"b", "y", "2"}});
  Rng rng(7);
  auto outcome =
      Cluster(logs, AllOf(logs), 0.0, kDefault, &rng);
  ASSERT_TRUE(outcome.split);
  EXPECT_EQ(Canon(outcome.clusters),
            (std::set<std::set<uint32_t>>{{0}, {1}}));
}

TEST(ClusterTest, SingleMemberNeverSplits) {
  auto logs = MakeLogs({{"a", "b"}});
  Rng rng(7);
  auto outcome = Cluster(logs, {0}, 0.0, kDefault, &rng);
  EXPECT_FALSE(outcome.split);
}

TEST(ClusterTest, FullyResolvedGroupDoesNotSplit) {
  auto logs = MakeLogs({{"a", "b"}, {"a", "b"}});
  Rng rng(7);
  auto outcome =
      Cluster(logs, AllOf(logs), 1.0, kDefault, &rng);
  EXPECT_FALSE(outcome.split);
}

TEST(ClusterTest, EarlyStopSingleUnresolvedPositionBecomesLeaf) {
  // Only the last position varies (2 values over 4 logs): splitting on a
  // single position is pointless (§4.7 case 2).
  auto logs = MakeLogs({{"k", "s", "a"}, {"k", "s", "a"}, {"k", "s", "b"},
                        {"k", "s", "b"}});
  Rng rng(7);
  const double parent = ComputeSaturation(logs, AllOf(logs), {});
  auto outcome =
      Cluster(logs, AllOf(logs), parent, kDefault, &rng);
  EXPECT_FALSE(outcome.split);
}

TEST(ClusterTest, EarlyStopCompletelyDistinctSplitsToSingletons) {
  // Both unresolved positions are distinct in every log (§4.7 case 3).
  auto logs = MakeLogs({{"k", "a1", "b1"}, {"k", "a2", "b2"},
                        {"k", "a3", "b3"}, {"k", "a4", "b4"}});
  Rng rng(7);
  const double parent = ComputeSaturation(logs, AllOf(logs), {});
  auto outcome =
      Cluster(logs, AllOf(logs), parent, kDefault, &rng);
  ASSERT_TRUE(outcome.split);
  EXPECT_EQ(outcome.clusters.size(), 4u);
  for (const auto& c : outcome.clusters) EXPECT_EQ(c.size(), 1u);
}

TEST(ClusterTest, SeparatesTwoObviousStructures) {
  auto logs = MakeLogs({{"open", "conn", "1", "ok"},
                        {"open", "conn", "2", "ok"},
                        {"open", "conn", "3", "ok"},
                        {"close", "sess", "4", "err"},
                        {"close", "sess", "5", "err"},
                        {"close", "sess", "6", "err"}});
  Rng rng(42);
  const double parent = ComputeSaturation(logs, AllOf(logs), {});
  auto outcome =
      Cluster(logs, AllOf(logs), parent, kDefault, &rng);
  ASSERT_TRUE(outcome.split);
  EXPECT_EQ(Canon(outcome.clusters),
            (std::set<std::set<uint32_t>>{{0, 1, 2}, {3, 4, 5}}));
}

TEST(ClusterTest, PartitionIsAlwaysComplete) {
  // Property: whatever the input, the output clusters partition the
  // members exactly (no loss, no duplication).
  auto logs = MakeLogs({{"a", "1", "x"}, {"a", "2", "x"}, {"b", "3", "y"},
                        {"b", "4", "y"}, {"c", "5", "z"}, {"a", "6", "x"},
                        {"b", "7", "y"}, {"c", "8", "w"}});
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const double parent = ComputeSaturation(logs, AllOf(logs), {});
    auto outcome =
        Cluster(logs, AllOf(logs), parent, kDefault, &rng);
    if (!outcome.split) continue;
    std::vector<uint32_t> all;
    for (const auto& c : outcome.clusters) {
      EXPECT_FALSE(c.empty());
      all.insert(all.end(), c.begin(), c.end());
    }
    std::sort(all.begin(), all.end());
    EXPECT_EQ(all, AllOf(logs));
  }
}

TEST(ClusterTest, KeptClustersImproveSaturation) {
  auto logs = MakeLogs({{"put", "obj", "1"}, {"put", "obj", "2"},
                        {"get", "obj", "3"}, {"get", "obj", "4"},
                        {"del", "idx", "5"}, {"del", "idx", "6"}});
  Rng rng(3);
  const double parent = ComputeSaturation(logs, AllOf(logs), {});
  auto outcome =
      Cluster(logs, AllOf(logs), parent, kDefault, &rng);
  ASSERT_TRUE(outcome.split);
  for (const auto& c : outcome.clusters) {
    EXPECT_GT(ComputeSaturation(logs, c, {}), parent);
  }
}

TEST(ClusterTest, BalancedGroupingSpreadsTies) {
  // Logs equidistant to both seed clusters: with balanced grouping the
  // tie-break is random, so across many seeds both clusters receive
  // tied logs; without it the first cluster always wins.
  auto logs = MakeLogs({{"a", "x"}, {"b", "y"}, {"c", "z"}, {"d", "w"},
                        {"e", "v"}, {"f", "u"}});
  int unbalanced_spread = 0;
  int balanced_spread = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    for (bool balanced : {false, true}) {
      ClusterOptions opts = kDefault;
      opts.balanced_grouping = balanced;
      opts.early_stop = false;  // force the general path
      Rng rng(seed);
      auto outcome = Cluster(logs, AllOf(logs), 0.0, opts, &rng);
      if (!outcome.split) continue;
      size_t max_cluster = 0;
      for (const auto& c : outcome.clusters) {
        max_cluster = std::max(max_cluster, c.size());
      }
      // "Spread" when no cluster dominates with everything-minus-seeds.
      const bool spread = max_cluster < logs.size() - 1;
      if (balanced) {
        balanced_spread += spread ? 1 : 0;
      } else {
        unbalanced_spread += spread ? 1 : 0;
      }
    }
  }
  EXPECT_GE(balanced_spread, unbalanced_spread);
}

TEST(ClusterTest, DisablingEarlyStopStillTerminates) {
  auto logs = MakeLogs({{"k", "a1", "b1"}, {"k", "a2", "b2"},
                        {"k", "a3", "b3"}});
  ClusterOptions opts = kDefault;
  opts.early_stop = false;
  Rng rng(11);
  const double parent = ComputeSaturation(logs, AllOf(logs), {});
  auto outcome = Cluster(logs, AllOf(logs), parent, opts, &rng);
  // Must return (terminate); exact partition is secondary.
  if (outcome.split) {
    size_t total = 0;
    for (const auto& c : outcome.clusters) total += c.size();
    EXPECT_EQ(total, logs.size());
  }
}

TEST(ClusterTest, WithoutEnsureSaturationAcceptsTwoWaySplit) {
  auto logs = MakeLogs({{"k", "s", "a"}, {"k", "s", "b"}, {"k", "s", "a"},
                        {"k", "s", "b"}});
  ClusterOptions opts = kDefault;
  opts.ensure_saturation_increase = false;
  opts.early_stop = false;
  Rng rng(5);
  auto outcome = Cluster(logs, AllOf(logs), 0.9, opts, &rng);
  // The variant always accepts the k-means result even if saturation
  // would not improve.
  EXPECT_TRUE(outcome.split);
}

TEST(ClusterTest, DeterministicGivenSeed) {
  auto logs = MakeLogs({{"a", "1", "p"}, {"a", "2", "p"}, {"b", "3", "q"},
                        {"b", "4", "q"}, {"a", "5", "p"}});
  const double parent = ComputeSaturation(logs, AllOf(logs), {});
  Rng rng1(99);
  Rng rng2(99);
  auto a = Cluster(logs, AllOf(logs), parent, kDefault, &rng1);
  auto b = Cluster(logs, AllOf(logs), parent, kDefault, &rng2);
  EXPECT_EQ(a.split, b.split);
  EXPECT_EQ(Canon(a.clusters), Canon(b.clusters));
}

// FNV-1a over 64-bit words.
void Fold(uint64_t* h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    *h ^= (v >> (8 * b)) & 0xff;
    *h *= 0x100000001b3ULL;
  }
}

// Distinct rows over a tiny vocabulary: many members score exactly alike
// against several clusters (multi-way ties that balanced grouping breaks
// with RNG draws), and some rounds move every member out of a cluster.
// Only the first `varying` positions vary. With `with_id`, a last
// position unique per row is a confirmed variable in groups of 50 or
// more, which the clusterer skips, so rows equal elsewhere tie everywhere.
std::vector<std::vector<std::string>> TieRows(Rng* rng, size_t n, size_t m,
                                              size_t varying, uint32_t vocab,
                                              bool with_id = false) {
  std::set<std::vector<std::string>> seen;
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::string> row;
    for (size_t p = 0; p < m; ++p) {
      const uint64_t v = p < varying ? rng->NextBelow(vocab) : 0;
      row.push_back("p" + std::to_string(p) + "v" + std::to_string(v));
    }
    if (with_id) row.push_back("id" + std::to_string(i));
    if (seen.insert(row).second) rows.push_back(std::move(row));
  }
  return rows;
}

void FoldOutcome(uint64_t* h, const ClusterOutcome& outcome) {
  Fold(h, outcome.split);
  for (size_t c = 0; c < outcome.clusters.size(); ++c) {
    Fold(h, outcome.clusters[c].size());
    for (uint32_t member : outcome.clusters[c]) Fold(h, member);
    const PositionStats& stats = outcome.cluster_stats[c];
    Fold(h, stats.num_logs);
    Fold(h, stats.num_constant);
    Fold(h, stats.num_variable);
    for (uint32_t d : stats.distinct) Fold(h, d);
  }
}

struct Variant {
  const char* name;
  void (*configure)(ClusterOptions*);
  uint64_t digest;
};

TEST(ClusterTest, OutcomesMatchRecordedValuesUnderEveryOption) {
  // The cached similarities rescore only the clusters a move touched,
  // which must not change a partition, a cluster's stats or how often
  // the RNG is drawn. The digests (clusters, their stats and the RNG's
  // next output, over 420 random tie-heavy corpora) were recorded from
  // the clusterer that rescored every profile for every member in every
  // round. Across the corpora, balanced grouping draws the RNG on
  // thousands of ties, and moves empty clusters under the defaults,
  // without balanced grouping and without early stop.
  const Variant kVariants[] = {
      {"defaults", [](ClusterOptions*) {}, 0x098783a18b522882ULL},
      {"no_position_importance",
       [](ClusterOptions* o) { o->use_position_importance = false; },
       0xebb17efbf571c8daULL},
      {"no_balanced_grouping",
       [](ClusterOptions* o) { o->balanced_grouping = false; },
       0xa3067ad75d6d6681ULL},
      {"no_kmeanspp_seeding",
       [](ClusterOptions* o) { o->kmeanspp_seeding = false; },
       0xaa48a7ff883ae437ULL},
      {"no_ensure_saturation_increase",
       [](ClusterOptions* o) { o->ensure_saturation_increase = false; },
       0x5d3fd55fced27db3ULL},
      {"no_early_stop", [](ClusterOptions* o) { o->early_stop = false; },
       0xcdb8aa2a8aaa8604ULL},
  };
  Rng corpus_rng(2024);
  std::vector<std::vector<EncodedLog>> corpora;
  for (int trial = 0; trial < 400; ++trial) {
    const size_t n = 4 + corpus_rng.NextBelow(trial % 2 ? 40 : 200);
    const size_t m = 2 + corpus_rng.NextBelow(4);
    const uint32_t vocab = 2 + static_cast<uint32_t>(corpus_rng.NextBelow(3));
    const bool with_id = corpus_rng.NextBelow(2) == 1;
    if (trial % 20 == 19) {
      // Early-stop shapes: one varying position, or all-distinct logs.
      corpora.push_back(MakeLogs(TieRows(&corpus_rng, n, m, 1, vocab)));
      corpora.push_back(MakeLogs(TieRows(&corpus_rng, 3, m, m, 1000)));
      continue;
    }
    corpora.push_back(
        MakeLogs(TieRows(&corpus_rng, n, m, m, vocab, with_id)));
  }
  for (const Variant& variant : kVariants) {
    ClusterOptions options;
    variant.configure(&options);
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t t = 0; t < corpora.size(); ++t) {
      const std::vector<EncodedLog>& logs = corpora[t];
      const std::vector<uint32_t> members = AllOf(logs);
      if (members.size() < 2) continue;
      const double parent = ComputeSaturation(logs, members, {});
      Rng rng(t * 7919 + 1);
      const ClusterOutcome outcome =
          Cluster(logs, members, parent, options, &rng);
      FoldOutcome(&h, outcome);
      Fold(&h, rng.Next());
    }
    EXPECT_EQ(h, variant.digest)
        << variant.name << ": 0x" << std::hex << h;
  }
}

TEST(ClusterTest, GroupTooLargeToCacheMatchesRecordedValues) {
  // 182,210 distinct rows: the similarity matrix (at most 2^19 values)
  // holds the columns of the first two clusters only, so the three
  // later ones are scored on every read. Digests as above, recorded
  // from the clusterer that cached nothing.
  const Variant kVariants[] = {
      {"defaults", [](ClusterOptions*) {}, 0xebf14cc928e127b5ULL},
      {"no_position_importance",
       [](ClusterOptions* o) { o->use_position_importance = false; },
       0xebf14cc928e127b5ULL},
      {"no_balanced_grouping",
       [](ClusterOptions* o) { o->balanced_grouping = false; },
       0x39e127f8b49d7a9bULL},
      {"no_kmeanspp_seeding",
       [](ClusterOptions* o) { o->kmeanspp_seeding = false; },
       0x6ec2eb8f0e6beb4eULL},
      {"no_ensure_saturation_increase",
       [](ClusterOptions* o) { o->ensure_saturation_increase = false; },
       0x43469dccad0f3590ULL},
      {"no_early_stop", [](ClusterOptions* o) { o->early_stop = false; },
       0xebf14cc928e127b5ULL},
  };
  Rng corpus_rng(1);
  const std::vector<EncodedLog> logs =
      MakeLogs(TieRows(&corpus_rng, 200000, 10, 10, 4));
  const std::vector<uint32_t> members = AllOf(logs);
  ASSERT_EQ(members.size(), 182210u);
  const double parent = ComputeSaturation(logs, members, {});
  for (const Variant& variant : kVariants) {
    ClusterOptions options;
    variant.configure(&options);
    Rng rng(7);
    const ClusterOutcome outcome =
        Cluster(logs, members, parent, options, &rng);
    if (options.ensure_saturation_increase) {
      EXPECT_EQ(outcome.clusters.size(), 5u) << variant.name;
    }
    uint64_t h = 0xcbf29ce484222325ULL;
    FoldOutcome(&h, outcome);
    Fold(&h, rng.Next());
    EXPECT_EQ(h, variant.digest)
        << variant.name << ": 0x" << std::hex << h;
  }
}

}  // namespace
}  // namespace bytebrain
