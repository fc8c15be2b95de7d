// End-to-end tests for Trainer + TemplateMatcher + ByteBrainParser:
// training produces sound trees, matching agrees with training
// assignments (the §5.4.1 claim), thresholds adjust precision, and
// unmatched logs are adopted.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/parser.h"
#include "datagen/generator.h"

namespace bytebrain {
namespace {

std::vector<std::string> SshLikeLogs() {
  std::vector<std::string> logs;
  for (int i = 0; i < 40; ++i) {
    logs.push_back("Accepted password for user" + std::to_string(i % 7) +
                   " from 10.0.0." + std::to_string(i % 13 + 1) + " port " +
                   std::to_string(40000 + i) + " ssh2");
    logs.push_back("Failed password for user" + std::to_string(i % 5) +
                   " from 10.0.1." + std::to_string(i % 11 + 1) + " port " +
                   std::to_string(50000 + i) + " ssh2");
    if (i % 4 == 0) {
      logs.push_back("session opened for user root");
    }
  }
  return logs;
}

ByteBrainOptions DefaultOptions() {
  ByteBrainOptions opts;
  opts.trainer.num_threads = 2;
  opts.trainer.preprocess.num_threads = 2;
  return opts;
}

TEST(TrainerTest, EmptyInputYieldsEmptyModel) {
  Trainer trainer(TrainerOptions{});
  auto out =
      trainer.Train(std::vector<std::string>{}, VariableReplacer::Default());
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->model.empty());
  EXPECT_TRUE(out->assignments.empty());
}

TEST(TrainerTest, EveryLogGetsALeafAssignment) {
  Trainer trainer(TrainerOptions{});
  auto logs = SshLikeLogs();
  auto out = trainer.Train(logs, VariableReplacer::Default());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->assignments.size(), logs.size());
  for (TemplateId id : out->assignments) {
    ASSERT_NE(id, kInvalidTemplateId);
    EXPECT_NE(out->model.node(id), nullptr);
  }
}

TEST(TrainerTest, SaturationStrictlyIncreasesDownTheTree) {
  Trainer trainer(TrainerOptions{});
  auto out = trainer.Train(SshLikeLogs(), VariableReplacer::Default());
  ASSERT_TRUE(out.ok());
  for (const TreeNode& n : out->model.nodes()) {
    if (n.parent == kInvalidTemplateId) continue;
    const TreeNode* parent = out->model.node(n.parent);
    ASSERT_NE(parent, nullptr);
    EXPECT_GE(n.saturation, parent->saturation)
        << "node " << n.id << " under " << parent->id;
  }
}

TEST(TrainerTest, SupportSumsToInputCount) {
  Trainer trainer(TrainerOptions{});
  auto logs = SshLikeLogs();
  auto out = trainer.Train(logs, VariableReplacer::Default());
  ASSERT_TRUE(out.ok());
  uint64_t root_support = 0;
  for (TemplateId r : out->model.roots()) {
    root_support += out->model.node(r)->support;
  }
  EXPECT_EQ(root_support, logs.size());
}

TEST(TrainerTest, ChildrenSupportNeverExceedsParent) {
  Trainer trainer(TrainerOptions{});
  auto out = trainer.Train(SshLikeLogs(), VariableReplacer::Default());
  ASSERT_TRUE(out.ok());
  for (const TreeNode& n : out->model.nodes()) {
    if (n.children.empty()) continue;
    uint64_t child_sum = 0;
    for (TemplateId c : n.children) {
      child_sum += out->model.node(c)->support;
    }
    EXPECT_LE(child_sum, n.support);
  }
}

TEST(TrainerTest, TemplatesSeparateAcceptedFromFailed) {
  Trainer trainer(TrainerOptions{});
  auto logs = SshLikeLogs();
  auto out = trainer.Train(logs, VariableReplacer::Default());
  ASSERT_TRUE(out.ok());
  // Accepted and Failed logs must never share a leaf template (their
  // first token differs).
  std::set<TemplateId> accepted_ids;
  std::set<TemplateId> failed_ids;
  for (size_t i = 0; i < logs.size(); ++i) {
    if (logs[i].rfind("Accepted", 0) == 0) {
      accepted_ids.insert(out->assignments[i]);
    } else if (logs[i].rfind("Failed", 0) == 0) {
      failed_ids.insert(out->assignments[i]);
    }
  }
  for (TemplateId id : accepted_ids) EXPECT_EQ(failed_ids.count(id), 0u);
}

TEST(TrainerTest, SamplingCapBoundsTraining) {
  TrainerOptions opts;
  opts.max_train_logs = 20;
  Trainer trainer(opts);
  auto logs = SshLikeLogs();
  auto out = trainer.Train(logs, VariableReplacer::Default());
  ASSERT_TRUE(out.ok());
  EXPECT_LE(out->total_logs, 20u);
  // Non-sampled logs keep invalid assignments; sampled ones are assigned.
  size_t assigned = 0;
  for (TemplateId id : out->assignments) {
    if (id != kInvalidTemplateId) ++assigned;
  }
  EXPECT_EQ(assigned, 20u);
}

TEST(TrainerTest, DedupPreservesAssignments) {
  // With and without dedup, logs of the same shape get one leaf.
  auto logs = SshLikeLogs();
  TrainerOptions no_dedup;
  no_dedup.preprocess.deduplicate = false;
  Trainer t1(TrainerOptions{});
  Trainer t2(no_dedup);
  auto a = t1.Train(logs, VariableReplacer::Default());
  auto b = t2.Train(logs, VariableReplacer::Default());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Identical raw logs must map to identical templates in each run.
  std::map<std::string, std::set<TemplateId>> by_text_a;
  std::map<std::string, std::set<TemplateId>> by_text_b;
  for (size_t i = 0; i < logs.size(); ++i) {
    by_text_a[logs[i]].insert(a->assignments[i]);
    by_text_b[logs[i]].insert(b->assignments[i]);
  }
  for (const auto& [text, ids] : by_text_a) EXPECT_EQ(ids.size(), 1u) << text;
  for (const auto& [text, ids] : by_text_b) EXPECT_EQ(ids.size(), 1u) << text;
}

TEST(MatcherTest, MatchAgreesWithTrainingAssignments) {
  // §5.4.1: text-based matching reproduces clustering assignments almost
  // exactly. On this clean corpus we require full agreement of the
  // induced partitions (same group <=> same template).
  ByteBrainParser parser(DefaultOptions());
  auto logs = SshLikeLogs();
  ASSERT_TRUE(parser.Train(logs).ok());
  auto matched = parser.MatchAll(logs, 2);
  const auto& assigned = parser.training_assignments();
  std::map<TemplateId, TemplateId> bijection;
  for (size_t i = 0; i < logs.size(); ++i) {
    ASSERT_NE(matched[i], kInvalidTemplateId) << logs[i];
    auto [it, inserted] = bijection.emplace(assigned[i], matched[i]);
    EXPECT_EQ(it->second, matched[i]) << logs[i];
  }
}

TEST(MatcherTest, MatchesPreferHigherSaturation) {
  ByteBrainParser parser(DefaultOptions());
  auto logs = SshLikeLogs();
  ASSERT_TRUE(parser.Train(logs).ok());
  const TemplateId id = parser.Match(
      "Accepted password for user1 from 10.0.0.2 port 40001 ssh2");
  ASSERT_NE(id, kInvalidTemplateId);
  const TreeNode* n = parser.model().node(id);
  ASSERT_NE(n, nullptr);
  // The matched node must be maximally precise (a leaf).
  EXPECT_TRUE(n->is_leaf());
}

TEST(MatcherTest, NoMatchForUnseenShape) {
  ByteBrainParser parser(DefaultOptions());
  ASSERT_TRUE(parser.Train(SshLikeLogs()).ok());
  EXPECT_EQ(parser.Match("completely different structure with nine tokens"),
            kInvalidTemplateId);
}

TEST(MatcherTest, UntrainedParserMatchesNothing) {
  ByteBrainParser parser(DefaultOptions());
  EXPECT_EQ(parser.Match("anything"), kInvalidTemplateId);
  auto all = parser.MatchAll(std::vector<std::string>{"a", "b"}, 1);
  EXPECT_EQ(all[0], kInvalidTemplateId);
}

TEST(ParserTest, MatchOrAdoptInsertsTemporary) {
  ByteBrainParser parser(DefaultOptions());
  ASSERT_TRUE(parser.Train(SshLikeLogs()).ok());
  const size_t before = parser.model().size();
  const TemplateId adopted =
      parser.MatchOrAdopt("brand new shape never seen at training");
  ASSERT_NE(adopted, kInvalidTemplateId);
  EXPECT_EQ(parser.model().size(), before + 1);
  EXPECT_TRUE(parser.model().node(adopted)->temporary);
  // The same shape now matches without creating another template.
  const TemplateId again =
      parser.MatchOrAdopt("brand new shape never seen at training");
  EXPECT_EQ(again, adopted);
  EXPECT_EQ(parser.model().size(), before + 1);
  // Same shape, different variables: the temporary template is literal,
  // so an exact-token match is required.
  EXPECT_EQ(parser.Match("brand new shape never seen at training"), adopted);
}

TEST(ParserTest, AdoptionDoesNotDisturbExistingMatching) {
  // The incremental matcher insert must leave every previously-matching
  // log matching the same template.
  ByteBrainParser parser(DefaultOptions());
  auto logs = SshLikeLogs();
  ASSERT_TRUE(parser.Train(logs).ok());
  auto before = parser.MatchAll(logs, 1);
  for (int i = 0; i < 10; ++i) {
    parser.MatchOrAdopt("adopted shape number " + std::to_string(i) +
                        " with unique words");
  }
  auto after = parser.MatchAll(logs, 1);
  EXPECT_EQ(before, after);
  // And the adopted shapes keep matching their own templates.
  const TemplateId a =
      parser.MatchOrAdopt("adopted shape number 3 with unique words");
  EXPECT_TRUE(parser.model().node(a)->temporary);
}

TEST(ParserTest, ThresholdControlsPrecision) {
  ByteBrainParser parser(DefaultOptions());
  auto logs = SshLikeLogs();
  ASSERT_TRUE(parser.Train(logs).ok());
  const TemplateId leaf = parser.Match(
      "Failed password for user2 from 10.0.1.3 port 50002 ssh2");
  ASSERT_NE(leaf, kInvalidTemplateId);
  auto coarse = parser.ResolveAtThreshold(leaf, 0.05);
  auto fine = parser.ResolveAtThreshold(leaf, 0.99);
  ASSERT_TRUE(coarse.ok());
  ASSERT_TRUE(fine.ok());
  const TreeNode* c = parser.model().node(coarse.value());
  const TreeNode* f = parser.model().node(fine.value());
  EXPECT_LE(c->saturation, f->saturation);
  // The coarse template must be an ancestor-or-self of the fine one.
  TemplateId walk = fine.value();
  bool found = walk == coarse.value();
  while (!found && walk != kInvalidTemplateId) {
    walk = parser.model().node(walk)->parent;
    found = walk == coarse.value();
  }
  EXPECT_TRUE(found);
}

TEST(ParserTest, RetrainMergesNewPatterns) {
  ByteBrainParser parser(DefaultOptions());
  ASSERT_TRUE(parser.Train(SshLikeLogs()).ok());
  EXPECT_EQ(parser.Match("kernel panic on cpu 3"), kInvalidTemplateId);
  std::vector<std::string> new_logs;
  for (int i = 0; i < 20; ++i) {
    new_logs.push_back("kernel panic on cpu " + std::to_string(i));
  }
  ASSERT_TRUE(parser.Retrain(new_logs).ok());
  // Old and new patterns both match after the merge.
  EXPECT_NE(parser.Match("kernel panic on cpu 9"), kInvalidTemplateId);
  EXPECT_NE(parser.Match(
                "Accepted password for user3 from 10.0.0.4 port 40009 ssh2"),
            kInvalidTemplateId);
}

TEST(ParserTest, RetrainDropsTemporaries) {
  ByteBrainParser parser(DefaultOptions());
  ASSERT_TRUE(parser.Train(SshLikeLogs()).ok());
  parser.MatchOrAdopt("kernel panic on cpu 1");
  std::vector<std::string> new_logs;
  for (int i = 0; i < 20; ++i) {
    new_logs.push_back("kernel panic on cpu " + std::to_string(i));
  }
  ASSERT_TRUE(parser.Retrain(new_logs).ok());
  for (const TreeNode& n : parser.model().nodes()) {
    EXPECT_FALSE(n.temporary);
  }
  // The adopted shape is now covered by a learned template.
  EXPECT_NE(parser.Match("kernel panic on cpu 77"), kInvalidTemplateId);
}

TEST(ParserTest, UserVariableRuleImprovesGeneralization) {
  ByteBrainOptions opts = DefaultOptions();
  ByteBrainParser parser(opts);
  ASSERT_TRUE(parser.AddVariableRule("blk", "blk_\\d+").ok());
  std::vector<std::string> logs;
  for (int i = 0; i < 30; ++i) {
    logs.push_back("Received block blk_" + std::to_string(1000000 + i) +
                   " of size " + std::to_string(512 + i));
  }
  ASSERT_TRUE(parser.Train(logs).ok());
  // An unseen block id must still match thanks to the rule.
  const TemplateId id =
      parser.Match("Received block blk_99999999 of size 4096");
  EXPECT_NE(id, kInvalidTemplateId);
}

TEST(ParserTest, TrainingAssignmentsMatchNaiveMatchSemantics) {
  // The naive_match option exposes training assignments; both paths must
  // induce the same grouping on the training set for this clean corpus.
  ByteBrainOptions opts = DefaultOptions();
  opts.naive_match = true;
  ByteBrainParser parser(opts);
  auto logs = SshLikeLogs();
  ASSERT_TRUE(parser.Train(logs).ok());
  EXPECT_EQ(parser.training_assignments().size(), logs.size());
}

TEST(ParserTest, DeterministicModelAcrossRuns) {
  auto logs = SshLikeLogs();
  ByteBrainParser p1(DefaultOptions());
  ByteBrainParser p2(DefaultOptions());
  ASSERT_TRUE(p1.Train(logs).ok());
  ASSERT_TRUE(p2.Train(logs).ok());
  EXPECT_EQ(p1.model().size(), p2.model().size());
  EXPECT_EQ(p1.model().Serialize(), p2.model().Serialize());
}

TEST(ParserTest, WorksOnGeneratedDatasets) {
  // Smoke: train + match across several generated datasets; every
  // training log must match SOME template online.
  for (const char* name : {"HDFS", "Apache", "Zookeeper"}) {
    DatasetGenerator gen(*FindDatasetSpec(name));
    Dataset ds = gen.GenerateLogHub();
    std::vector<std::string> logs;
    logs.reserve(ds.logs.size());
    for (auto& l : ds.logs) logs.push_back(l.text);
    ByteBrainParser parser(DefaultOptions());
    ASSERT_TRUE(parser.Train(logs).ok()) << name;
    auto matched = parser.MatchAll(logs, 2);
    size_t misses = 0;
    for (TemplateId id : matched) {
      if (id == kInvalidTemplateId) ++misses;
    }
    EXPECT_EQ(misses, 0u) << name;
  }
}

// FNV-1a over raw bytes: a digest owned by the test, so it cannot drift
// with the library's own hash functions.
uint64_t Digest(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ParserTest, GoldenOutputAtEveryThreadCount) {
  // Training schedules initial groups across threads and reuses
  // per-thread scratch; none of that may change a byte of the result.
  // The digests were recorded from the sequential-block scheduler with
  // per-node recounted statistics, on the three LogHub-2.0 specs with
  // the most skewed initial groups (one group holding most of the work).
  struct Golden {
    const char* name;
    uint64_t model;        // model().Serialize()
    uint64_t assignments;  // training_assignments()
    uint64_t matches;      // MatchAll ids
  };
  const Golden kGolden[] = {
      {"Linux", 0x9402f3b08aa2bb61ULL, 0xef75ad1d070b6f2aULL,
       0xfb22b472c9f241b0ULL},
      {"BGL", 0xf869a252571043f4ULL, 0x702a346080017cdfULL,
       0x9e05107ba3a1dfc5ULL},
      {"Spark", 0x53032cbb7ac4c546ULL, 0x7623a66ae1293166ULL,
       0xad44eb3eb8372200ULL},
  };
  for (const Golden& golden : kGolden) {
    const DatasetSpec* spec = FindDatasetSpec(golden.name);
    ASSERT_NE(spec, nullptr) << golden.name;
    GenOptions gen;
    gen.num_logs = 8000;
    gen.num_templates = spec->loghub2_templates;
    gen.seed_salt = 2;
    Dataset ds = DatasetGenerator(*spec).Generate(gen);
    std::vector<std::string> logs;
    logs.reserve(ds.logs.size());
    for (auto& l : ds.logs) logs.push_back(std::move(l.text));
    for (int threads : {1, 2, 4}) {
      ByteBrainOptions opts;
      opts.trainer.num_threads = threads;
      opts.trainer.preprocess.num_threads = threads;
      ByteBrainParser parser(opts);
      ASSERT_TRUE(parser.Train(logs).ok());
      const std::string model = parser.model().Serialize();
      const std::vector<TemplateId>& assigned = parser.training_assignments();
      const std::vector<TemplateId> matched = parser.MatchAll(logs, threads);
      EXPECT_EQ(Digest(model.data(), model.size()), golden.model)
          << golden.name << " threads=" << threads;
      EXPECT_EQ(Digest(assigned.data(), assigned.size() * sizeof(TemplateId)),
                golden.assignments)
          << golden.name << " threads=" << threads;
      EXPECT_EQ(Digest(matched.data(), matched.size() * sizeof(TemplateId)),
                golden.matches)
          << golden.name << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace bytebrain
