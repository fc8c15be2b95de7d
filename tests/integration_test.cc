// Cross-module integration tests: the full pipeline on generated
// corpora, model persistence and ancestry, and regressions
// for the many-templates-per-length clustering behavior.
#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "core/parser.h"
#include "datagen/generator.h"
#include "eval/bytebrain_adapter.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "service/log_service.h"

namespace bytebrain {
namespace {

// Regression: a single length-group containing MANY templates must still
// be fully separated. Before the virtual-partition fix, clusters whose
// saturation did not improve were abandoned as giant mixed leaves
// (Thunderbird GA was 0.017).
TEST(ClusteringRegressionTest, ManyTemplatesSharingOneLength) {
  std::vector<std::string> logs;
  std::vector<uint32_t> gt;
  // 60 templates, all 4 tokens long: "svcNN verbNN code=<var>". Value
  // ranges are template-disjoint: positionally-aligned value collisions
  // across templates are the Fig.-5 Set-2 correlation case, which the
  // algorithm deliberately preserves as separate structure.
  for (int t = 0; t < 60; ++t) {
    for (int i = 0; i < 30; ++i) {
      logs.push_back("svc" + std::to_string(t) + " verb" + std::to_string(t) +
                     " code=" + std::to_string(t * 1000 + i));
      gt.push_back(t);
    }
  }
  ByteBrainAdapter adapter(ByteBrainDefaultConfig());
  Dataset ds;
  ds.name = "regression";
  ds.num_templates = 60;
  for (size_t i = 0; i < logs.size(); ++i) {
    ds.logs.push_back({logs[i], gt[i]});
  }
  RunResult r = RunOn(&adapter, ds);
  EXPECT_GE(r.grouping_accuracy, 0.95);
  // No giant mixed group: group count near the template count.
  EXPECT_GE(r.num_groups, 55u);
  EXPECT_LE(r.num_groups, 70u);
}

TEST(IntegrationTest, GeneratedDatasetsHitPaperAccuracyBand) {
  // ByteBrain must reach >= 0.9 GA on representative datasets at both
  // LogHub and scaled LogHub-2.0 sizes (paper: 0.98 / 0.90 averages).
  for (const char* name : {"HDFS", "Zookeeper", "Mac"}) {
    DatasetGenerator gen(*FindDatasetSpec(name));
    Dataset small = gen.GenerateLogHub();
    ByteBrainAdapter a1(ByteBrainDefaultConfig());
    EXPECT_GE(RunOn(&a1, small).grouping_accuracy, 0.9) << name << " LogHub";
  }
}

TEST(IntegrationTest, ModelSurvivesSerializationIntoMatcher) {
  DatasetGenerator gen(*FindDatasetSpec("OpenSSH"));
  Dataset ds = gen.GenerateLogHub();
  std::vector<std::string> logs;
  for (auto& l : ds.logs) logs.push_back(l.text);

  ByteBrainOptions options;
  options.trainer.num_threads = 2;
  ByteBrainParser parser(options);
  ASSERT_TRUE(parser.Train(logs).ok());

  // Serialize, reload, and verify matching behaves identically.
  auto restored = TemplateModel::Deserialize(parser.model().Serialize());
  ASSERT_TRUE(restored.ok());
  VariableReplacer replacer = VariableReplacer::Default();
  TemplateMatcher original_matcher(parser.model(), &replacer);
  TemplateMatcher restored_matcher(restored.value(), &replacer);
  for (size_t i = 0; i < logs.size(); i += 7) {
    EXPECT_EQ(original_matcher.Match(logs[i]), restored_matcher.Match(logs[i]))
        << logs[i];
  }
}

TEST(IntegrationTest, LeafChainsResolveToEachAncestor) {
  DatasetGenerator gen(*FindDatasetSpec("Hadoop"));
  Dataset ds = gen.GenerateLogHub();
  std::vector<std::string> logs;
  for (auto& l : ds.logs) logs.push_back(l.text);

  ByteBrainOptions options;
  options.trainer.num_threads = 2;
  ByteBrainParser parser(options);
  ASSERT_TRUE(parser.Train(logs).ok());
  const TemplateModel& model = parser.model();

  // Every leaf's parent chain reaches a root within size() hops with
  // non-increasing saturation toward the root, and resolving the leaf at
  // an ancestor's saturation lands on that ancestor: queries move
  // between precision levels through the model alone.
  for (const TreeNode& leaf : model.nodes()) {
    if (!leaf.is_leaf()) continue;
    std::vector<const TreeNode*> chain = {&leaf};
    while (chain.back()->parent != kInvalidTemplateId &&
           chain.size() <= model.size()) {
      const TreeNode* parent = model.node(chain.back()->parent);
      ASSERT_NE(parent, nullptr) << "dangling parent of " << chain.back()->id;
      chain.push_back(parent);
    }
    ASSERT_EQ(chain.back()->parent, kInvalidTemplateId)
        << "no root above leaf " << leaf.id;
    for (size_t k = 0; k < chain.size(); ++k) {
      if (k + 1 < chain.size()) {
        EXPECT_GE(chain[k]->saturation, chain[k + 1]->saturation);
      }
      auto resolved = model.ResolveAtThreshold(leaf.id, chain[k]->saturation);
      ASSERT_TRUE(resolved.ok());
      EXPECT_EQ(*resolved, chain[k]->id) << "leaf " << leaf.id << " k " << k;
    }
  }
}

TEST(IntegrationTest, RetrainKeepsGroupingStable) {
  // Retraining on the same distribution must not fragment the grouping.
  DatasetGenerator gen(*FindDatasetSpec("Zookeeper"));
  GenOptions opts;
  opts.num_logs = 3000;
  opts.num_templates = 50;
  Dataset ds = gen.Generate(opts);
  std::vector<std::string> first_half;
  std::vector<std::string> second_half;
  for (size_t i = 0; i < ds.logs.size(); ++i) {
    (i < ds.logs.size() / 2 ? first_half : second_half)
        .push_back(ds.logs[i].text);
  }
  ByteBrainOptions options;
  options.trainer.num_threads = 2;
  ByteBrainParser parser(options);
  ASSERT_TRUE(parser.Train(first_half).ok());
  const size_t before = parser.model().size();
  ASSERT_TRUE(parser.Retrain(second_half).ok());
  const size_t after = parser.model().size();
  // The merged model may grow, but not explode (same distribution).
  EXPECT_LE(after, before * 3);
  // All logs still match.
  for (const auto& l : ds.logs) {
    EXPECT_NE(parser.Match(l.text), kInvalidTemplateId);
  }
}

TEST(IntegrationTest, DynamicListLimitationIsVisibleButBounded) {
  // §7: dynamic-length lists split across token counts; the wildcard-
  // merged display text reunifies them.
  std::vector<std::string> logs;
  for (int i = 0; i < 200; ++i) {
    std::string log = "queue drained items";
    for (int k = 0; k <= i % 3; ++k) {
      log += " " + std::to_string(100 + i + k);
    }
    logs.push_back(std::move(log));
  }
  ByteBrainOptions options;
  ByteBrainParser parser(options);
  ASSERT_TRUE(parser.Train(logs).ok());
  std::set<std::string> raw_templates;
  std::set<std::string> merged_templates;
  for (const auto& log : logs) {
    const TemplateId leaf = parser.Match(log);
    ASSERT_NE(leaf, kInvalidTemplateId);
    // Per-log leaves are maximally precise; query at a moderate
    // threshold to get the per-length wildcard templates (§7).
    auto id = parser.ResolveAtThreshold(leaf, 0.5);
    ASSERT_TRUE(id.ok());
    raw_templates.insert(parser.TemplateText(id.value()));
    merged_templates.insert(parser.MergedWildcardText(id.value()));
  }
  // Three raw templates (1, 2, 3 items) but one merged display text.
  EXPECT_EQ(raw_templates.size(), 3u);
  EXPECT_EQ(merged_templates.size(), 1u);
  EXPECT_EQ(*merged_templates.begin(), "queue drained items *");
}

}  // namespace
}  // namespace bytebrain
