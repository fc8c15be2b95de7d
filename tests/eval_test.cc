// Tests for the evaluation harness: the ByteBrain adapter configurations
// and the thresholded grouping it reports.
#include <gtest/gtest.h>

#include <iomanip>
#include <iterator>

#include "datagen/generator.h"
#include "eval/bytebrain_adapter.h"
#include "eval/runner.h"

namespace bytebrain {
namespace {

Dataset SmallDataset() {
  DatasetGenerator gen(*FindDatasetSpec("OpenSSH"));
  return gen.GenerateLogHub();
}

TEST(AdapterConfigTest, CanonicalConfigsDiffer) {
  const auto d = ByteBrainDefaultConfig();
  const auto s = ByteBrainSequentialConfig();
  const auto u = ByteBrainUnoptimizedConfig();
  EXPECT_EQ(d.display_name, "ByteBrain");
  EXPECT_EQ(s.display_name, "ByteBrain Sequential");
  EXPECT_EQ(u.display_name, "ByteBrain w/o JIT");
  EXPECT_GT(d.num_threads, 1);
  EXPECT_EQ(s.num_threads, 1);
  EXPECT_TRUE(u.options.unoptimized);
  EXPECT_FALSE(d.options.unoptimized);
}

TEST(AdapterTest, AllVariantsProduceEquallyAccurateGroupings) {
  // Sequential / unoptimized change the execution strategy, not the
  // algorithm: accuracy must be essentially identical.
  Dataset ds = SmallDataset();
  double reference = -1.0;
  for (const auto& config :
       {ByteBrainDefaultConfig(), ByteBrainSequentialConfig(),
        ByteBrainUnoptimizedConfig()}) {
    ByteBrainAdapter adapter(config);
    const RunResult r = RunOn(&adapter, ds);
    if (reference < 0) reference = r.grouping_accuracy;
    EXPECT_NEAR(r.grouping_accuracy, reference, 0.05) << config.display_name;
  }
}

TEST(AdapterTest, ReportThresholdControlsGranularity) {
  Dataset ds = SmallDataset();
  ByteBrainAdapterConfig coarse = ByteBrainDefaultConfig();
  coarse.report_threshold = 0.05;
  ByteBrainAdapterConfig fine = ByteBrainDefaultConfig();
  fine.report_threshold = 0.99;
  ByteBrainAdapter a(coarse);
  ByteBrainAdapter b(fine);
  const RunResult rc = RunOn(&a, ds);
  const RunResult rf = RunOn(&b, ds);
  EXPECT_LE(rc.num_groups, rf.num_groups);
}

TEST(AdapterTest, NaiveMatchVariantUsesTrainingAssignments) {
  Dataset ds = SmallDataset();
  ByteBrainAdapterConfig config = ByteBrainDefaultConfig();
  config.options.naive_match = true;
  ByteBrainAdapter adapter(config);
  const RunResult r = RunOn(&adapter, ds);
  // §5.4.1: near-identical accuracy to text matching.
  EXPECT_GE(r.grouping_accuracy, 0.9);
}

TEST(AdapterTest, ParserAccessibleAfterParse) {
  Dataset ds = SmallDataset();
  ByteBrainAdapter adapter(ByteBrainDefaultConfig());
  RunOn(&adapter, ds);
  ASSERT_NE(adapter.parser(), nullptr);
  EXPECT_GT(adapter.parser()->model().size(), 0u);
  EXPECT_GT(adapter.parser()->ModelBytes(), 0u);
}

TEST(AdapterTest, EmptyDataset) {
  Dataset empty;
  empty.name = "empty";
  ByteBrainAdapter adapter(ByteBrainDefaultConfig());
  const RunResult r = RunOn(&adapter, empty);
  EXPECT_EQ(r.num_logs, 0u);
  EXPECT_DOUBLE_EQ(r.grouping_accuracy, 1.0);
}

TEST(AdapterTest, ExactGroupingAccuracyOnLogHub2Specs) {
  // Offline accuracy floors, exact: ByteBrain's GA on every LogHub-2.0
  // spec under the default adapter config. Training output is
  // deterministic and GA is (correct logs) / 20000, so a change that
  // moves even one log's grouping fails here. The corpora are the
  // parse_loghub2 benchmark's, before its digit permutation.
  // Recorded before the flat-table / move-only-profile training kernels.
  struct Pin {
    const char* name;
    double ga;
  };
  const Pin kPins[] = {
      {"HealthApp", 1.0},      {"OpenStack", 0.9848}, {"OpenSSH", 1.0},
      {"Proxifier", 1.0},      {"HPC", 0.9989},       {"Zookeeper", 0.9988},
      {"Mac", 0.99735},        {"Hadoop", 0.99745},   {"Linux", 0.9968},
      {"HDFS", 0.69825},       {"BGL", 0.91225},      {"Apache", 1.0},
      {"Thunderbird", 0.9913}, {"Spark", 0.998},
  };
  const std::vector<DatasetSpec> specs = LogHub2Specs();
  ASSERT_EQ(specs.size(), std::size(kPins));
  for (size_t i = 0; i < specs.size(); ++i) {
    const DatasetSpec& spec = specs[i];
    ASSERT_EQ(spec.name, kPins[i].name);
    GenOptions gen;
    gen.num_logs = 20000;
    gen.num_templates = spec.loghub2_templates;
    gen.seed_salt = 2;
    const Dataset ds = DatasetGenerator(spec).Generate(gen);
    ByteBrainAdapter adapter(ByteBrainDefaultConfig());
    const RunResult r = RunOn(&adapter, ds);
    EXPECT_EQ(r.grouping_accuracy, kPins[i].ga)
        << spec.name << " ga=" << std::setprecision(17) << r.grouping_accuracy;
  }
}

}  // namespace
}  // namespace bytebrain
