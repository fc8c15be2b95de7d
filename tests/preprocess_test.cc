// Tests for preprocessing: encoding, deduplication, parallelism, and the
// ordinal-vs-hash dictionary cost.
#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "core/preprocess.h"
#include "datagen/generator.h"

namespace bytebrain {
namespace {

std::vector<std::string> Repeat(std::initializer_list<std::string> texts,
                                int times) {
  std::vector<std::string> out;
  for (int i = 0; i < times; ++i) {
    for (const auto& t : texts) out.push_back(t);
  }
  return out;
}

TEST(PreprocessTest, DedupCollapsesIdenticalLogs) {
  auto logs = Repeat({"user login ok", "user login failed"}, 50);
  PreprocessOptions opts;
  auto result = Preprocess(logs, VariableReplacer::None(), opts);
  EXPECT_EQ(result.total_logs, 100u);
  ASSERT_EQ(result.logs.size(), 2u);
  EXPECT_EQ(result.logs[0].count, 50u);
  EXPECT_EQ(result.logs[1].count, 50u);
}

TEST(PreprocessTest, SourceIdsCoverEveryInput) {
  auto logs = Repeat({"a b", "c d", "a b"}, 10);
  PreprocessOptions opts;
  auto result = Preprocess(logs, VariableReplacer::None(), opts);
  std::vector<bool> seen(logs.size(), false);
  for (const auto& el : result.logs) {
    EXPECT_EQ(el.source_ids.size(), el.count);
    for (uint32_t id : el.source_ids) {
      ASSERT_LT(id, logs.size());
      EXPECT_FALSE(seen[id]);
      seen[id] = true;
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(PreprocessTest, VariableReplacementIncreasesDuplication) {
  // Paper Fig. 4: replacing variables makes more logs identical.
  std::vector<std::string> logs;
  for (int i = 0; i < 64; ++i) {
    logs.push_back("conn from 10.0.0." + std::to_string(i + 1));
  }
  PreprocessOptions opts;
  auto without = Preprocess(logs, VariableReplacer::None(), opts);
  auto with = Preprocess(logs, VariableReplacer::Default(), opts);
  EXPECT_EQ(without.logs.size(), 64u);
  EXPECT_EQ(with.logs.size(), 1u);
  EXPECT_EQ(with.logs[0].count, 64u);
}

TEST(PreprocessTest, DedupDisabledKeepsEveryLog) {
  auto logs = Repeat({"same line"}, 30);
  PreprocessOptions opts;
  opts.deduplicate = false;
  auto result = Preprocess(logs, VariableReplacer::None(), opts);
  EXPECT_EQ(result.logs.size(), 30u);
  for (const auto& el : result.logs) EXPECT_EQ(el.count, 1u);
}

TEST(PreprocessTest, TokensAndTextsAligned) {
  std::vector<std::string> logs = {"alpha beta=7 gamma"};
  PreprocessOptions opts;
  auto result = Preprocess(logs, VariableReplacer::None(), opts);
  ASSERT_EQ(result.logs.size(), 1u);
  const auto& el = result.logs[0];
  ASSERT_EQ(el.tokens.size(), 4u);
  ASSERT_EQ(el.token_texts.size(), 4u);
  EXPECT_EQ(el.token_texts[0], "alpha");
  EXPECT_EQ(el.token_texts[1], "beta");
  EXPECT_EQ(el.token_texts[2], "7");
  for (size_t i = 0; i < el.tokens.size(); ++i) {
    EXPECT_EQ(el.tokens[i], HashToken(el.token_texts[i]));
  }
}

TEST(PreprocessTest, ParallelMatchesSequential) {
  std::vector<std::string> logs;
  for (int i = 0; i < 500; ++i) {
    logs.push_back("evt " + std::to_string(i % 17) + " code " +
                   std::to_string(i % 5));
  }
  PreprocessOptions seq;
  seq.num_threads = 1;
  PreprocessOptions par;
  par.num_threads = 4;
  auto a = Preprocess(logs, VariableReplacer::Default(), seq);
  auto b = Preprocess(logs, VariableReplacer::Default(), par);
  ASSERT_EQ(a.logs.size(), b.logs.size());
  // Shard-local dedup may reorder distinct logs; compare as multisets
  // keyed by the token sequence.
  auto index = [](const PreprocessResult& r) {
    std::map<std::vector<uint64_t>, uint64_t> m;
    for (const auto& el : r.logs) m[el.tokens] = el.count;
    return m;
  };
  EXPECT_EQ(index(a), index(b));
}

TEST(PreprocessTest, FusedScanMatchesTwoPathReplacement) {
  // The default replacer takes the fused replace+tokenize scan; a tenant
  // rule that never matches forces the two-pass ReplaceInto +
  // TokenizeDefaultInto path with the same replacements. The encoded
  // logs must agree field for field, in order.
  const VariableReplacer fused = VariableReplacer::Default();
  VariableReplacer two_pass = VariableReplacer::Default();
  ASSERT_TRUE(two_pass.AddRule("never", "NEVER_MATCHES_[0-9]{40}").ok());
  ASSERT_TRUE(fused.fused_fast_path());
  ASSERT_FALSE(two_pass.fused_fast_path());
  for (const DatasetSpec& spec : LogHub2Specs()) {
    GenOptions gen;
    gen.num_logs = 300;
    gen.num_templates = spec.loghub2_templates;
    gen.include_preamble = true;
    gen.seed_salt = 2;
    std::vector<std::string> logs;
    for (auto& l : DatasetGenerator(spec).Generate(gen).logs) {
      logs.push_back(std::move(l.text));
    }
    for (int threads : {1, 4}) {
      PreprocessOptions opts;
      opts.num_threads = threads;
      const PreprocessResult a = Preprocess(logs, fused, opts);
      const PreprocessResult b = Preprocess(logs, two_pass, opts);
      ASSERT_EQ(a.total_logs, b.total_logs);
      ASSERT_EQ(a.logs.size(), b.logs.size()) << spec.name;
      for (size_t i = 0; i < a.logs.size(); ++i) {
        EXPECT_EQ(a.logs[i].tokens, b.logs[i].tokens) << spec.name;
        EXPECT_EQ(a.logs[i].token_texts, b.logs[i].token_texts) << spec.name;
        EXPECT_EQ(a.logs[i].count, b.logs[i].count) << spec.name;
        EXPECT_EQ(a.logs[i].source_ids, b.logs[i].source_ids) << spec.name;
      }
    }
  }
}

TEST(PreprocessTest, HashEncoderHasNoDictionary) {
  std::vector<std::string> logs = {"a b c", "d e f"};
  PreprocessOptions opts;
  opts.encoder = EncoderKind::kHash;
  auto result = Preprocess(logs, VariableReplacer::None(), opts);
  EXPECT_EQ(result.dictionary_bytes, 0u);
}

TEST(PreprocessTest, OrdinalEncoderAccumulatesDictionary) {
  std::vector<std::string> logs = {"a b c", "a b d"};
  PreprocessOptions opts;
  opts.encoder = EncoderKind::kOrdinal;
  auto result = Preprocess(logs, VariableReplacer::None(), opts);
  // 4 distinct tokens: a b c d -> 4 * (1 byte + 8 bytes id).
  EXPECT_EQ(result.dictionary_bytes, 4u * 9u);
}

TEST(PreprocessTest, OrdinalIdsAreDense) {
  OrdinalEncoder enc;
  EXPECT_EQ(enc.Encode("x"), 1u);
  EXPECT_EQ(enc.Encode("y"), 2u);
  EXPECT_EQ(enc.Encode("x"), 1u);
  EXPECT_EQ(enc.size(), 2u);
}

TEST(PreprocessTest, EmptyInput) {
  PreprocessOptions opts;
  auto result =
      Preprocess(std::vector<std::string>{}, VariableReplacer::None(), opts);
  EXPECT_EQ(result.total_logs, 0u);
  EXPECT_TRUE(result.logs.empty());
}

TEST(PreprocessTest, BlankLogProducesEmptyTokenVector) {
  std::vector<std::string> logs = {"", "   ", "real token"};
  PreprocessOptions opts;
  auto result = Preprocess(logs, VariableReplacer::None(), opts);
  // "" and "   " tokenize to the same empty sequence -> dedup together.
  ASSERT_EQ(result.logs.size(), 2u);
  EXPECT_TRUE(result.logs[0].tokens.empty());
  EXPECT_EQ(result.logs[0].count, 2u);
}

}  // namespace
}  // namespace bytebrain
