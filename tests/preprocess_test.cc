// Tests for preprocessing: encoding, deduplication, parallelism, and the
// ordinal-vs-hash dictionary cost.
#include <gtest/gtest.h>

#include <algorithm>

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

// Field-by-field equality of two results: distinct logs in order (token
// hashes, token texts, counts) and the raw -> distinct map.
void ExpectSameResult(const PreprocessResult& a, const PreprocessResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.total_logs, b.total_logs) << what;
  ASSERT_EQ(a.logs.size(), b.logs.size()) << what;
  EXPECT_EQ(a.distinct_of, b.distinct_of) << what;
  for (size_t d = 0; d < a.logs.size(); ++d) {
    const EncodedLog& x = a.logs[d];
    const EncodedLog& y = b.logs[d];
    ASSERT_TRUE(std::equal(x.tokens.begin(), x.tokens.end(), y.tokens.begin(),
                           y.tokens.end()))
        << what << " log " << d;
    for (size_t i = 0; i < x.tokens.size(); ++i) {
      EXPECT_EQ(x.text(i), y.text(i)) << what << " log " << d;
    }
    EXPECT_EQ(x.count, y.count) << what << " log " << d;
  }
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

TEST(PreprocessTest, DistinctOfCoversEveryInput) {
  auto logs = Repeat({"a b", "c d", "a b"}, 10);
  PreprocessOptions opts;
  auto result = Preprocess(logs, VariableReplacer::None(), opts);
  ASSERT_EQ(result.distinct_of.size(), logs.size());
  std::vector<uint64_t> counted(result.logs.size(), 0);
  for (size_t i = 0; i < logs.size(); ++i) {
    ASSERT_LT(result.distinct_of[i], result.logs.size());
    ++counted[result.distinct_of[i]];
    // Each raw log maps to the distinct log with its own text.
    const EncodedLog& el = result.logs[result.distinct_of[i]];
    EXPECT_EQ(std::string(el.text(0)) + " " + std::string(el.text(1)),
              logs[i]);
  }
  for (size_t d = 0; d < result.logs.size(); ++d) {
    EXPECT_EQ(counted[d], result.logs[d].count);
  }
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
  EXPECT_EQ(el.text(0), "alpha");
  EXPECT_EQ(el.text(1), "beta");
  EXPECT_EQ(el.text(2), "7");
  EXPECT_EQ(el.text(3), "gamma");
  for (size_t i = 0; i < el.tokens.size(); ++i) {
    EXPECT_EQ(el.tokens[i], HashToken(el.text(i)));
  }
}

TEST(PreprocessTest, ParallelMatchesSequential) {
  // Distinct logs keep first-seen order, so every shard count gives the
  // sequential result field for field, with and without deduplication.
  const DatasetSpec* spec = FindDatasetSpec("OpenSSH");
  ASSERT_NE(spec, nullptr);
  GenOptions gen;
  gen.num_logs = 2000;
  gen.num_templates = spec->loghub2_templates;
  std::vector<std::string> logs;
  for (auto& l : DatasetGenerator(*spec).Generate(gen).logs) {
    logs.push_back(std::move(l.text));
  }
  for (bool dedup : {true, false}) {
    PreprocessOptions opts;
    opts.deduplicate = dedup;
    const PreprocessResult sequential =
        Preprocess(logs, VariableReplacer::Default(), opts);
    if (dedup) {
      EXPECT_LT(sequential.logs.size(), logs.size());
    } else {
      ASSERT_EQ(sequential.logs.size(), logs.size());
      for (uint32_t i = 0; i < logs.size(); ++i) {
        EXPECT_EQ(sequential.distinct_of[i], i);
        EXPECT_EQ(sequential.logs[i].count, 1u);
      }
    }
    for (int threads : {2, 3, 4, 7}) {
      opts.num_threads = threads;
      ExpectSameResult(Preprocess(logs, VariableReplacer::Default(), opts),
                       sequential,
                       "dedup=" + std::to_string(dedup) +
                           " threads=" + std::to_string(threads));
    }
  }
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
      ExpectSameResult(a, b, spec.name);
    }
  }
}

TEST(PreprocessTest, ResultOutlivesItsInput) {
  // The result copies every token text it keeps: reading it after the
  // raw logs are gone must not touch their memory (ASAN checks this).
  // The first two logs take the fused scan's no-variable path, whose
  // token views alias the raw log itself.
  PreprocessResult result;
  for (int threads : {1, 4}) {
    {
      std::vector<std::string> logs = {"alpha beta gamma delta",
                                       "session opened for user root",
                                       "conn from 10.0.0.1 port 22"};
      PreprocessOptions opts;
      opts.num_threads = threads;
      result = Preprocess(logs, VariableReplacer::Default(), opts);
      std::fill(logs.begin(), logs.end(), std::string(32, '#'));
    }
    ASSERT_EQ(result.logs.size(), 3u);
    EXPECT_EQ(result.logs[0].text(3), "delta");
    EXPECT_EQ(result.logs[1].text(4), "root");
    EXPECT_EQ(result.logs[2].text(2), "*");
    EXPECT_EQ(result.logs[2].text(4), "22");
  }
}

TEST(PreprocessTest, TinyInputKeepsItsTexts) {
  // Under 16 bytes of text in all: a per-shard character buffer this
  // small would sit inline in a std::string, and moving it between
  // shard and result would break every view into it.
  const std::vector<std::string> logs = {"a b", "c", "d e", "a b"};
  for (int threads : {1, 2, 3, 4}) {
    PreprocessOptions opts;
    opts.num_threads = threads;
    PreprocessResult moved = Preprocess(logs, VariableReplacer::None(), opts);
    const PreprocessResult result = std::move(moved);
    ASSERT_EQ(result.logs.size(), 3u) << threads;
    EXPECT_EQ(result.logs[0].text(0), "a");
    EXPECT_EQ(result.logs[0].text(1), "b");
    EXPECT_EQ(result.logs[0].count, 2u);
    EXPECT_EQ(result.logs[1].text(0), "c");
    EXPECT_EQ(result.logs[2].text(1), "e");
    EXPECT_EQ(result.distinct_of, (std::vector<uint32_t>{0, 1, 2, 0}));
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
