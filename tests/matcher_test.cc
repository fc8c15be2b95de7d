// Tests for the interned-token matching pipeline: TokenTable round
// trips, keyed-trie-index vs. linear-scan equivalence on randomized
// templates, the fused replace+tokenize scan vs. the two-pass pipeline,
// Insert-after-adopt try order, and IngestBatch vs. sequential Ingest.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/matcher.h"
#include "core/parser.h"
#include "core/token_table.h"
#include "core/tokenizer.h"
#include "datagen/generator.h"
#include "service/log_service.h"
#include "util/rng.h"

namespace bytebrain {
namespace {

// Reference matcher with the PRE-REFACTOR semantics: string-compare every
// equal-length template in descending-saturation order (stable on model
// order). The production matcher must agree bit-for-bit.
TemplateId ReferenceMatch(const TemplateModel& model,
                          const VariableReplacer& replacer,
                          std::string_view raw) {
  const std::string replaced = replacer.Replace(raw);
  const std::vector<std::string_view> tokens = TokenizeDefault(replaced);
  std::vector<const TreeNode*> order;
  order.reserve(model.size());
  for (const TreeNode& n : model.nodes()) order.push_back(&n);
  std::stable_sort(order.begin(), order.end(),
                   [](const TreeNode* a, const TreeNode* b) {
                     return a->saturation > b->saturation;
                   });
  for (const TreeNode* n : order) {
    if (n->tokens.size() != tokens.size()) continue;
    bool ok = true;
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (n->tokens[i] != kWildcard && n->tokens[i] != tokens[i]) {
        ok = false;
        break;
      }
    }
    if (ok) return n->id;
  }
  return kInvalidTemplateId;
}

TEST(TokenTableTest, InternLookupRoundTrip) {
  TokenTable table;
  EXPECT_EQ(table.Lookup("*"), TokenTable::kWildcardId);
  EXPECT_EQ(table.text(TokenTable::kWildcardId), "*");

  const uint32_t a = table.Intern("alpha");
  const uint32_t b = table.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("alpha"), a);  // idempotent
  EXPECT_EQ(table.Lookup("alpha"), a);
  EXPECT_EQ(table.text(a), "alpha");
  EXPECT_EQ(table.text(b), "beta");
  EXPECT_EQ(table.Lookup("never-seen"), TokenTable::kUnknownId);
  EXPECT_EQ(table.text(TokenTable::kUnknownId), "");
}

TEST(TokenTableTest, SurvivesGrowth) {
  TokenTable table;
  std::vector<uint32_t> ids;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(table.Intern("token_" + std::to_string(i)));
  }
  EXPECT_EQ(table.size(), 501u);  // + wildcard
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(table.Lookup("token_" + std::to_string(i)), ids[i]);
    EXPECT_EQ(table.text(ids[i]), "token_" + std::to_string(i));
  }
  EXPECT_EQ(table.Lookup("token_500"), TokenTable::kUnknownId);
}

TEST(MatcherEquivalenceTest, KeyedIndexMatchesLinearScanOnRandomTemplates) {
  Rng rng(0xfeedULL);
  const std::vector<std::string> vocab = [] {
    std::vector<std::string> v;
    for (int i = 0; i < 12; ++i) v.push_back("tok" + std::to_string(i));
    return v;
  }();

  VariableReplacer replacer = VariableReplacer::None();
  TemplateModel model;
  // Dense template population per length so trie leaves overflow and
  // split; discrete saturations so try-order ties are common.
  const double kSats[] = {0.25, 0.5, 0.75, 1.0};
  for (int t = 0; t < 300; ++t) {
    const size_t len = 3 + rng.NextBelow(5);
    std::vector<std::string> tokens;
    for (size_t p = 0; p < len; ++p) {
      if (rng.NextDouble() < 0.35) {
        tokens.emplace_back(kWildcard);
      } else {
        tokens.push_back(vocab[rng.NextBelow(vocab.size())]);
      }
    }
    model.AddNode(0, kSats[rng.NextBelow(4)], std::move(tokens), 1);
  }
  TemplateMatcher matcher(model, &replacer);
  ASSERT_EQ(matcher.num_templates(), 300u);

  int hits = 0;
  for (int q = 0; q < 3000; ++q) {
    const size_t len = 3 + rng.NextBelow(5);
    std::string log;
    for (size_t p = 0; p < len; ++p) {
      if (!log.empty()) log += ' ';
      // Occasionally a token no template contains.
      log += rng.NextDouble() < 0.1 ? "unseen" + std::to_string(q)
                                    : vocab[rng.NextBelow(vocab.size())];
    }
    const TemplateId expected = ReferenceMatch(model, replacer, log);
    EXPECT_EQ(matcher.Match(log), expected) << log;
    if (expected != kInvalidTemplateId) ++hits;
  }
  EXPECT_GT(hits, 100);  // the corpus must actually exercise matching
}

TEST(MatcherEquivalenceTest, AgreesWithReferenceOnTrainedModel) {
  DatasetGenerator gen(*FindDatasetSpec("OpenSSH"));
  GenOptions opts;
  opts.num_logs = 600;
  opts.num_templates = 30;
  std::vector<std::string> logs;
  for (auto& l : gen.Generate(opts).logs) logs.push_back(l.text);

  ByteBrainOptions options;
  ByteBrainParser parser(options);
  ASSERT_TRUE(parser.Train(logs).ok());
  const VariableReplacer replacer = VariableReplacer::Default();
  for (const auto& log : logs) {
    EXPECT_EQ(parser.Match(log),
              ReferenceMatch(parser.model(), replacer, log))
        << log;
  }
}

TEST(MatcherEquivalenceTest, FusedScanMatchesTwoPassPipeline) {
  VariableReplacer replacer = VariableReplacer::Default();
  ASSERT_TRUE(replacer.fused_fast_path());

  std::vector<std::string> corpus = {
      "",
      "plain words only",
      "2026-01-02 10:11:12,123 done",
      "a-10.0.0.1-b linked",
      "end.2026/06/10",
      "x :// y ://z",
      "path.to. end.",
      "\\\"quoted\\\" text",
      "0xdeadbeef-50 0x1",
      "literal * star",
      "v-12:30:00-y mixed token",
      "Dec 10 07:07:38 host sshd[24206]: Failed password for root "
      "from 173.234.31.186 port 38926 ssh2",
      "md5 d41d8cd98f00b204e9800998ecf8427e trailing",
      "uuid 123e4567-e89b-12d3-a456-426614174000.",
      "123e4567-e89b-12d3-a456-42661417400",  // not a uuid (short group)
      "ports 1:2:3 10.0.0.1:50010 done.",
  };
  DatasetGenerator gen(*FindDatasetSpec("Hadoop"));
  GenOptions opts;
  opts.num_logs = 400;
  opts.num_templates = 40;
  opts.include_preamble = true;
  for (auto& l : gen.Generate(opts).logs) corpus.push_back(l.text);

  // Intern the tokens of half the corpus so lookups mix known/unknown.
  TokenTable table;
  std::string replaced;
  for (size_t i = 0; i < corpus.size(); i += 2) {
    replacer.ReplaceInto(corpus[i], &replaced);
    for (std::string_view tok : TokenizeDefault(replaced)) table.Intern(tok);
  }

  std::string mixed_buf;
  std::vector<uint32_t> fused_ids;
  std::vector<std::string_view> tokens;
  for (const auto& raw : corpus) {
    fused_ids.clear();
    TokenizeReplacedIdsInto(raw, table, &mixed_buf, &fused_ids);

    replacer.ReplaceInto(raw, &replaced);
    tokens.clear();
    TokenizeDefaultInto(replaced, &tokens);
    std::vector<uint32_t> expected;
    for (std::string_view tok : tokens) expected.push_back(table.Lookup(tok));

    EXPECT_EQ(fused_ids, expected) << raw;
  }
}

TEST(MatcherInsertTest, InsertAfterAdoptPreservesTryOrder) {
  VariableReplacer replacer = VariableReplacer::None();
  TemplateModel model;
  const TemplateId a = model.AddNode(0, 0.9, {"alpha", "*", "gamma"}, 1);
  model.AddNode(0, 0.8, {"alpha", "beta", "*"}, 1);  // tried after d
  const TemplateId d = model.AddNode(0, 0.9, {"alpha", "*", "*"}, 1);
  TemplateMatcher matcher(model, &replacer);

  // Tie at 0.9: the earlier template wins.
  EXPECT_EQ(matcher.Match("alpha beta gamma"), a);
  EXPECT_EQ(matcher.Match("alpha beta zeta"), d);  // a needs gamma

  // Adopted temporaries are fully precise (saturation 1.0) and must be
  // tried before everything else.
  const TemplateId c = model.AdoptTemporary({"alpha", "beta", "gamma"});
  matcher.Insert(*model.node(c));
  EXPECT_EQ(matcher.Match("alpha beta gamma"), c);
  EXPECT_EQ(matcher.Match("alpha other gamma"), a);

  // Inserting mid-saturation slots between existing entries.
  const TemplateId f = model.AddNode(0, 0.95, {"alpha", "*", "*"}, 1);
  matcher.Insert(*model.node(f));
  EXPECT_EQ(matcher.Match("alpha other gamma"), f);  // 0.95 > 0.9

  // An equal-saturation insert goes AFTER existing entries (stable
  // order): d (0.9, earlier) and f (0.95) both shadow the inserted e.
  const TemplateId e = model.AddNode(0, 0.9, {"alpha", "*", "delta"}, 1);
  matcher.Insert(*model.node(e));
  EXPECT_EQ(matcher.Match("alpha x delta"), f);
  EXPECT_EQ(matcher.Match("alpha x gamma"), f);

  // Everything above also agrees with the reference semantics.
  for (const char* log :
       {"alpha beta gamma", "alpha beta zeta", "alpha other gamma",
        "alpha x delta", "alpha x gamma", "nope nope nope"}) {
    EXPECT_EQ(matcher.Match(log), ReferenceMatch(model, replacer, log))
        << log;
  }
}

TEST(MatcherTest, MatchAllAgreesWithSequentialMatch) {
  // MatchAll's chunks hold n / (8 * threads) logs, from 1 up to 1024:
  // one-log chunks, uneven ones, sizes on either side of the cap and a
  // ragged last chunk all give per-log Match's ids.
  DatasetGenerator gen(*FindDatasetSpec("OpenSSH"));
  GenOptions opts;
  opts.num_logs = 9000;
  opts.num_templates = 25;
  std::vector<std::string> logs;
  for (auto& l : gen.Generate(opts).logs) logs.push_back(l.text);

  ByteBrainParser parser{ByteBrainOptions{}};
  ASSERT_TRUE(parser.Train(logs).ok());
  for (size_t n :
       {0, 1, 9, 1000, 1023, 1024, 1025, 5000, 8191, 8192, 8193, 9000}) {
    const std::vector<std::string> batch(logs.begin(), logs.begin() + n);
    const std::vector<std::string_view> views(batch.begin(), batch.end());
    std::vector<TemplateId> expected;
    for (const auto& log : batch) expected.push_back(parser.Match(log));
    for (int threads : {1, 2, 4}) {
      EXPECT_EQ(parser.MatchAll(batch, threads), expected)
          << n << " logs, " << threads << " threads";
      EXPECT_EQ(parser.MatchAll(views, threads), expected)
          << n << " views, " << threads << " threads";
    }
  }
}

std::vector<std::string> ServiceWorkload() {
  std::vector<std::string> logs;
  for (int i = 0; i < 220; ++i) {
    logs.push_back("Accepted password for user" + std::to_string(i % 5) +
                   " from 10.0.0." + std::to_string(i % 9 + 1) + " port " +
                   std::to_string(30000 + i) + " ssh2");
    logs.push_back("Connection closed by 10.1.0." +
                   std::to_string(i % 7 + 1));
    if (i % 13 == 0) {
      // Novel shapes that force online adoption after training.
      logs.push_back("totally novel shape variant" + std::to_string(i) +
                     " appeared alone");
    }
  }
  return logs;
}

TopicConfig BatchTestConfig() {
  TopicConfig config;
  config.initial_train_records = 64;
  config.train_interval_records = 160;  // forces retrains mid-stream
  config.train_volume_bytes = 1ull << 40;
  config.num_threads = 2;
  // Exact-equality comparisons need each training to complete inside
  // the call that triggered it; background completion timing would make
  // the assignments nondeterministic.
  config.async_training = false;
  return config;
}

// Template id of every record, in sequence order.
std::vector<TemplateId> Assignments(const ManagedTopic& topic) {
  std::vector<TemplateId> ids;
  EXPECT_TRUE(topic
                  .ScanRecords(0, topic.size(),
                               [&ids](uint64_t, const LogRecord& rec) {
                                 ids.push_back(rec.template_id);
                               })
                  .ok());
  return ids;
}

// Record at a time — Ingest, or IngestBatch with one record — the topic
// does online matching exactly as the parser's MatchOrAdopt: after the
// initial training, every record gets the id a parser trained on the
// same window hands out, adoption order included.
TEST(IngestBatchTest, RecordAtATimeMatchesParserMatchOrAdopt) {
  TopicConfig config = BatchTestConfig();
  config.train_interval_records = 1u << 30;  // initial training only
  std::vector<std::string> logs = ServiceWorkload();
  for (int k = 0; k < 8; ++k) {
    // Shapes no trained template covers, adopted mid-stream; the repeat
    // at the end must match its adopted template.
    const std::string rare =
        "rare event " + std::string(k + 1, 'q') + " observed";
    logs.insert(logs.begin() + 100 + 30 * k, rare);
    logs.push_back(rare);
  }
  const size_t window = config.initial_train_records;

  ByteBrainParser reference(config.parser_options);
  ASSERT_TRUE(reference
                  .Train(std::vector<std::string>(logs.begin(),
                                                  logs.begin() + window))
                  .ok());
  std::vector<TemplateId> expected;
  for (size_t i = 0; i < window; ++i) {
    expected.push_back(reference.Match(logs[i]));
  }
  for (size_t i = window; i < logs.size(); ++i) {
    expected.push_back(reference.MatchOrAdopt(logs[i]));
  }

  ManagedTopic single("single", config);
  ManagedTopic batched("batched", config);
  for (size_t i = 0; i < logs.size(); ++i) {
    ASSERT_TRUE(single.Ingest(logs[i]).ok());
    ASSERT_TRUE(batched.IngestBatch(std::vector<std::string>{logs[i]}).ok());
  }
  EXPECT_GT(single.stats().adopted_templates, 0u);
  EXPECT_EQ(Assignments(single), expected);
  EXPECT_EQ(Assignments(batched), expected);
}

// With both training triggers at multiples of the chunk size, chunked
// batches trip every training at the same record as a sequential loop:
// the trainings snapshot identical windows, and each merge drops the
// temporaries, the only place batch and sequential matching may differ.
// After a final training the two topics agree record for record.
TEST(IngestBatchTest, ChunkAlignedBatchesAgreeWithSequentialIngest) {
  constexpr size_t kChunk = 16;
  const TopicConfig config = BatchTestConfig();
  ASSERT_EQ(config.initial_train_records % kChunk, 0u);
  ASSERT_EQ(config.train_interval_records % kChunk, 0u);
  const std::vector<std::string> logs = ServiceWorkload();

  ManagedTopic seq_topic("seq", config);
  for (const auto& log : logs) ASSERT_TRUE(seq_topic.Ingest(log).ok());

  ManagedTopic batch_topic("batch", config);
  for (size_t begin = 0; begin < logs.size(); begin += kChunk) {
    const size_t end = std::min(logs.size(), begin + kChunk);
    auto seqs = batch_topic.IngestBatch(
        std::vector<std::string>(logs.begin() + begin, logs.begin() + end));
    ASSERT_TRUE(seqs.ok());
    ASSERT_EQ(seqs.value().size(), end - begin);
    EXPECT_EQ(seqs.value().front(), begin);
  }
  EXPECT_EQ(seq_topic.stats().trainings, batch_topic.stats().trainings);

  ASSERT_TRUE(seq_topic.TrainNow().ok());
  ASSERT_TRUE(batch_topic.TrainNow().ok());
  const TopicStats a = seq_topic.stats();
  const TopicStats b = batch_topic.stats();
  EXPECT_GE(a.trainings, 3u);
  EXPECT_EQ(a.trainings, b.trainings);
  EXPECT_EQ(a.num_templates, b.num_templates);
  EXPECT_EQ(Assignments(seq_topic), Assignments(batch_topic));
}

TEST(IngestBatchTest, RejectsMismatchedTimestamps) {
  ManagedTopic topic("ts", BatchTestConfig());
  auto result =
      topic.IngestBatch(std::vector<std::string>{"a", "b"}, {1});
  EXPECT_FALSE(result.ok());
}

TEST(IngestBatchTest, EmptyBatchIsNoop) {
  ManagedTopic topic("empty", BatchTestConfig());
  auto result = topic.IngestBatch(std::vector<std::string>{});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

}  // namespace
}  // namespace bytebrain
