// Sharded-ingest tests: a topic with num_ingest_shards > 1 must produce
// the same observable end state as the single-shard path on the same
// input — same template shapes, same grouping — while routing duplicate
// shapes to one shard, folding shard-local temporaries into the shared
// model before any record is queryable, and composing with asynchronous
// retraining. The concurrency cases are deterministic (gate hook, no
// sleeps on assertion paths) and TSAN-clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/tokenizer.h"
#include "core/variable_replacer.h"
#include "datagen/generator.h"
#include "eval/metrics.h"
#include "service/log_service.h"
#include "util/hashing.h"

namespace bytebrain {
namespace {

// Distinct, non-overlapping shapes: no shape can match another shape's
// adopted template (no shared token skeleton), so sharded and sequential
// adoption produce the same template set even before a training cycle.
std::string NovelLog(int shape, int dup) {
  return "subsystem" + std::to_string(shape) + " failure code " +
         std::to_string(shape * 7) + " attempt 10.0.0." +
         std::to_string(dup % 9 + 1);
}

std::string SshLog(int i) {
  return "Accepted password for user" + std::to_string(i % 5) +
         " from 10.0.0." + std::to_string(i % 9 + 1) + " port " +
         std::to_string(40000 + i) + " ssh2";
}

TopicConfig ShardConfig(int shards) {
  TopicConfig config;
  config.initial_train_records = 200;
  config.train_interval_records = 1u << 30;
  config.train_volume_bytes = 1ull << 40;
  config.num_threads = 2;
  config.async_training = false;  // deterministic unless a test opts in
  config.num_ingest_shards = shards;
  return config;
}

std::vector<std::string> Corpus(size_t n) {
  DatasetGenerator gen(*FindDatasetSpec("OpenSSH"));
  GenOptions opts;
  opts.num_logs = n;
  opts.num_templates = 24;
  std::vector<std::string> texts;
  for (auto& l : gen.Generate(opts).logs) texts.push_back(l.text);
  return texts;
}

std::vector<uint32_t> CorpusLabels(size_t n) {
  DatasetGenerator gen(*FindDatasetSpec("OpenSSH"));
  GenOptions opts;
  opts.num_logs = n;
  opts.num_templates = 24;
  std::vector<uint32_t> labels;
  for (auto& l : gen.Generate(opts).logs) labels.push_back(l.gt_template);
  return labels;
}

void IngestInBatches(ManagedTopic* topic, const std::vector<std::string>& texts,
                     size_t batch_size) {
  for (size_t begin = 0; begin < texts.size(); begin += batch_size) {
    const size_t end = std::min(begin + batch_size, texts.size());
    std::vector<std::string> chunk(texts.begin() + begin, texts.begin() + end);
    auto seqs = topic->IngestBatch(std::move(chunk));
    ASSERT_TRUE(seqs.ok()) << seqs.status().ToString();
    ASSERT_EQ(seqs.value().size(), end - begin);
    for (size_t i = 0; i < seqs.value().size(); ++i) {
      EXPECT_EQ(seqs.value()[i], begin + i);
    }
  }
}

std::vector<uint64_t> RecordAssignments(const ManagedTopic& topic) {
  std::vector<uint64_t> out;
  EXPECT_TRUE(topic
                  .ScanRecords(0, topic.size(),
                               [&out](uint64_t, const LogRecord& rec) {
                                 out.push_back(rec.template_id);
                               })
                  .ok());
  return out;
}

std::multiset<std::string> TemplateTexts(const ManagedTopic& topic) {
  const std::vector<std::string> texts = topic.TemplateTexts();
  return std::multiset<std::string>(texts.begin(), texts.end());
}

// Cases that hold at every shard count run at 1 and 4 shards.
class ShardCountTest : public ::testing::TestWithParam<int> {};

// The acceptance scenario: the same corpus pushed through 1 shard and 4
// shards must end in the same state — identical template-text multiset
// and identical grouping (GA of 1.0 between the two assignments, equal
// GA against ground truth) — after a final training reconciles
// temporaries.
TEST(ShardedIngestTest, EndStateMatchesUnshardedOnDatagenCorpus) {
  const auto texts = Corpus(3000);
  const auto labels = CorpusLabels(3000);

  ManagedTopic unsharded("plain", ShardConfig(1));
  ManagedTopic sharded("sharded", ShardConfig(4));
  IngestInBatches(&unsharded, texts, 256);
  IngestInBatches(&sharded, texts, 256);
  ASSERT_TRUE(unsharded.trained());
  ASSERT_TRUE(sharded.trained());

  // Final training: both topics train on the identical record window, so
  // models, assignments, and query results must agree exactly.
  ASSERT_TRUE(unsharded.TrainNow().ok());
  ASSERT_TRUE(sharded.TrainNow().ok());

  EXPECT_EQ(TemplateTexts(unsharded), TemplateTexts(sharded));

  const auto plain = RecordAssignments(unsharded);
  const auto shard = RecordAssignments(sharded);
  ASSERT_EQ(plain.size(), shard.size());
  EXPECT_EQ(GroupingAccuracy(plain, shard), 1.0);
  EXPECT_EQ(GroupingAccuracy(plain, labels), GroupingAccuracy(shard, labels));

  // Queries agree group-for-group at full precision.
  auto q1 = unsharded.Query(1.0);
  auto q2 = sharded.Query(1.0);
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  ASSERT_EQ(q1.value().size(), q2.value().size());
  for (size_t i = 0; i < q1.value().size(); ++i) {
    EXPECT_EQ(q1.value()[i].template_text, q2.value()[i].template_text);
    EXPECT_EQ(q1.value()[i].count, q2.value()[i].count);
    EXPECT_EQ(q1.value()[i].sequence_numbers, q2.value()[i].sequence_numbers);
  }
}

// Before any reconciling training, adopting non-overlapping novel shapes
// must still produce the sequential template set: each shape adopted
// exactly once, duplicates assigned to their shape's template.
TEST(ShardedIngestTest, AdoptedTemplateSetMatchesUnsharded) {
  ManagedTopic unsharded("plain", ShardConfig(1));
  ManagedTopic sharded("sharded", ShardConfig(4));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(unsharded.Ingest(SshLog(i)).ok());
    ASSERT_TRUE(sharded.Ingest(SshLog(i)).ok());
  }
  ASSERT_TRUE(unsharded.trained());
  ASSERT_TRUE(sharded.trained());

  std::vector<std::string> batch;
  for (int dup = 0; dup < 16; ++dup) {
    for (int shape = 0; shape < 24; ++shape) {
      batch.push_back(NovelLog(shape, dup));
    }
  }
  ASSERT_TRUE(unsharded.IngestBatch(batch).ok());
  ASSERT_TRUE(sharded.IngestBatch(batch).ok());

  EXPECT_EQ(TemplateTexts(unsharded), TemplateTexts(sharded));
  EXPECT_EQ(unsharded.stats().adopted_templates,
            sharded.stats().adopted_templates);
  const auto plain = RecordAssignments(unsharded);
  const auto shard = RecordAssignments(sharded);
  EXPECT_EQ(GroupingAccuracy(plain, shard), 1.0);
}

// Duplicate colocation: all copies of a content hash to one shard, so each
// novel shape is adopted by exactly one shard and re-sending the same
// shapes adopts nothing new (the folded temporaries are now part of the
// shared model and are hit by the prematch).
TEST(ShardedIngestTest, DuplicatesColocateAndFoldOnce) {
  ManagedTopic topic("sharded", ShardConfig(4));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(topic.Ingest(SshLog(i)).ok());
  }
  ASSERT_TRUE(topic.trained());
  const uint64_t adopted_before = topic.stats().adopted_templates;

  constexpr int kShapes = 12;
  constexpr int kDups = 8;
  std::vector<std::string> batch;
  for (int dup = 0; dup < kDups; ++dup) {
    for (int shape = 0; shape < kShapes; ++shape) {
      batch.push_back(NovelLog(shape, /*dup=*/0));  // exact duplicates
    }
  }
  ASSERT_TRUE(topic.IngestBatch(batch).ok());

  TopicStats stats = topic.stats();
  ASSERT_EQ(stats.shards.size(), 4u);
  uint64_t routed = 0;
  uint64_t adopted = 0;
  uint64_t merges = 0;
  for (const ShardStats& s : stats.shards) {
    routed += s.records;
    adopted += s.adopted;
    merges += s.merges;
  }
  EXPECT_EQ(routed, batch.size());
  // Exactly one adoption per distinct shape, across all shards together.
  EXPECT_EQ(adopted, static_cast<uint64_t>(kShapes));
  EXPECT_EQ(stats.adopted_templates - adopted_before,
            static_cast<uint64_t>(kShapes));
  EXPECT_GE(merges, 1u);
  EXPECT_EQ(stats.shard_merges, merges);

  // All duplicates of a shape share one template id.
  std::map<std::string, std::set<TemplateId>> ids_by_text;
  ASSERT_TRUE(topic
                  .ScanRecords(200, topic.size(),
                               [&](uint64_t, const LogRecord& rec) {
                                 ids_by_text[rec.text].insert(rec.template_id);
                               })
                  .ok());
  ASSERT_EQ(ids_by_text.size(), static_cast<size_t>(kShapes));
  for (const auto& [text, ids] : ids_by_text) {
    EXPECT_EQ(ids.size(), 1u) << text;
    EXPECT_NE(*ids.begin(), kInvalidTemplateId) << text;
  }

  // Same shapes again: everything is a shared-model hit now.
  ASSERT_TRUE(topic.IngestBatch(batch).ok());
  stats = topic.stats();
  uint64_t adopted_after = 0;
  for (const ShardStats& s : stats.shards) adopted_after += s.adopted;
  EXPECT_EQ(adopted_after, static_cast<uint64_t>(kShapes));
}

// A single-shard topic runs the same pipeline: every record of a
// trained batch is routed through its one shard, and repeat shapes
// match the shared model once their temporaries are folded. Batches
// before the first training are appended unrouted.
TEST(ShardedIngestTest, SingleShardTopicRoutesThroughItsShard) {
  ManagedTopic topic("single", ShardConfig(1));
  std::vector<std::string> bootstrap;
  for (int i = 0; i < 200; ++i) bootstrap.push_back(SshLog(i));
  ASSERT_TRUE(topic.IngestBatch(std::move(bootstrap)).ok());
  ASSERT_TRUE(topic.trained());
  EXPECT_EQ(topic.stats().shards[0].records, 0u);

  constexpr int kShapes = 6;
  std::vector<std::string> batch;
  for (int dup = 0; dup < 4; ++dup) {
    for (int shape = 0; shape < kShapes; ++shape) {
      batch.push_back(NovelLog(shape, dup));
    }
  }
  for (int i = 0; i < 16; ++i) batch.push_back(SshLog(i));
  ASSERT_TRUE(topic.IngestBatch(batch).ok());
  // The first batch matches only its trained shapes; the novel ones adopt.
  const uint64_t first_shared = topic.stats().shards[0].matched_shared;
  ASSERT_TRUE(topic.IngestBatch(batch).ok());

  const TopicStats stats = topic.stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  const ShardStats& shard = stats.shards[0];
  EXPECT_EQ(shard.records, 2 * batch.size());
  EXPECT_EQ(shard.adopted, static_cast<uint64_t>(kShapes));
  EXPECT_EQ(shard.merges, 1u);
  EXPECT_EQ(stats.shard_merges, 1u);
  // The fold made the adopted shapes shared: the repeat batch matches
  // every distinct shape, trained and folded, against the shared model.
  EXPECT_EQ(shard.matched_shared, 2 * first_shared + kShapes);
  for (uint64_t id : RecordAssignments(topic)) {
    EXPECT_NE(id, kInvalidTemplateId);
  }
}

// The matcher's fused scan and its two-pass tenant-rule fallback must
// agree bit for bit on the content hash and the token ids: both paths of
// the router produce the same dedup/routing keys for the same shapes.
TEST(ShardedIngestTest, FusedHashMatchesTwoPassHash) {
  const VariableReplacer fused = VariableReplacer::Default();
  VariableReplacer two_pass = VariableReplacer::Default();
  // A rule no sample contains: the same tokens, without the fused scan.
  ASSERT_TRUE(two_pass.AddRule("never", "zzqq[0-9]+").ok());
  ASSERT_TRUE(fused.fused_fast_path());
  ASSERT_FALSE(two_pass.fused_fast_path());
  ByteBrainParser parser(ByteBrainOptions{});
  ASSERT_TRUE(parser.Train({SshLog(1), SshLog(2), NovelLog(3, 1)}).ok());
  const TemplateMatcher fused_matcher(parser.model(), &fused);
  const TemplateMatcher two_pass_matcher(parser.model(), &two_pass);
  const std::vector<std::string> samples = {
      SshLog(3),
      NovelLog(7, 2),
      "",
      "10.0.0.1",
      "mixed-1a2b3c4d5e6f7a8b9c0d1a2b3c4d5e6f token  double  space",
  };
  TemplateMatcher::MatchScratch a;
  TemplateMatcher::MatchScratch b;
  for (const std::string& s : samples) {
    EXPECT_EQ(fused_matcher.Tokenize(s, &a), two_pass_matcher.Tokenize(s, &b))
        << s;
    EXPECT_EQ(a.ids, b.ids) << s;
  }
  // Replaced variable values (the IP) share a shape; different shapes
  // hash apart.
  EXPECT_EQ(fused_matcher.Tokenize(NovelLog(3, 1), &a),
            fused_matcher.Tokenize(NovelLog(3, 2), &b));
  EXPECT_NE(fused_matcher.Tokenize(NovelLog(3, 1), &a),
            fused_matcher.Tokenize(NovelLog(4, 1), &b));
}

// Topics with tenant variable rules cannot use the fused scan; the
// two-pass hash branch must still collapse variable-value duplicates
// (here the rule-replaced request id) into one shape per shard.
TEST(ShardedIngestTest, TenantRuleTopicsDedupOnTwoPassHash) {
  TopicConfig config = ShardConfig(4);
  config.variable_rules.emplace_back("reqid", "req-[0-9]+");
  ManagedTopic topic("sharded", config);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(topic.Ingest(SshLog(i)).ok());
  }
  ASSERT_TRUE(topic.trained());

  constexpr int kShapes = 6;
  std::vector<std::string> batch;
  for (int dup = 0; dup < 8; ++dup) {
    for (int shape = 0; shape < kShapes; ++shape) {
      batch.push_back("gateway" + std::to_string(shape) +
                      " timeout handling req-" + std::to_string(dup * 97) +
                      " retry scheduled");
    }
  }
  ASSERT_TRUE(topic.IngestBatch(batch).ok());

  const TopicStats stats = topic.stats();
  uint64_t adopted = 0;
  uint64_t routed = 0;
  for (const ShardStats& s : stats.shards) {
    adopted += s.adopted;
    routed += s.records;
  }
  EXPECT_EQ(routed, batch.size());
  // One adoption per shape: the rule collapsed every req-<n> variant.
  EXPECT_EQ(adopted, static_cast<uint64_t>(kShapes));
  // Each shape's records share one template id.
  std::map<std::string, std::set<TemplateId>> ids_by_shape;
  ASSERT_TRUE(topic
                  .ScanRecords(200, topic.size(),
                               [&](uint64_t, const LogRecord& rec) {
                                 ids_by_shape[rec.text.substr(0, 8)].insert(
                                     rec.template_id);
                               })
                  .ok());
  ASSERT_EQ(ids_by_shape.size(), static_cast<size_t>(kShapes));
  for (const auto& [shape, ids] : ids_by_shape) {
    EXPECT_EQ(ids.size(), 1u) << shape;
    EXPECT_NE(*ids.begin(), kInvalidTemplateId) << shape;
  }
}

// Folds happen in the batch's exclusive section while queries hold the
// shared lock: a query must never observe a record whose template id it
// cannot resolve (pendings are invisible until folded, and records are
// appended only after the fold).
TEST_P(ShardCountTest, MergeUnderConcurrentQueryStaysCoherent) {
  ManagedTopic topic("sharded", ShardConfig(GetParam()));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(topic.Ingest(SshLog(i)).ok());
  }
  ASSERT_TRUE(topic.trained());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> query_errors{0};
  std::atomic<uint64_t> queries_run{0};
  std::thread reader([&] {
    while (!done.load()) {
      auto q = topic.Query(1.0);
      if (!q.ok()) {
        query_errors.fetch_add(1);
        continue;
      }
      for (const TemplateGroup& g : q.value()) {
        // Every assigned record resolves to a renderable template: no
        // query may ever see a shard-local (unfolded) id.
        if (g.template_id != kInvalidTemplateId && g.template_text.empty()) {
          query_errors.fetch_add(1);
        }
        if (g.template_text == "<unparsed>") {
          query_errors.fetch_add(1);
        }
      }
      (void)topic.stats();
      queries_run.fetch_add(1);
    }
  });

  // 40 batches, each with novel shapes (adopt + fold) and duplicates.
  for (int round = 0; round < 40; ++round) {
    std::vector<std::string> batch;
    for (int dup = 0; dup < 4; ++dup) {
      for (int shape = 0; shape < 6; ++shape) {
        batch.push_back(NovelLog(round * 6 + shape, dup));
      }
    }
    for (int i = 0; i < 16; ++i) batch.push_back(SshLog(i));
    ASSERT_TRUE(topic.IngestBatch(std::move(batch)).ok());
  }
  done.store(true);
  reader.join();

  EXPECT_EQ(query_errors.load(), 0u);
  EXPECT_GT(queries_run.load(), 0u);
  // End state: every record carries a valid template id.
  for (uint64_t id : RecordAssignments(topic)) {
    EXPECT_NE(id, kInvalidTemplateId);
  }
}

/// One-shot gate for holding an async training in flight (same pattern
/// as service_async_test.cc).
class TrainingGate {
 public:
  std::function<void()> Hook() {
    return [this] {
      started_.fetch_add(1);
      gate_.wait();
    };
  }
  bool Started() const { return started_.load() > 0; }
  void Release() { release_.set_value(); }
  void AwaitStarted() {
    while (!Started()) std::this_thread::yield();
  }

 private:
  std::promise<void> release_;
  std::shared_future<void> gate_{release_.get_future()};
  std::atomic<int> started_{0};
};

// Sharded ingest composing with async retraining: batches keep adopting
// and folding while a training is held in flight; the commit swaps the
// model, drops every temporary (including shard pendings), and re-matches
// mid-training arrivals — no record may end up unassigned and no pending
// id may dangle into the swapped model.
TEST_P(ShardCountTest, ShardingComposesWithAsyncRetrain) {
  TrainingGate gate;
  TopicConfig config = ShardConfig(GetParam());
  config.async_training = true;
  config.train_interval_records = 300;  // retrain trigger after bootstrap
  config.on_async_training_start = gate.Hook();
  ManagedTopic topic("sharded", config);

  // Bootstrap: initial training at 200 (synchronous), then push past the
  // retrain trigger so a background training parks at the gate.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(topic.Ingest(SshLog(i)).ok());
  }
  ASSERT_TRUE(topic.trained());
  std::vector<std::string> filler;
  for (int i = 0; i < 310; ++i) filler.push_back(SshLog(i));
  ASSERT_TRUE(topic.IngestBatch(std::move(filler)).ok());
  gate.AwaitStarted();
  ASSERT_EQ(topic.stats().pending_trainings, 1u);

  // Sharded batches with novel shapes while the training is in flight:
  // adoption, folding, and queries must not wait on the training.
  for (int round = 0; round < 8; ++round) {
    std::vector<std::string> batch;
    for (int dup = 0; dup < 4; ++dup) {
      for (int shape = 0; shape < 4; ++shape) {
        batch.push_back(NovelLog(round * 4 + shape, dup));
      }
    }
    ASSERT_TRUE(topic.IngestBatch(std::move(batch)).ok());
    auto q = topic.Query(1.0);
    ASSERT_TRUE(q.ok());
  }
  EXPECT_EQ(topic.stats().pending_trainings, 1u);

  gate.Release();
  topic.WaitForPendingTraining();

  // Post-commit batch exercises the reset-shards path (all pendings were
  // dropped by the swap; novel shapes re-adopt cleanly).
  std::vector<std::string> post;
  for (int dup = 0; dup < 4; ++dup) {
    for (int shape = 100; shape < 104; ++shape) {
      post.push_back(NovelLog(shape, dup));
    }
  }
  ASSERT_TRUE(topic.IngestBatch(std::move(post)).ok());

  const TopicStats stats = topic.stats();
  EXPECT_GE(stats.trainings, 2u);
  EXPECT_GE(stats.async_trainings, 1u);
  EXPECT_EQ(stats.failed_trainings, 0u);
  EXPECT_EQ(stats.ingested_records, topic.size());
  for (uint64_t id : RecordAssignments(topic)) {
    EXPECT_NE(id, kInvalidTemplateId);
  }
}

// Letters only, so the builtin replacer keeps every word: each record
// is its own shape, all matching the trained "job * finished cleanly".
std::string JobLog(int n) {
  std::string word;
  do {
    word += static_cast<char>('a' + n % 26);
    n /= 26;
  } while (n > 0);
  return "job " + word + " finished cleanly";
}

// Repeat shapes across batches: a shape folded into the shared model by
// one batch is a plain shared-model match on every later batch, many
// distinct shapes matching one trained template adopt nothing, and the
// end state stays identical to the single-shard topic's.
TEST_P(ShardCountTest, RepeatShapesMatchSharedAcrossBatches) {
  ManagedTopic unsharded("plain", ShardConfig(1));
  ManagedTopic sharded("sharded", ShardConfig(GetParam()));
  for (int i = 0; i < 200; ++i) {
    for (const std::string& text : {SshLog(i), JobLog(i)}) {
      ASSERT_TRUE(unsharded.Ingest(text).ok());
      ASSERT_TRUE(sharded.Ingest(text).ok());
    }
  }
  ASSERT_TRUE(sharded.trained());

  constexpr int kShapes = 12;
  constexpr int kJobs = 300;
  auto make_batch = [] {
    std::vector<std::string> batch;
    for (int dup = 0; dup < 8; ++dup) {
      for (int shape = 0; shape < kShapes; ++shape) {
        batch.push_back(NovelLog(shape, dup));
      }
    }
    // Trained shapes too: SSH lines and unseen job words.
    for (int i = 0; i < 16; ++i) batch.push_back(SshLog(i));
    for (int j = 0; j < kJobs; ++j) batch.push_back(JobLog(1000 + j));
    return batch;
  };
  auto sum = [](const ManagedTopic& topic, uint64_t ShardStats::*counter) {
    uint64_t total = 0;
    for (const ShardStats& s : topic.stats().shards) total += s.*counter;
    return total;
  };

  // Batch 1: novel shapes adopt + fold; trained shapes match shared.
  ASSERT_TRUE(unsharded.IngestBatch(make_batch()).ok());
  ASSERT_TRUE(sharded.IngestBatch(make_batch()).ok());
  const uint64_t first_shared = sum(sharded, &ShardStats::matched_shared);
  EXPECT_GE(first_shared, static_cast<uint64_t>(kJobs));

  // Batches 2 and 3: every distinct shape — trained or folded — is a
  // shared-model match, and nothing re-adopts.
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(unsharded.IngestBatch(make_batch()).ok());
    ASSERT_TRUE(sharded.IngestBatch(make_batch()).ok());
  }
  EXPECT_EQ(sum(sharded, &ShardStats::adopted),
            static_cast<uint64_t>(kShapes));
  EXPECT_EQ(sum(sharded, &ShardStats::matched_shared),
            first_shared + 2 * (first_shared + kShapes));

  // End state identical to the single-shard topic.
  EXPECT_EQ(TemplateTexts(unsharded), TemplateTexts(sharded));
  const auto plain = RecordAssignments(unsharded);
  const auto shard = RecordAssignments(sharded);
  ASSERT_EQ(plain.size(), shard.size());
  EXPECT_EQ(GroupingAccuracy(plain, shard), 1.0);
  // All copies of a shape across all three batches share ONE id, and
  // every job word shares the trained job template's.
  std::map<std::string, std::set<TemplateId>> ids_by_text;
  std::set<TemplateId> job_ids;
  ASSERT_TRUE(sharded
                  .ScanRecords(400, sharded.size(),
                               [&](uint64_t, const LogRecord& rec) {
                                 ids_by_text[rec.text].insert(rec.template_id);
                                 if (rec.text.rfind("job ", 0) == 0) {
                                   job_ids.insert(rec.template_id);
                                 }
                               })
                  .ok());
  for (const auto& [text, ids] : ids_by_text) {
    EXPECT_EQ(ids.size(), 1u) << text;
  }
  EXPECT_EQ(job_ids.size(), 1u);
  EXPECT_EQ(job_ids.count(kInvalidTemplateId), 0u);

  // A training commit supersedes every temporary: the next batch's
  // shapes are all in the retrained model, so each distinct one is a
  // shared-model match and none adopts.
  ASSERT_TRUE(sharded.TrainNow().ok());
  const uint64_t shared_before_post =
      sum(sharded, &ShardStats::matched_shared);
  ASSERT_TRUE(sharded.IngestBatch(make_batch()).ok());
  EXPECT_EQ(sum(sharded, &ShardStats::matched_shared) - shared_before_post,
            first_shared + kShapes);
  EXPECT_EQ(sum(sharded, &ShardStats::adopted),
            static_cast<uint64_t>(kShapes));
  for (uint64_t id : RecordAssignments(sharded)) {
    EXPECT_NE(id, kInvalidTemplateId);
  }
}

// Two batches racing: both take the shared phase concurrently,
// their exclusive sections serialize, and the second to fold must reuse
// (not duplicate) the first's published temporaries. Deterministic
// assertions on the end state only; TSAN checks the interleaving.
TEST_P(ShardCountTest, ConcurrentBatchesDoNotDuplicateTemplates) {
  ManagedTopic topic("sharded", ShardConfig(GetParam()));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(topic.Ingest(SshLog(i)).ok());
  }
  ASSERT_TRUE(topic.trained());

  constexpr int kShapes = 10;
  auto make_batch = [] {
    std::vector<std::string> batch;
    for (int dup = 0; dup < 6; ++dup) {
      for (int shape = 0; shape < kShapes; ++shape) {
        batch.push_back(NovelLog(shape, /*dup=*/0));
      }
    }
    return batch;
  };
  std::thread t1([&] { ASSERT_TRUE(topic.IngestBatch(make_batch()).ok()); });
  std::thread t2([&] { ASSERT_TRUE(topic.IngestBatch(make_batch()).ok()); });
  t1.join();
  t2.join();

  // Every copy of a shape resolves to ONE template id across both
  // batches (colocation + the pending matcher dedup across batches).
  std::map<std::string, std::set<TemplateId>> ids_by_text;
  ASSERT_TRUE(topic
                  .ScanRecords(200, topic.size(),
                               [&](uint64_t, const LogRecord& rec) {
                                 ids_by_text[rec.text].insert(rec.template_id);
                               })
                  .ok());
  ASSERT_EQ(ids_by_text.size(), static_cast<size_t>(kShapes));
  for (const auto& [text, ids] : ids_by_text) {
    EXPECT_EQ(ids.size(), 1u) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardCountTest, ::testing::Values(1, 4));

}  // namespace
}  // namespace bytebrain
