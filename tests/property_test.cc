// Property-based tests: randomized differential and invariant checks
// across the regex engine, tokenizer, saturation, clustering, model
// round-trips and grouping accuracy.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <regex>
#include <set>
#include <unordered_map>

#include "core/cluster.h"
#include "core/model.h"
#include "core/parser.h"
#include "core/tokenizer.h"
#include "eval/metrics.h"
#include "logstore/disk_backend.h"
#include "logstore/fault_injection.h"
#include "regex/regex.h"
#include "test_logs.h"
#include "util/rng.h"

namespace bytebrain {
namespace {

// ---------------------------------------------------------------------
// Regex engine vs std::regex (ECMAScript) differential.
//
// Whole-string acceptance is preference-order independent, so
// Regex::FullMatch and std::regex_match must agree for any pattern both
// engines support.
// ---------------------------------------------------------------------

std::string RandomPattern(Rng* rng) {
  static const char* atoms[] = {"a",    "b",     "c",    "\\d", "\\w",
                                "[ab]", "[a-c]", "[^c]", "."};
  static const char* quants[] = {"", "", "*", "+", "?", "{2}", "{1,3}"};
  std::string p;
  const int pieces = 1 + static_cast<int>(rng->NextBelow(5));
  for (int i = 0; i < pieces; ++i) {
    p += atoms[rng->NextBelow(std::size(atoms))];
    p += quants[rng->NextBelow(std::size(quants))];
  }
  return p;
}

std::string RandomText(Rng* rng) {
  static const char alphabet[] = "abc1 ";
  std::string t;
  const int len = static_cast<int>(rng->NextBelow(9));
  for (int i = 0; i < len; ++i) {
    t += alphabet[rng->NextBelow(5)];
  }
  return t;
}

class RegexDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RegexDifferentialTest, FullMatchAgreesWithStdRegex) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::string pattern = RandomPattern(&rng);
    auto mine = Regex::Compile(pattern);
    ASSERT_TRUE(mine.ok()) << pattern;
    std::regex theirs(pattern, std::regex::ECMAScript);
    for (int t = 0; t < 20; ++t) {
      const std::string text = RandomText(&rng);
      const bool my_answer = mine->FullMatch(text);
      const bool their_answer = std::regex_match(text, theirs);
      ASSERT_EQ(my_answer, their_answer)
          << "pattern='" << pattern << "' text='" << text << "'";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------
// Tokenizer invariants on random byte strings.
// ---------------------------------------------------------------------

class TokenizerFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TokenizerFuzzTest, TokensAreNonEmptyOrderedSubstrings) {
  Rng rng(GetParam());
  static const char alphabet[] =
      "ab:=/\\'\" .,;(){}[]<>?@&\t\n0129-_*xyzXYZ";
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    const int len = static_cast<int>(rng.NextBelow(60));
    for (int i = 0; i < len; ++i) {
      text += alphabet[rng.NextBelow(sizeof(alphabet) - 1)];
    }
    auto tokens = TokenizeDefault(text);
    size_t cursor = 0;
    for (std::string_view tok : tokens) {
      ASSERT_FALSE(tok.empty()) << '"' << text << '"';
      // Each token must be a substring of the input at or after the
      // previous token's end (order preserved, no overlap).
      const size_t pos = text.find(std::string(tok), cursor);
      ASSERT_NE(pos, std::string::npos) << '"' << text << '"';
      cursor = pos + tok.size();
      // Tokens never contain hard delimiter characters.
      for (char c : tok) {
        ASSERT_EQ(std::string_view("\t\n ;=,(){}[]<>?@&'\"").find(c),
                  std::string_view::npos)
            << '"' << text << "\" token \"" << tok << '"';
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenizerFuzzTest,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------
// Saturation invariants on random groups.
// ---------------------------------------------------------------------

std::vector<EncodedLog> RandomLogs(Rng* rng, size_t n, size_t m,
                                   uint32_t vocab) {
  std::vector<std::vector<std::string>> rows(n);
  for (auto& row : rows) {
    for (size_t p = 0; p < m; ++p) {
      row.push_back("t" + std::to_string(p) + "_" +
                    std::to_string(rng->NextBelow(vocab)));
    }
  }
  return MakeLogs(rows);
}

class SaturationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SaturationPropertyTest, BoundedAndOneIffResolvedOrConfirmedVariable) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = 2 + rng.NextBelow(12);
    const size_t m = 1 + rng.NextBelow(8);
    const uint32_t vocab = 1 + static_cast<uint32_t>(rng.NextBelow(6));
    auto logs = RandomLogs(&rng, n, m, vocab);
    std::vector<uint32_t> members(n);
    for (uint32_t i = 0; i < n; ++i) members[i] = i;
    const double s = ComputeSaturation(logs, members, {});
    ASSERT_GE(s, 0.0);
    ASSERT_LE(s, 1.0);
    const PositionStats stats = ComputePositionStats(logs, members);
    uint32_t unresolved_full = 0;
    uint32_t unresolved = 0;
    for (uint32_t nu : stats.distinct) {
      if (nu <= 1) continue;
      ++unresolved;
      if (nu == stats.num_logs) ++unresolved_full;
    }
    if (stats.fully_resolved() ||
        (unresolved == 1 && unresolved_full == 1)) {
      ASSERT_DOUBLE_EQ(s, 1.0);
    } else {
      ASSERT_LT(s, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SaturationPropertyTest,
                         ::testing::Values(101, 202, 303));

// ---------------------------------------------------------------------
// Clustering partition invariant on random groups.
// ---------------------------------------------------------------------

class ClusterPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClusterPropertyTest, OutcomeIsAlwaysAPartition) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 2 + rng.NextBelow(30);
    const size_t m = 2 + rng.NextBelow(6);
    auto logs = RandomLogs(&rng, n, m, 4);
    // Dedup identical token rows (the clusterer's contract).
    std::vector<uint32_t> members;
    std::set<std::vector<uint64_t>> seen;
    for (uint32_t i = 0; i < n; ++i) {
      const std::vector<uint64_t> row(logs[i].tokens.begin(),
                                      logs[i].tokens.end());
      if (seen.insert(row).second) members.push_back(i);
    }
    if (members.size() < 2) continue;
    const double parent = ComputeSaturation(logs, members, {});
    Rng crng(trial * 7919 + GetParam());
    auto outcome = SingleClusteringProcess(
        logs, members, ComputePositionStats(logs, members), parent, {},
        &crng);
    if (!outcome.split) continue;
    ASSERT_EQ(outcome.cluster_stats.size(), outcome.clusters.size());
    std::vector<uint32_t> all;
    for (size_t c = 0; c < outcome.clusters.size(); ++c) {
      // The stats handed back are exactly those of the cluster.
      const PositionStats expect =
          ComputePositionStats(logs, outcome.clusters[c]);
      const PositionStats& got = outcome.cluster_stats[c];
      ASSERT_EQ(got.distinct, expect.distinct);
      ASSERT_EQ(got.num_logs, expect.num_logs);
      ASSERT_EQ(got.num_constant, expect.num_constant);
      ASSERT_EQ(got.num_variable, expect.num_variable);
      const auto& cluster = outcome.clusters[c];
      ASSERT_FALSE(cluster.empty());
      all.insert(all.end(), cluster.begin(), cluster.end());
    }
    std::sort(all.begin(), all.end());
    std::vector<uint32_t> expected = members;
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(all, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterPropertyTest,
                         ::testing::Values(7, 77, 777));

// ---------------------------------------------------------------------
// Model serialization round-trip on random trees.
// ---------------------------------------------------------------------

class ModelRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModelRoundTripTest, SerializeDeserializeIsIdentity) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    TemplateModel model;
    const size_t n = 1 + rng.NextBelow(40);
    std::vector<TemplateId> ids;
    for (size_t i = 0; i < n; ++i) {
      const TemplateId parent =
          ids.empty() || rng.NextBelow(4) == 0
              ? kInvalidTemplateId
              : ids[rng.NextBelow(ids.size())];
      std::vector<std::string> tokens;
      const size_t len = 1 + rng.NextBelow(6);
      for (size_t t = 0; t < len; ++t) {
        tokens.push_back(rng.NextBelow(3) == 0
                             ? "*"
                             : "w" + std::to_string(rng.NextBelow(12)));
      }
      ids.push_back(model.AddNode(parent, rng.NextDouble(), tokens,
                                  rng.NextBelow(1000),
                                  rng.NextBelow(8) == 0));
    }
    auto restored = TemplateModel::Deserialize(model.Serialize());
    ASSERT_TRUE(restored.ok());
    ASSERT_EQ(restored->size(), model.size());
    ASSERT_EQ(restored->Serialize(), model.Serialize());
    for (TemplateId id : ids) {
      const TreeNode* a = model.node(id);
      const TreeNode* b = restored->node(id);
      ASSERT_EQ(a->parent, b->parent);
      ASSERT_EQ(a->tokens, b->tokens);
      ASSERT_EQ(a->children, b->children);
      ASSERT_DOUBLE_EQ(a->saturation, b->saturation);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelRoundTripTest,
                         ::testing::Values(13, 131, 1313));

// ---------------------------------------------------------------------
// Grouping accuracy metric properties.
// ---------------------------------------------------------------------

class MetricsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricsPropertyTest, RelabelingInvarianceAndSelfIdentity) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = 1 + rng.NextBelow(200);
    std::vector<uint32_t> gt(n);
    for (auto& g : gt) g = static_cast<uint32_t>(rng.NextBelow(10));
    // Identity: predicting gt itself scores 1.
    std::vector<uint64_t> same(gt.begin(), gt.end());
    ASSERT_DOUBLE_EQ(GroupingAccuracy(same, gt), 1.0);
    // Invariance under bijective relabeling.
    std::vector<uint64_t> relabeled(n);
    for (size_t i = 0; i < n; ++i) relabeled[i] = Mix64(gt[i] + 7);
    ASSERT_DOUBLE_EQ(GroupingAccuracy(relabeled, gt), 1.0);
    // Any prediction scores within [0, 1].
    std::vector<uint64_t> random(n);
    for (auto& r : random) r = rng.NextBelow(5);
    const double ga = GroupingAccuracy(random, gt);
    ASSERT_GE(ga, 0.0);
    ASSERT_LE(ga, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsPropertyTest,
                         ::testing::Values(3, 33, 333));

// ---------------------------------------------------------------------
// Segmented disk backend round-trip: arbitrary record batches written
// through the disk backend, reopened, must read back byte-identical
// with identical sequence numbers — across 100 seeded corpora (4 seed
// params x 25 trials) covering empty texts, delimiter-heavy bytes,
// random segment sizes (many seals), template reassignments, and
// mid-stream checkpoints. The sparse index rebuilt at reopen must
// agree with the reassigned ids: template counts over the whole store
// and over a time window equal the counts of what was written.
// ---------------------------------------------------------------------

class DiskRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DiskRoundTripTest, ReopenIsByteIdentical) {
  Rng rng(GetParam());
  static const char alphabet[] =
      "ab:=/\\'\" .,;(){}[]<>?@&\t\n0129-_*xyzXYZ\x01\x7f\xff";
  for (int trial = 0; trial < 25; ++trial) {
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("bb_prop_" + std::to_string(::getpid()) + "_" +
          std::to_string(GetParam()) + "_" + std::to_string(trial)))
            .string();
    std::filesystem::remove_all(dir);

    StorageConfig cfg;
    cfg.kind = StorageConfig::Kind::kSegmentedDisk;
    cfg.directory = dir;
    cfg.segment_data_bytes = 64 + rng.NextBelow(512);  // force many seals
    std::vector<LogRecord> written;
    {
      SegmentedDiskBackend backend(cfg);
      ASSERT_TRUE(backend.Open().ok());
      const int batches = 1 + static_cast<int>(rng.NextBelow(5));
      for (int b = 0; b < batches; ++b) {
        const int count = static_cast<int>(rng.NextBelow(40));
        for (int i = 0; i < count; ++i) {
          LogRecord rec;
          rec.timestamp_us = rng.Next();
          rec.template_id = rng.NextBelow(1000);
          const int len = static_cast<int>(rng.NextBelow(80));
          for (int c = 0; c < len; ++c) {
            rec.text += alphabet[rng.NextBelow(sizeof(alphabet) - 1)];
          }
          written.push_back(rec);
          ASSERT_TRUE(backend.AppendBatch({std::move(rec)}).ok());
        }
        if (rng.NextBelow(3) == 0) {
          ASSERT_TRUE(
              backend.Checkpoint("meta" + std::to_string(b)).ok());
        }
      }
      // Random template reassignments (sealed and active alike).
      for (size_t i = 0; i < written.size(); i += 1 + rng.NextBelow(7)) {
        const TemplateId id = rng.NextBelow(5000);
        written[i].template_id = id;
        ASSERT_TRUE(backend.AssignTemplates(i, {id}).ok());
      }
      ASSERT_TRUE(backend.Flush().ok());
    }

    SegmentedDiskBackend reopened(cfg);
    ASSERT_TRUE(reopened.Open().ok());
    ASSERT_EQ(reopened.size(), written.size()) << dir;
    uint64_t expect_bytes = 0;
    for (uint64_t seq = 0; seq < written.size(); ++seq) {
      LogRecord rec;
      ASSERT_TRUE(reopened.Read(seq, &rec).ok());
      EXPECT_EQ(rec.text, written[seq].text) << "seq " << seq;
      EXPECT_EQ(rec.timestamp_us, written[seq].timestamp_us) << "seq " << seq;
      EXPECT_EQ(rec.template_id, written[seq].template_id) << "seq " << seq;
      expect_bytes += rec.text.size();
    }
    EXPECT_EQ(reopened.text_bytes(), expect_bytes);
    // Scan agrees with Read, with consecutive sequence numbers.
    uint64_t next_seq = 0;
    ASSERT_TRUE(reopened
                    .Scan(0, reopened.size(),
                          [&](uint64_t seq, const LogRecord& rec) {
                            EXPECT_EQ(seq, next_seq++);
                            EXPECT_EQ(rec.text, written[seq].text);
                          })
                    .ok());
    EXPECT_EQ(next_seq, written.size());
    // Postings and time ranges of the reopened store: whole store (the
    // postings answer it) and one window between two written timestamps
    // (segments are skipped, answered from postings, or filtered).
    const auto pick_ts = [&]() -> uint64_t {
      return written.empty()
                 ? 0
                 : written[rng.NextBelow(written.size())].timestamp_us;
    };
    const uint64_t t1 = pick_ts();
    const uint64_t t2 = pick_ts();
    const uint64_t lo = std::min(t1, t2);
    const uint64_t hi = std::max(t1, t2);
    std::unordered_map<TemplateId, uint64_t> expect_all, expect_window;
    for (const LogRecord& rec : written) {
      ++expect_all[rec.template_id];
      if (rec.timestamp_us >= lo && rec.timestamp_us <= hi) {
        ++expect_window[rec.template_id];
      }
    }
    std::unordered_map<TemplateId, uint64_t> all, window;
    ASSERT_TRUE(
        reopened.TemplateCounts(0, reopened.size(), 0, UINT64_MAX, &all).ok());
    ASSERT_TRUE(
        reopened.TemplateCounts(0, reopened.size(), lo, hi, &window).ok());
    EXPECT_EQ(all, expect_all) << dir;
    EXPECT_EQ(window, expect_window) << dir;
    std::filesystem::remove_all(dir);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiskRoundTripTest,
                         ::testing::Values(17, 171, 1717, 17171));

// ---------------------------------------------------------------------
// End-to-end: training-set matching is closed (every trained log
// matches) across random corpora.
// ---------------------------------------------------------------------

class ParserClosureTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserClosureTest, EveryTrainingLogMatchesOnline) {
  Rng rng(GetParam());
  std::vector<std::string> logs;
  const int templates = 3 + static_cast<int>(rng.NextBelow(10));
  for (int i = 0; i < 400; ++i) {
    const int t = static_cast<int>(rng.NextBelow(templates));
    std::string log = "svc" + std::to_string(t) + " event";
    const int vars = t % 3 + 1;
    for (int v = 0; v < vars; ++v) {
      log += " k" + std::to_string(v) + "=" +
             std::to_string(rng.NextBelow(50));
    }
    logs.push_back(std::move(log));
  }
  ByteBrainOptions options;
  options.trainer.num_threads = 2;
  ByteBrainParser parser(options);
  ASSERT_TRUE(parser.Train(logs).ok());
  for (const std::string& log : logs) {
    ASSERT_NE(parser.Match(log), kInvalidTemplateId) << log;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserClosureTest,
                         ::testing::Values(5, 55, 555, 5555));

// ---------------------------------------------------------------------
// WAL crash-replay property: for ANY random corpus and ANY random crash
// point, reopening with clean IO recovers a byte-identical prefix of
// what was offered, covering at least the acknowledged records — and
// never crashes (ISSUE 6 satellite).
// ---------------------------------------------------------------------

class WalTempDir {
 public:
  WalTempDir() {
    static std::atomic<uint64_t> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("bb_walprop_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter.fetch_add(1))))
                .string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~WalTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

StorageConfig WalPropConfig(const std::string& dir, FileOps* ops) {
  StorageConfig cfg;
  cfg.kind = StorageConfig::Kind::kSegmentedDisk;
  cfg.directory = dir;
  cfg.segment_data_bytes = 512;  // force seals (and WAL rotations)
  cfg.durability = DurabilityMode::kWalGroupCommit;
  cfg.file_ops = ops;
  return cfg;
}

class WalCrashReplayTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalCrashReplayTest, RecoversExactlyAnAckedCoveringPrefix) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 12; ++trial) {
    WalTempDir dir;
    FaultSchedule schedule;
    schedule.crash_at_op = 1 + rng.NextBelow(120);
    FaultInjectingFileOps ops(schedule);

    std::vector<LogRecord> written;
    uint64_t acked = 0;
    {
      SegmentedDiskBackend backend(WalPropConfig(dir.path(), &ops));
      if (!backend.Open().ok()) {
        // Crashed during open: nothing offered, reopen below must still
        // come up clean (and empty).
      } else {
        const int batches = 2 + static_cast<int>(rng.NextBelow(8));
        uint64_t ts = 0;
        for (int b = 0; b < batches && !ops.crashed(); ++b) {
          std::vector<LogRecord> batch;
          const size_t n = 1 + rng.NextBelow(5);
          for (size_t i = 0; i < n; ++i) {
            LogRecord record;
            record.timestamp_us = ++ts;
            record.text = "p" + std::to_string(b) + "." + std::to_string(i);
            record.text.append(rng.NextBelow(60), 'y');
            batch.push_back(record);
          }
          written.insert(written.end(), batch.begin(), batch.end());
          const bool appended = backend.AppendBatch(batch).ok();
          const bool durable = backend.WaitDurable().ok();
          if (appended && durable) acked = written.size();
        }
      }
    }

    SegmentedDiskBackend reopened(WalPropConfig(dir.path(), nullptr));
    const Status opened = reopened.Open();
    ASSERT_TRUE(opened.ok()) << opened.ToString();
    ASSERT_GE(reopened.size(), acked);
    ASSERT_LE(reopened.size(), written.size());
    for (uint64_t i = 0; i < reopened.size(); ++i) {
      LogRecord out;
      ASSERT_TRUE(reopened.Read(i, &out).ok());
      ASSERT_EQ(out.text, written[i].text);
      ASSERT_EQ(out.timestamp_us, written[i].timestamp_us);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalCrashReplayTest,
                         ::testing::Values(11, 111, 1111, 11111));

// ---------------------------------------------------------------------
// Backend fault-schedule property: a random Status-fault schedule over
// a random sequence of one- and multi-record AppendBatch, Read, Flush
// and Checkpoint calls never crashes, never loses an appended record
// (the fail-soft contract), and never corrupts what a mirror model
// expects.
// ---------------------------------------------------------------------

class BackendFaultScheduleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BackendFaultScheduleTest, FailSoftContractHoldsUnderAnySchedule) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    BackendFaultSchedule schedule;
    schedule.fail_append_at = rng.NextBelow(10);
    schedule.fail_read_at = rng.NextBelow(10);
    schedule.fail_flush_at = rng.NextBelow(6);
    schedule.fail_checkpoint_at = rng.NextBelow(6);
    FaultInjectingBackend backend(std::make_unique<MemoryBackend>(8),
                                  schedule);
    ASSERT_TRUE(backend.Open().ok());

    std::vector<std::string> mirror;
    std::string checkpointed;
    for (int op = 0; op < 40; ++op) {
      switch (rng.NextBelow(5)) {
        case 0: {
          LogRecord record;
          record.text = "r" + std::to_string(op);
          record.timestamp_us = op;
          mirror.push_back(record.text);
          // Error or not, the record must land (sequence numbering).
          (void)backend.AppendBatch({std::move(record)});
          break;
        }
        case 1: {
          std::vector<LogRecord> batch;
          const size_t n = 1 + rng.NextBelow(4);
          for (size_t i = 0; i < n; ++i) {
            LogRecord record;
            record.text = "b" + std::to_string(op) + "." + std::to_string(i);
            record.timestamp_us = op;
            mirror.push_back(record.text);
            batch.push_back(std::move(record));
          }
          (void)backend.AppendBatch(std::move(batch));
          break;
        }
        case 2: {
          if (mirror.empty()) break;
          const uint64_t seq = rng.NextBelow(mirror.size());
          LogRecord out;
          if (backend.Read(seq, &out).ok()) {
            ASSERT_EQ(out.text, mirror[seq]);
          }
          break;
        }
        case 3:
          (void)backend.Flush();
          break;
        case 4: {
          const std::string blob = "meta" + std::to_string(op);
          if (backend.Checkpoint(blob).ok()) checkpointed = blob;
          break;
        }
      }
      ASSERT_EQ(backend.size(), mirror.size());
    }
    // A clean re-read at the end sees every appended record.
    for (size_t i = 0; i < mirror.size(); ++i) {
      LogRecord out;
      const Status read = backend.Read(i, &out);
      if (read.ok()) ASSERT_EQ(out.text, mirror[i]);
    }
    // The metadata is whatever the last SUCCESSFUL checkpoint stored —
    // a faulted checkpoint must not have forwarded.
    if (!checkpointed.empty()) {
      ASSERT_EQ(backend.metadata(), checkpointed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendFaultScheduleTest,
                         ::testing::Values(21, 212, 2121, 21212));

}  // namespace
}  // namespace bytebrain
