// Concurrency tests for asynchronous background retraining: ingest must
// never block for the duration of a training run, triggers firing during
// an in-flight cycle must coalesce into one follow-up, the end state must
// equal a synchronous training at the same trigger point, and shutdown
// with a training pending must drain cleanly. The on_async_training_start
// hook holds a training in flight deterministically (no sleeps on the
// assertion paths).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/log_service.h"
#include "threading/thread_pool.h"

namespace bytebrain {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

std::string SshLog(int i) {
  return "Accepted password for user" + std::to_string(i % 5) +
         " from 10.0.0." + std::to_string(i % 9 + 1) + " port " +
         std::to_string(40000 + i) + " ssh2";
}

std::string DiskLog(int i) {
  return "Disk quota exceeded for volume vol" + std::to_string(i % 3);
}

TopicConfig AsyncConfig() {
  TopicConfig config;
  config.initial_train_records = 50;  // first training: synchronous
  config.train_interval_records = 100;
  config.train_volume_bytes = 1ull << 40;
  config.num_threads = 2;
  config.async_training = true;
  return config;
}

/// One-shot gate the training hook blocks on; Release() is sticky, so
/// coalesced follow-up runs pass straight through.
class TrainingGate {
 public:
  std::function<void()> Hook() {
    return [this] {
      started_.fetch_add(1);
      gate_.wait();
    };
  }
  /// True once a training run has reached the hook.
  bool Started() const { return started_.load() > 0; }
  int StartCount() const { return started_.load(); }
  void Release() { release_.set_value(); }
  /// Spin until a training run is holding at the gate.
  void AwaitStarted() {
    while (!Started()) std::this_thread::sleep_for(milliseconds(1));
  }

 private:
  std::promise<void> release_;
  std::shared_future<void> gate_{release_.get_future()};
  std::atomic<int> started_{0};
};

// The acceptance scenario: a training is held in flight while ingest
// continues; every ingest call must complete in a bounded time that is
// far below the (artificially long) training duration, and the final
// state must equal that of a topic trained synchronously at the same
// trigger point.
TEST(AsyncTrainingTest, IngestIsNotBlockedByInFlightTraining) {
  TrainingGate gate;
  TopicConfig config = AsyncConfig();
  config.on_async_training_start = gate.Hook();
  ManagedTopic async_topic("async", config);

  // Records 0..149: record 50 trips the (synchronous) initial training,
  // record 150 trips the first retrain, which parks at the gate.
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(async_topic.Ingest(SshLog(i)).ok());
  }
  gate.AwaitStarted();
  EXPECT_EQ(async_topic.stats().pending_trainings, 1u);

  // 80 more records (below the next trigger) while the training is held
  // in flight. Each call is a lock + match + append — time it.
  double max_ingest_seconds = 0.0;
  for (int i = 150; i < 230; ++i) {
    const auto t0 = steady_clock::now();
    ASSERT_TRUE(async_topic.Ingest(i % 4 == 0 ? DiskLog(i) : SshLog(i)).ok());
    const double elapsed =
        std::chrono::duration<double>(steady_clock::now() - t0).count();
    max_ingest_seconds = std::max(max_ingest_seconds, elapsed);
  }
  // The training is still in flight: none of those 80 calls waited on it.
  EXPECT_EQ(async_topic.stats().pending_trainings, 1u);

  // Stretch the training run past 250ms, then let it finish.
  std::this_thread::sleep_for(milliseconds(250));
  gate.Release();
  async_topic.WaitForPendingTraining();

  const TopicStats stats = async_topic.stats();
  EXPECT_EQ(stats.pending_trainings, 0u);
  EXPECT_GE(stats.trainings, 2u);
  EXPECT_GE(stats.async_trainings, 1u);
  // The latency claim: per-call ingest time stayed well below the
  // training duration (the gate held it >= 250ms; ingest is ~µs, the
  // 100ms bound leaves room for CI noise).
  EXPECT_GE(stats.last_training_seconds, 0.25);
  EXPECT_LT(max_ingest_seconds, 0.1);
  EXPECT_LT(max_ingest_seconds, stats.last_training_seconds);

  // End-state equivalence: a topic configured for synchronous training
  // sees the identical log sequence; triggers fire at the same records
  // (150 trains on [0,150), and 80 further records stay below the next
  // trigger in both). Every record must carry the same assignment.
  TopicConfig sync_config = AsyncConfig();
  sync_config.async_training = false;
  ManagedTopic sync_topic("sync", sync_config);
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(sync_topic.Ingest(SshLog(i)).ok());
  }
  for (int i = 150; i < 230; ++i) {
    ASSERT_TRUE(sync_topic.Ingest(i % 4 == 0 ? DiskLog(i) : SshLog(i)).ok());
  }
  EXPECT_EQ(sync_topic.stats().trainings, async_topic.stats().trainings);
  EXPECT_EQ(sync_topic.stats().num_templates,
            async_topic.stats().num_templates);
  ASSERT_EQ(sync_topic.size(), async_topic.size());
  for (uint64_t seq = 0; seq < sync_topic.size(); ++seq) {
    const auto a = sync_topic.ReadRecord(seq);
    const auto b = async_topic.ReadRecord(seq);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().template_id, b.value().template_id)
        << "seq " << seq << ": " << a.value().text;
    EXPECT_NE(b.value().template_id, kInvalidTemplateId) << "seq " << seq;
  }
}

// Concurrent ingest from multiple threads while a training is in flight:
// no lost records, no duplicate template ids for the same shape, and
// every record ends up assigned after the commit.
TEST(AsyncTrainingTest, ParallelIngestDuringTrainingLosesNothing) {
  TrainingGate gate;
  TopicConfig config = AsyncConfig();
  config.on_async_training_start = gate.Hook();
  ManagedTopic topic("t", config);
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(topic.Ingest(SshLog(i)).ok());
  }
  gate.AwaitStarted();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 60;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&topic, &failures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int n = t * kPerThread + i;
        const bool single = n % 2 == 0;
        if (single) {
          if (!topic.Ingest(DiskLog(n)).ok()) failures.fetch_add(1);
        } else {
          // Batch path: its shared-lock match phase and exclusive adopt
          // section must interleave safely with the in-flight training.
          if (!topic.IngestBatch(
                  std::vector<std::string>{SshLog(n), DiskLog(n)}).ok()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  gate.Release();
  topic.WaitForPendingTraining();

  EXPECT_EQ(failures.load(), 0);
  // 150 warmup + per thread: 30 singles + 30 batches of 2.
  const uint64_t expected = 150 + kThreads * (kPerThread / 2) * 3;
  EXPECT_EQ(topic.size(), expected);
  EXPECT_EQ(topic.stats().ingested_records, expected);
  // No lost assignments across the swap, and records with identical text
  // must agree on their template id (a duplicate-adoption or a dangling
  // old-model id would split them).
  std::unordered_map<std::string, TemplateId> by_text;
  for (uint64_t seq = 0; seq < topic.size(); ++seq) {
    const auto rec = topic.ReadRecord(seq);
    ASSERT_TRUE(rec.ok());
    ASSERT_NE(rec.value().template_id, kInvalidTemplateId)
        << "record " << seq << " lost its assignment across the swap";
    const auto [it, inserted] =
        by_text.emplace(rec.value().text, rec.value().template_id);
    EXPECT_EQ(it->second, rec.value().template_id)
        << "same text, different templates: " << rec.value().text;
  }
}

// Triggers that fire while a cycle is in flight must not queue a run
// each; the commit handles the whole backlog with one follow-up.
TEST(AsyncTrainingTest, OverlappingTriggersCoalesce) {
  TrainingGate gate;
  TopicConfig config = AsyncConfig();
  config.on_async_training_start = gate.Hook();
  ManagedTopic topic("t", config);
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(topic.Ingest(SshLog(i)).ok());
  }
  gate.AwaitStarted();
  // 350 records = 3.5 trigger intervals, all while the run is held.
  for (int i = 0; i < 350; ++i) {
    ASSERT_TRUE(topic.Ingest(SshLog(1000 + i)).ok());
  }
  EXPECT_EQ(topic.stats().pending_trainings, 1u);
  EXPECT_GT(topic.stats().coalesced_triggers, 0u);
  gate.Release();
  topic.WaitForPendingTraining();

  const TopicStats stats = topic.stats();
  // Initial (sync) + held run + exactly ONE coalesced follow-up — not
  // one per absorbed trigger.
  EXPECT_EQ(stats.trainings, 3u);
  EXPECT_EQ(stats.async_trainings, 2u);
  EXPECT_EQ(stats.pending_trainings, 0u);
  EXPECT_EQ(gate.StartCount(), 2);
}

// TrainNow's contract: wait for the in-flight cycle, then train
// synchronously; counters reset identically to a triggered run.
TEST(AsyncTrainingTest, TrainNowWaitsForInFlightCycle) {
  TrainingGate gate;
  TopicConfig config = AsyncConfig();
  config.on_async_training_start = gate.Hook();
  ManagedTopic topic("t", config);
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(topic.Ingest(SshLog(i)).ok());
  }
  gate.AwaitStarted();

  // Drive TrainNow from the pool's future-returning API so the main
  // thread can release the gate while TrainNow blocks.
  ThreadPool pool(1);
  std::atomic<bool> train_now_done{false};
  std::future<void> done = pool.Schedule([&topic, &train_now_done] {
    ASSERT_TRUE(topic.TrainNow().ok());
    train_now_done.store(true);
  });
  // TrainNow must be parked behind the held training, not done already.
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(train_now_done.load());
  gate.Release();
  done.get();
  EXPECT_TRUE(train_now_done.load());
  const TopicStats stats = topic.stats();
  EXPECT_EQ(stats.pending_trainings, 0u);
  // Initial + held async run + the manual run.
  EXPECT_GE(stats.trainings, 3u);
}

// The satellite fix: triggered and manual trainings share ONE counter
// reset (at snapshot time). After TrainNow, the next automatic retrain
// must require a full interval of NEW records — no more, no less.
TEST(AsyncTrainingTest, TrainNowResetsTriggerCountersLikeTriggeredTraining) {
  TopicConfig config = AsyncConfig();
  config.async_training = false;  // exact cadence assertions
  ManagedTopic topic("t", config);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(topic.Ingest(SshLog(i)).ok());  // initial training at 50
  }
  ASSERT_EQ(topic.stats().trainings, 1u);

  // 60 records into the interval, a manual training resets the count...
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(topic.Ingest(SshLog(100 + i)).ok());
  }
  ASSERT_TRUE(topic.TrainNow().ok());
  ASSERT_EQ(topic.stats().trainings, 2u);

  // ...so 99 further records must NOT retrain, and the 100th must.
  for (int i = 0; i < 99; ++i) {
    ASSERT_TRUE(topic.Ingest(SshLog(200 + i)).ok());
    ASSERT_EQ(topic.stats().trainings, 2u) << "early retrain after " << i;
  }
  ASSERT_TRUE(topic.Ingest(SshLog(299)).ok());
  EXPECT_EQ(topic.stats().trainings, 3u);
}

// Same contract on the volume-bytes trigger, via the async path.
TEST(AsyncTrainingTest, TrainNowResetsVolumeCounter) {
  TopicConfig config = AsyncConfig();
  config.train_interval_records = 1u << 30;
  config.train_volume_bytes = 4096;
  ManagedTopic topic("t", config);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(topic.Ingest(SshLog(i)).ok());
  }
  topic.WaitForPendingTraining();
  ASSERT_TRUE(topic.TrainNow().ok());
  const uint64_t trainings_after_manual = topic.stats().trainings;

  // Stay just under the byte budget: no trigger may fire.
  uint64_t bytes = 0;
  int i = 0;
  while (true) {
    std::string log = SshLog(500 + i++);
    if (bytes + log.size() >= config.train_volume_bytes) break;
    bytes += log.size();
    ASSERT_TRUE(topic.Ingest(std::move(log)).ok());
  }
  topic.WaitForPendingTraining();
  EXPECT_EQ(topic.stats().trainings, trainings_after_manual);
  // Crossing the budget schedules the retrain.
  ASSERT_TRUE(topic.Ingest(std::string(200, 'x')).ok());
  topic.WaitForPendingTraining();
  EXPECT_EQ(topic.stats().trainings, trainings_after_manual + 1);
}

// Destroying a topic with a training pending must drain: the destructor
// waits for the in-flight run to commit and schedules no follow-up.
TEST(AsyncTrainingTest, ShutdownWithTrainingPendingDrains) {
  TrainingGate gate;
  std::atomic<bool> released{false};
  {
    TopicConfig config = AsyncConfig();
    config.on_async_training_start = gate.Hook();
    ManagedTopic topic("t", config);
    for (int i = 0; i < 150; ++i) {
      ASSERT_TRUE(topic.Ingest(SshLog(i)).ok());
    }
    // Trip enough backlog that a follow-up WOULD be due at commit; the
    // shutdown path must suppress it or the drain would train again.
    for (int i = 0; i < 150; ++i) {
      ASSERT_TRUE(topic.Ingest(SshLog(500 + i)).ok());
    }
    gate.AwaitStarted();
    std::thread releaser([&gate, &released] {
      std::this_thread::sleep_for(milliseconds(100));
      released.store(true);
      gate.Release();
    });
    releaser.detach();
    // Topic destructor runs here, while the training is held at the gate.
  }
  // The destructor must have waited for the release (drain), and the
  // suppressed follow-up means the gate was reached exactly once.
  EXPECT_TRUE(released.load());
  EXPECT_EQ(gate.StartCount(), 1);
}

// Two threads ingest across the initial trigger. With one record per
// call, the call that appends record initial_train_records - 1 trips
// the first training and returns only once the model is live; records
// the other thread appends meanwhile are assigned at the commit.
TEST(AsyncTrainingTest, ConcurrentIngestAcrossInitialTraining) {
  const TopicConfig config = AsyncConfig();
  ManagedTopic topic("t", config);
  const uint64_t tripping_seq = config.initial_train_records - 1;
  std::atomic<int> failures{0};
  std::atomic<int> tripping_calls{0};
  auto ingester = [&](bool ssh) {
    for (int i = 0; i < 60; ++i) {
      auto seq = topic.Ingest(ssh ? SshLog(i) : DiskLog(i));
      if (!seq.ok()) {
        failures.fetch_add(1);
      } else if (seq.value() == tripping_seq) {
        tripping_calls.fetch_add(1);
        if (!topic.trained()) failures.fetch_add(1);
      }
    }
  };
  std::thread a(ingester, true);
  std::thread b(ingester, false);
  a.join();
  b.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(tripping_calls.load(), 1);
  ASSERT_EQ(topic.size(), 120u);
  for (uint64_t seq = 0; seq < topic.size(); ++seq) {
    EXPECT_NE(topic.ReadRecord(seq)->template_id, kInvalidTemplateId)
        << "seq " << seq;
  }
}

// A cycle nobody waits for fails (its start hook throws): the ingest
// that tripped it still succeeds, the failure is counted, and the next
// trigger trains normally.
TEST(AsyncTrainingTest, FailedTrainingNeverFailsTheIngest) {
  std::atomic<int> hook_calls{0};
  TopicConfig config = AsyncConfig();
  config.on_async_training_start = [&hook_calls] {
    if (hook_calls.fetch_add(1) == 0) throw std::runtime_error("hook failed");
  };
  ManagedTopic topic("t", config);
  // Record 50 trips the initial training (waited, no hook), record 150
  // the first retrain, whose hook throws.
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(topic.Ingest(SshLog(i)).ok());
  }
  topic.WaitForPendingTraining();
  TopicStats stats = topic.stats();
  EXPECT_EQ(stats.failed_trainings, 1u);
  EXPECT_EQ(stats.pending_trainings, 0u);
  EXPECT_EQ(stats.trainings, 1u);

  // The failed cycle's snapshot reset the counters: a full interval
  // later the next retrain runs and commits.
  for (int i = 150; i < 250; ++i) {
    ASSERT_TRUE(topic.Ingest(SshLog(i)).ok());
  }
  topic.WaitForPendingTraining();
  stats = topic.stats();
  EXPECT_EQ(stats.failed_trainings, 1u);
  EXPECT_EQ(stats.trainings, 2u);
  EXPECT_EQ(stats.async_trainings, 1u);
  EXPECT_EQ(hook_calls.load(), 2);
}

// Queries must run (shared lock) while a training is in flight, and see
// a consistent pre-swap view.
TEST(AsyncTrainingTest, QueriesRunDuringInFlightTraining) {
  TrainingGate gate;
  TopicConfig config = AsyncConfig();
  config.on_async_training_start = gate.Hook();
  ManagedTopic topic("t", config);
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(topic.Ingest(SshLog(i)).ok());
  }
  gate.AwaitStarted();
  auto groups = topic.Query(0.5);
  ASSERT_TRUE(groups.ok());
  uint64_t total = 0;
  for (const auto& g : groups.value()) total += g.count;
  EXPECT_EQ(total, 150u);
  gate.Release();
  topic.WaitForPendingTraining();
}

}  // namespace
}  // namespace bytebrain
