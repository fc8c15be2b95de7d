// Unit tests for the append-only log topic and internal template topic.
#include <gtest/gtest.h>

#include <thread>

#include "logstore/log_topic.h"

namespace bytebrain {
namespace {

TEST(LogTopicTest, AppendAndRead) {
  LogTopic topic("t");
  EXPECT_EQ(topic.Append({100, "hello", 0}), 0u);
  EXPECT_EQ(topic.Append({200, "world", 0}), 1u);
  EXPECT_EQ(topic.size(), 2u);
  auto rec = topic.Read(1);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->text, "world");
  EXPECT_EQ(rec->timestamp_us, 200u);
}

TEST(LogTopicTest, ReadPastEndFails) {
  LogTopic topic("t");
  topic.Append({1, "x", 0});
  EXPECT_TRUE(topic.Read(1).status().IsNotFound());
  EXPECT_TRUE(topic.Read(999).status().IsNotFound());
}

TEST(LogTopicTest, CrossesSegmentBoundaries) {
  LogTopic topic("t", /*segment_capacity=*/4);
  for (int i = 0; i < 19; ++i) {
    topic.Append({static_cast<uint64_t>(i), "log " + std::to_string(i), 0});
  }
  EXPECT_EQ(topic.size(), 19u);
  for (int i = 0; i < 19; ++i) {
    auto rec = topic.Read(i);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->text, "log " + std::to_string(i));
  }
}

TEST(LogTopicTest, ScanRange) {
  LogTopic topic("t", 3);
  for (int i = 0; i < 10; ++i) {
    topic.Append({static_cast<uint64_t>(i), std::to_string(i), 0});
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(topic
                  .Scan(2, 7,
                        [&seen](uint64_t seq, const LogRecord& rec) {
                          EXPECT_EQ(rec.text, std::to_string(seq));
                          seen.push_back(seq);
                        })
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{2, 3, 4, 5, 6}));
}

TEST(LogTopicTest, ScanClampsEnd) {
  LogTopic topic("t");
  topic.Append({0, "a", 0});
  int n = 0;
  ASSERT_TRUE(topic.Scan(0, 100, [&n](uint64_t, const LogRecord&) { ++n; }).ok());
  EXPECT_EQ(n, 1);
}

TEST(LogTopicTest, ScanRejectsInvertedRange) {
  LogTopic topic("t");
  EXPECT_TRUE(
      topic.Scan(5, 2, [](uint64_t, const LogRecord&) {}).IsInvalidArgument());
}

TEST(LogTopicTest, AssignTemplateUpdatesRecord) {
  LogTopic topic("t");
  topic.Append({0, "a", 0});
  ASSERT_TRUE(topic.AssignTemplate(0, 42).ok());
  EXPECT_EQ(topic.Read(0)->template_id, 42u);
  EXPECT_TRUE(topic.AssignTemplate(5, 42).IsNotFound());
}

TEST(LogTopicTest, TextBytesAccumulates) {
  LogTopic topic("t");
  topic.Append({0, "abcd", 0});
  topic.Append({0, "ef", 0});
  EXPECT_EQ(topic.text_bytes(), 6u);
}

TEST(LogTopicTest, ConcurrentAppendsAllLand) {
  LogTopic topic("t", 128);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&topic, t] {
      for (int i = 0; i < kPerThread; ++i) {
        topic.Append({0, "t" + std::to_string(t), 0});
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(topic.size(), static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(InternalTopicTest, PutGetOverwrite) {
  InternalTopic topic;
  topic.Put({1, 0, 0.5, "a *", 10});
  topic.Put({2, 1, 0.9, "a b", 5});
  EXPECT_EQ(topic.size(), 2u);
  auto got = topic.Get(2);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->template_text, "a b");
  // Overwrite id 2.
  topic.Put({2, 1, 0.95, "a c", 6});
  EXPECT_EQ(topic.size(), 2u);
  EXPECT_EQ(topic.Get(2)->template_text, "a c");
  EXPECT_TRUE(topic.Get(99).status().IsNotFound());
}

TEST(InternalTopicTest, AncestorChainWalksToRoot) {
  InternalTopic topic;
  topic.Put({1, 0, 0.2, "*", 100});
  topic.Put({2, 1, 0.6, "a *", 60});
  topic.Put({3, 2, 1.0, "a b", 30});
  auto chain = topic.AncestorChain(3);
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain->size(), 3u);
  EXPECT_EQ((*chain)[0].id, 3u);
  EXPECT_EQ((*chain)[1].id, 2u);
  EXPECT_EQ((*chain)[2].id, 1u);
}

TEST(InternalTopicTest, AncestorChainDetectsDanglingParent) {
  InternalTopic topic;
  topic.Put({2, 77, 0.6, "a *", 1});  // parent 77 never stored
  EXPECT_TRUE(topic.AncestorChain(2).status().IsCorruption());
}

TEST(InternalTopicTest, AncestorChainDetectsCycle) {
  InternalTopic topic;
  topic.Put({1, 2, 0.2, "x", 1});
  topic.Put({2, 1, 0.3, "y", 1});
  EXPECT_TRUE(topic.AncestorChain(1).status().IsCorruption());
}

}  // namespace
}  // namespace bytebrain
