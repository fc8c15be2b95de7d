// Tests for the template model: tree structure, threshold resolution,
// serialization, merging, and temporary-template adoption.
#include <gtest/gtest.h>

#include <cstring>

#include "core/model.h"

namespace bytebrain {
namespace {

std::vector<std::string> Toks(std::initializer_list<const char*> toks) {
  return std::vector<std::string>(toks.begin(), toks.end());
}

TEST(TemplateSimilarityTest, ExactWildcardAndMismatch) {
  EXPECT_DOUBLE_EQ(TemplateSimilarity(Toks({"a", "b"}), Toks({"a", "b"})), 1.0);
  EXPECT_DOUBLE_EQ(TemplateSimilarity(Toks({"a", "*"}), Toks({"a", "b"})),
                   0.75);
  EXPECT_DOUBLE_EQ(TemplateSimilarity(Toks({"a", "b"}), Toks({"x", "y"})), 0.0);
  EXPECT_DOUBLE_EQ(TemplateSimilarity(Toks({"a"}), Toks({"a", "b"})), 0.0);
  EXPECT_DOUBLE_EQ(TemplateSimilarity({}, {}), 1.0);
}

TEST(TemplateModelTest, AddNodeBuildsTree) {
  TemplateModel model;
  TemplateId root = model.AddNode(0, 0.3, Toks({"a", "*", "*"}), 100);
  TemplateId child = model.AddNode(root, 0.8, Toks({"a", "b", "*"}), 60);
  TemplateId leaf = model.AddNode(child, 1.0, Toks({"a", "b", "c"}), 30);
  EXPECT_EQ(model.size(), 3u);
  ASSERT_EQ(model.roots().size(), 1u);
  EXPECT_EQ(model.roots()[0], root);
  EXPECT_EQ(model.node(root)->children, std::vector<TemplateId>{child});
  EXPECT_EQ(model.node(leaf)->parent, child);
  EXPECT_TRUE(model.node(leaf)->is_leaf());
  EXPECT_FALSE(model.node(root)->is_leaf());
}

TEST(TemplateModelTest, NodeLookupBounds) {
  TemplateModel model;
  model.AddNode(0, 1.0, Toks({"x"}), 1);
  EXPECT_NE(model.node(1), nullptr);
  EXPECT_EQ(model.node(0), nullptr);
  EXPECT_EQ(model.node(2), nullptr);
}

TEST(TemplateModelTest, TemplateText) {
  TemplateModel model;
  TemplateId id = model.AddNode(0, 1.0, Toks({"release", "lock", "*"}), 1);
  EXPECT_EQ(model.TemplateText(id), "release lock *");
  EXPECT_EQ(model.TemplateText(999), "");
}

TEST(TemplateModelTest, MergedWildcardTextCollapsesRuns) {
  // §7: "users * * *" renders as "users *" at the query-result layer.
  TemplateModel model;
  TemplateId id = model.AddNode(0, 1.0, Toks({"users", "*", "*", "*"}), 1);
  EXPECT_EQ(model.MergedWildcardText(id), "users *");
  TemplateId id2 = model.AddNode(0, 1.0, Toks({"*", "a", "*", "*", "b"}), 1);
  EXPECT_EQ(model.MergedWildcardText(id2), "* a * b");
}

TEST(TemplateModelTest, ResolveAtThresholdPicksCoarsest) {
  TemplateModel model;
  TemplateId root = model.AddNode(0, 0.3, Toks({"a", "*", "*"}), 100);
  TemplateId mid = model.AddNode(root, 0.7, Toks({"a", "b", "*"}), 60);
  TemplateId leaf = model.AddNode(mid, 1.0, Toks({"a", "b", "c"}), 30);
  // Threshold below the root's saturation: the root is the coarsest.
  EXPECT_EQ(model.ResolveAtThreshold(leaf, 0.2).value(), root);
  // Threshold between root and mid: mid is the coarsest that qualifies.
  EXPECT_EQ(model.ResolveAtThreshold(leaf, 0.5).value(), mid);
  // Threshold between mid and leaf.
  EXPECT_EQ(model.ResolveAtThreshold(leaf, 0.9).value(), leaf);
  // Resolving from an inner node works the same way.
  EXPECT_EQ(model.ResolveAtThreshold(mid, 0.2).value(), root);
  // Unknown id.
  EXPECT_TRUE(model.ResolveAtThreshold(999, 0.5).status().IsNotFound());
}

TEST(TemplateModelTest, ResolveAtThresholdAboveLeafReturnsLeaf) {
  TemplateModel model;
  TemplateId root = model.AddNode(0, 0.3, Toks({"a", "*"}), 10);
  TemplateId leaf = model.AddNode(root, 0.8, Toks({"a", "b"}), 5);
  // Even 0.95 > leaf saturation: fall back to the most precise node.
  EXPECT_EQ(model.ResolveAtThreshold(leaf, 0.95).value(), leaf);
}

TEST(TemplateModelTest, SerializeDeserializeRoundTrip) {
  TemplateModel model;
  TemplateId root = model.AddNode(0, 0.4, Toks({"a", "*"}), 10);
  model.AddNode(root, 1.0, Toks({"a", "b"}), 6);
  model.AddNode(root, 1.0, Toks({"a", "c"}), 4);
  model.AdoptTemporary(Toks({"temp", "x"}));

  std::string bytes = model.Serialize();
  auto restored = TemplateModel::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->size(), 4u);
  EXPECT_EQ(restored->roots().size(), 2u);  // root + temporary
  EXPECT_EQ(restored->node(2)->parent, root);
  EXPECT_EQ(restored->TemplateText(1), "a *");
  EXPECT_DOUBLE_EQ(restored->node(1)->saturation, 0.4);
  EXPECT_EQ(restored->node(1)->support, 10u);
  EXPECT_TRUE(restored->node(4)->temporary);
  EXPECT_EQ(restored->node(1)->children.size(), 2u);
}

// A serialized root (id 1) -> child (id 2), each node holding one
// one-byte token, with the two parent links overwritten as given.
std::string SerializedPair(TemplateId parent_of_1, TemplateId parent_of_2) {
  TemplateModel model;
  model.AddNode(model.AddNode(0, 0.5, Toks({"a"}), 2), 1.0, Toks({"b"}), 1);
  std::string bytes = model.Serialize();
  constexpr size_t kHeader = 8 + 8;                        // magic, count
  constexpr size_t kNode = 8 + 8 + 8 + 8 + 4 + 4 + 4 + 1;  // + one token
  std::memcpy(bytes.data() + kHeader + 8, &parent_of_1, 8);
  std::memcpy(bytes.data() + kHeader + kNode + 8, &parent_of_2, 8);
  return bytes;
}

bool PairIsCorrupt(TemplateId parent_of_1, TemplateId parent_of_2) {
  const std::string bytes = SerializedPair(parent_of_1, parent_of_2);
  return TemplateModel::Deserialize(bytes).status().IsCorruption();
}

TEST(TemplateModelTest, DeserializeRejectsGarbage) {
  EXPECT_TRUE(TemplateModel::Deserialize("nonsense").status().IsCorruption());
  TemplateModel model;
  model.AddNode(0, 1.0, Toks({"a"}), 1);
  std::string bytes = model.Serialize();
  bytes.resize(bytes.size() - 3);  // truncate
  EXPECT_TRUE(TemplateModel::Deserialize(bytes).status().IsCorruption());

  // The rewrite helper is exact: unchanged links round-trip, and
  // detaching the child yields two roots.
  ASSERT_TRUE(TemplateModel::Deserialize(SerializedPair(0, 1)).ok());
  auto detached = TemplateModel::Deserialize(SerializedPair(0, 0));
  ASSERT_TRUE(detached.ok());
  EXPECT_EQ(detached->roots().size(), 2u);
  // Parent links that cannot come from any built model: a dangling
  // parent, a self-parent and a 2-cycle (ResolveAtThreshold would walk
  // the last two forever).
  EXPECT_TRUE(PairIsCorrupt(0, 77));
  EXPECT_TRUE(PairIsCorrupt(1, 1));
  EXPECT_TRUE(PairIsCorrupt(2, 1));
}

TEST(TemplateModelTest, ApproxBytesTracksContent) {
  TemplateModel small;
  small.AddNode(0, 1.0, Toks({"a"}), 1);
  TemplateModel big;
  TemplateId root = big.AddNode(0, 0.5, Toks({"some", "longer", "template",
                                              "with", "many", "tokens"}),
                                1);
  for (int i = 0; i < 20; ++i) {
    big.AddNode(root, 1.0, Toks({"some", "longer", "template", "with",
                                 "many", "tokens"}),
                1);
  }
  EXPECT_GT(big.ApproxBytes(), small.ApproxBytes());
  // ApproxBytes should track the serialized size closely.
  EXPECT_NEAR(static_cast<double>(big.ApproxBytes()),
              static_cast<double>(big.Serialize().size()),
              static_cast<double>(big.ApproxBytes()) * 0.2);
}

TEST(TemplateModelTest, AdoptAndDropTemporaries) {
  TemplateModel model;
  TemplateId root = model.AddNode(0, 0.5, Toks({"a", "*"}), 10);
  TemplateId leaf = model.AddNode(root, 1.0, Toks({"a", "b"}), 10);
  TemplateId tmp = model.AdoptTemporary(Toks({"new", "shape"}));
  EXPECT_EQ(model.size(), 3u);
  EXPECT_TRUE(model.node(tmp)->temporary);
  EXPECT_DOUBLE_EQ(model.node(tmp)->saturation, 1.0);

  model.DropTemporaries();
  EXPECT_EQ(model.size(), 2u);
  // Ids are re-densified; structure preserved.
  ASSERT_EQ(model.roots().size(), 1u);
  const TreeNode* r = model.node(model.roots()[0]);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->tokens, Toks({"a", "*"}));
  ASSERT_EQ(r->children.size(), 1u);
  EXPECT_EQ(model.node(r->children[0])->tokens, Toks({"a", "b"}));
  (void)leaf;
}

TEST(TemplateModelTest, MergeFromMatchingTemplatesMergesSupport) {
  TemplateModel existing;
  TemplateId root = existing.AddNode(0, 0.5, Toks({"conn", "*", "*"}), 100);
  existing.AddNode(root, 1.0, Toks({"conn", "open", "*"}), 60);

  TemplateModel incoming;
  TemplateId new_root = incoming.AddNode(0, 0.5, Toks({"conn", "*", "*"}), 40);
  incoming.AddNode(new_root, 1.0, Toks({"conn", "open", "*"}), 25);
  incoming.AddNode(new_root, 1.0, Toks({"conn", "close", "*"}), 15);

  existing.MergeFrom(incoming, 0.75);
  // Root and the "open" child merged; "close" attached as a new child.
  ASSERT_EQ(existing.roots().size(), 1u);
  const TreeNode* r = existing.node(existing.roots()[0]);
  EXPECT_EQ(r->support, 140u);
  EXPECT_EQ(r->children.size(), 2u);
  uint64_t open_support = 0;
  uint64_t close_support = 0;
  for (TemplateId c : r->children) {
    const TreeNode* n = existing.node(c);
    if (n->tokens[1] == "open") open_support = n->support;
    if (n->tokens[1] == "close") close_support = n->support;
  }
  EXPECT_EQ(open_support, 85u);
  EXPECT_EQ(close_support, 15u);
}

TEST(TemplateModelTest, MergeFromDissimilarBecomesNewRoot) {
  TemplateModel existing;
  existing.AddNode(0, 0.5, Toks({"conn", "*"}), 10);
  TemplateModel incoming;
  incoming.AddNode(0, 0.5, Toks({"totally", "different"}), 5);
  existing.MergeFrom(incoming, 0.75);
  EXPECT_EQ(existing.roots().size(), 2u);
}

TEST(TemplateModelTest, MergeIntoEmptyModelCopiesEverything) {
  TemplateModel existing;
  TemplateModel incoming;
  TemplateId root = incoming.AddNode(0, 0.4, Toks({"a", "*"}), 10);
  incoming.AddNode(root, 1.0, Toks({"a", "b"}), 10);
  existing.MergeFrom(incoming, 0.75);
  EXPECT_EQ(existing.size(), 2u);
  ASSERT_EQ(existing.roots().size(), 1u);
  EXPECT_EQ(existing.node(existing.roots()[0])->children.size(), 1u);
}

}  // namespace
}  // namespace bytebrain
