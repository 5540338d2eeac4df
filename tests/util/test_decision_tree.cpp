// The exploration core both model checkers share: depth-first enumeration
// with replay-from-prefix, budgets and the frontier bound, divergence, and
// replay of a whole trace.  A synthetic "program" stands in for a job or a
// litmus body: it asks the tree for one decision per level.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/util/decision_tree.hpp"

namespace {

using mph::util::Branch;
using mph::util::DecisionTree;

Branch point(std::uint32_t options, std::uint32_t pruned = 0,
             std::string shape = "t") {
  return Branch{0, options, pruned, std::move(shape), ""};
}

/// Run a program with one branch point per entry of `widths`, recording
/// the path it took.
std::vector<std::uint32_t> run_once(DecisionTree& tree,
                                    const std::vector<std::uint32_t>& widths) {
  std::vector<std::uint32_t> path;
  for (const std::uint32_t w : widths) path.push_back(tree.decide(point(w)));
  return path;
}

TEST(DecisionTree, EnumeratesEveryPathOnceDepthFirst) {
  DecisionTree tree(0, std::chrono::milliseconds(0));
  std::vector<std::vector<std::uint32_t>> seen;
  do {
    seen.push_back(run_once(tree, {2, 3}));
  } while (tree.end_run());
  const std::vector<std::vector<std::uint32_t>> expected = {
      {0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}};
  EXPECT_EQ(seen, expected);
  EXPECT_TRUE(tree.status().complete);
  EXPECT_EQ(tree.status().runs, 6u);
  EXPECT_EQ(tree.frontier(), 6u);
}

TEST(DecisionTree, RunBudgetCountsThePendingAlternative) {
  DecisionTree tree(2, std::chrono::milliseconds(0));
  do {
    (void)run_once(tree, {2, 3});
  } while (tree.end_run());
  EXPECT_FALSE(tree.status().complete);
  EXPECT_TRUE(tree.status().run_budget_exhausted);
  EXPECT_EQ(tree.status().runs, 2u);
  // Two runs, path {0,2} advanced but not run, and the unopened {1,*}
  // subtree counted once: a lower bound on the true 6.
  EXPECT_EQ(tree.frontier(), 4u);
}

TEST(DecisionTree, PrunedAlternativesStayInTheFrontier) {
  DecisionTree tree(0, std::chrono::milliseconds(0));
  do {
    (void)tree.decide(point(2, 3));
  } while (tree.end_run());
  EXPECT_TRUE(tree.status().complete);
  EXPECT_EQ(tree.status().pruned, 3u);
  EXPECT_EQ(tree.frontier(), tree.status().runs + 3u);
}

TEST(DecisionTree, StopKeepsTheStoppedRunsPath) {
  DecisionTree tree(0, std::chrono::milliseconds(0));
  (void)run_once(tree, {2, 2});
  EXPECT_TRUE(tree.end_run());
  EXPECT_EQ(run_once(tree, {2, 2}), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_FALSE(tree.end_run(/*stop=*/true));
  ASSERT_EQ(tree.path().size(), 2u);
  EXPECT_EQ(tree.path()[1].chosen, 1u);
  EXPECT_FALSE(tree.status().complete);
}

TEST(DecisionTree, ADifferentShapeOnAPrefixReplayDiverges) {
  DecisionTree tree(0, std::chrono::milliseconds(0));
  (void)tree.decide(point(2, 0, "t"));
  (void)tree.decide(point(2, 0, "t"));
  ASSERT_TRUE(tree.end_run());
  (void)tree.decide(point(2, 0, "r"));  // the program changed under us
  EXPECT_FALSE(tree.end_run());
  EXPECT_NE(tree.status().divergence.find("decision #0 diverged"),
            std::string::npos)
      << tree.status().divergence;
}

TEST(DecisionTree, ReplayForcesTheWholeTrace) {
  DecisionTree tree({Branch{1, 2, 0, "t", ""}, Branch{2, 3, 0, "r", ""}});
  EXPECT_EQ(tree.decide(point(2, 0, "t")), 1u);
  EXPECT_EQ(tree.decide(point(3, 0, "r")), 2u);
  EXPECT_FALSE(tree.end_run());
  EXPECT_TRUE(tree.status().divergence.empty()) << tree.status().divergence;
  EXPECT_TRUE(tree.status().complete);
  EXPECT_EQ(tree.status().runs, 1u);
}

TEST(DecisionTree, ReplayNeedingMoreOrFewerDecisionsDiverges) {
  DecisionTree longer({Branch{0, 2, 0, "t", ""}});
  (void)longer.decide(point(2));
  EXPECT_EQ(longer.decide(point(2)), 0u);
  EXPECT_FALSE(longer.end_run());
  EXPECT_NE(longer.status().divergence.find("more decisions"),
            std::string::npos);

  DecisionTree shorter({Branch{0, 2, 0, "t", ""}, Branch{0, 2, 0, "t", ""}});
  (void)shorter.decide(point(2));
  EXPECT_FALSE(shorter.end_run());
  EXPECT_NE(shorter.status().divergence.find("ended after 1 of 2"),
            std::string::npos);

  DecisionTree out_of_range({Branch{5, 2, 0, "t", ""}});
  EXPECT_EQ(out_of_range.decide(point(2)), 0u);
  EXPECT_NE(out_of_range.status().divergence.find("took option 5 of 2"),
            std::string::npos);
}

TEST(TraceEnvelope, WritesAndReadsBackStrictly) {
  const std::string text = mph::util::write_trace(
      "demo", {{"seed", "7"}}, {"{\"x\": 1}", "{\"x\": 2}"});
  std::uint64_t seed = 0;
  std::vector<int> xs;
  mph::util::read_trace(
      text, "demo",
      [&](mph::util::JsonFields& header) { header.get("seed", seed); },
      [&](mph::util::JsonFields& d) { d.get("x", xs.emplace_back()); });
  EXPECT_EQ(seed, 7u);
  EXPECT_EQ(xs, (std::vector<int>{1, 2}));

  const auto error_of = [](const std::string& doc, const char* kind) {
    try {
      mph::util::read_trace(
          doc, kind, [](mph::util::JsonFields&) {},
          [](mph::util::JsonFields&) {});
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(error_of(text, "other"),
            "trace parse error: not a \"other\" trace");
  EXPECT_EQ(error_of("{\"kind\": \"demo\", \"decisions\": []}", "demo"),
            "trace parse error: unsupported trace version (none), "
            "expected 2");
  EXPECT_EQ(error_of("{\"kind\": \"demo\", \"version\": 2, "
                     "\"decisions\": [{\"y\": 1}]}",
                     "demo"),
            "trace parse error: unknown decision key \"y\"");
  EXPECT_EQ(error_of("{\"kind\": \"demo\", \"version\": 2, \"seed\": 7}",
                     "demo"),
            "trace parse error: unknown trace key \"seed\"");
}

TEST(TraceEnvelope, FieldsAreTypedAndRangeChecked) {
  const auto doc = mph::util::JsonValue::parse(
      "{\"big\": 4294967296, \"flag\": true, \"list\": [1, 2]}");
  mph::util::JsonFields fields(doc, "test");
  std::uint32_t narrow = 0;
  EXPECT_THROW(fields.get("big", narrow), std::runtime_error);
  std::int64_t wide = 0;
  fields.get("big", wide);
  EXPECT_EQ(wide, 4294967296);
  bool flag = false;
  fields.get("flag", flag);
  EXPECT_TRUE(flag);
  EXPECT_THROW(fields.done(), std::runtime_error);  // "list" not taken
  std::vector<int> list;
  fields.get("list", list);
  EXPECT_EQ(list, (std::vector<int>{1, 2}));
  fields.done();
}

}  // namespace
