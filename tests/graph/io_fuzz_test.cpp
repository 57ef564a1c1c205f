// Deterministic mutation test of graph::from_text, the parser behind every
// DAG a daemon request or a corpus file carries. Valid to_text outputs are
// mutated — bit flips, truncation, an overwritten `dag <n>` header,
// duplicated and dropped lines — and parsed. Every outcome must be either a
// non-OK Status or a Dag that is structurally sound: validate() passes, it
// has a topological order over all its tasks, a non-empty Dag has a source
// and a sink, weights are finite and >= 0, and its to_text re-parses to a
// fixed point. No crash, no UB (run it under scripts/check.sh --sanitize),
// no huge allocation from a lying header. Fixed seed, fixed budget.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace easched::graph {
namespace {

constexpr std::uint64_t kSeed = 0xda6f022ULL;
constexpr int kIterations = 4000;

/// Valid texts of every generator shape, small enough to mutate quickly.
std::vector<std::string> seed_texts() {
  common::Rng rng(kSeed);
  const WeightSpec weights{0.5, 9.0};
  std::vector<std::string> texts;
  texts.push_back(to_text(make_chain({1.0, 2.5, 0.0})));
  texts.push_back(to_text(make_fork_join({1.0, 2.0, 3.0, 1.0 / 3.0})));
  texts.push_back(to_text(make_random_dag(9, 0.3, weights, rng)));
  texts.push_back(to_text(make_layered(3, 3, 0.5, weights, rng)));
  texts.push_back(to_text(make_out_tree(8, 3, weights, rng)));
  texts.push_back(to_text(make_random_series_parallel(7, weights, rng)));
  Dag named;
  named.add_task(1e-300, "stage_in");
  named.add_task(4.0, "reduce");
  named.add_edge(0, 1);
  texts.push_back(to_text(named));
  return texts;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) out += line + "\n";
  return out;
}

/// One random mutation of `text`.
std::string mutate(std::string text, common::Rng& rng) {
  switch (rng.below(5)) {
    case 0: {  // flip 1..3 bits
      if (text.empty()) return text;
      const int flips = static_cast<int>(rng.range(1, 3));
      for (int i = 0; i < flips; ++i) {
        text[rng.below(text.size())] ^= static_cast<char>(1u << rng.below(8));
      }
      return text;
    }
    case 1:  // truncate anywhere, the empty text included
      return text.substr(0, rng.below(text.size() + 1));
    case 2: {  // overwrite the header's task count
      static const char* const kCounts[] = {"0",          "1",         "2",
                                            "7",          "64",        "1000",
                                            "2000000000", "2147483647", "-3",
                                            "99999999999", "1e3",      ""};
      const std::size_t eol = text.find('\n');
      return "dag " + std::string(kCounts[rng.below(std::size(kCounts))]) +
             text.substr(eol == std::string::npos ? text.size() : eol);
    }
    case 3: {  // duplicate a line
      auto lines = split_lines(text);
      if (lines.empty()) return text;
      const std::size_t i = rng.below(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(rng.below(lines.size() + 1)),
                   lines[i]);
      return join_lines(lines);
    }
    default: {  // drop a line
      auto lines = split_lines(text);
      if (lines.empty()) return text;
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(rng.below(lines.size())));
      return join_lines(lines);
    }
  }
}

/// The oracle for a successful parse.
void expect_sound(const Dag& dag, const std::string& input) {
  SCOPED_TRACE("input: " + input);
  ASSERT_TRUE(dag.validate().is_ok());
  const int n = dag.num_tasks();
  for (TaskId t = 0; t < n; ++t) {
    EXPECT_TRUE(std::isfinite(dag.weight(t)));
    EXPECT_GE(dag.weight(t), 0.0);
    EXPECT_FALSE(dag.name(t).empty());
  }

  auto order = topological_order(dag);
  ASSERT_TRUE(order.is_ok());
  ASSERT_EQ(static_cast<int>(order.value().size()), n);
  std::vector<int> rank(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < order.value().size(); ++i) {
    const TaskId t = order.value()[i];
    ASSERT_GE(t, 0);
    ASSERT_LT(t, n);
    ASSERT_EQ(rank[static_cast<std::size_t>(t)], -1);  // a permutation
    rank[static_cast<std::size_t>(t)] = static_cast<int>(i);
  }
  int edges = 0;
  for (TaskId u = 0; u < n; ++u) {
    for (TaskId v : dag.successors(u)) {
      ++edges;
      EXPECT_LT(rank[static_cast<std::size_t>(u)], rank[static_cast<std::size_t>(v)]);
      EXPECT_TRUE(dag.has_edge(u, v));
    }
  }
  EXPECT_EQ(edges, dag.num_edges());
  if (n > 0) {
    EXPECT_FALSE(dag.sources().empty());
    EXPECT_FALSE(dag.sinks().empty());
  }

  // to_text is a fixed point of parse-then-write.
  const std::string text = to_text(dag);
  auto again = from_text(text);
  ASSERT_TRUE(again.is_ok()) << again.status().to_string() << "\n" << text;
  EXPECT_EQ(to_text(again.value()), text);
}

TEST(GraphIoFuzz, MutatedTextIsRejectedOrSound) {
  const auto seeds = seed_texts();
  for (const auto& text : seeds) {
    auto parsed = from_text(text);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    expect_sound(parsed.value(), text);
  }

  common::Rng rng(kSeed);
  int accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::string text = seeds[rng.below(seeds.size())];
    const int rounds = static_cast<int>(rng.range(1, 3));
    for (int r = 0; r < rounds; ++r) text = mutate(std::move(text), rng);
    auto parsed = from_text(text);
    if (!parsed.is_ok()) {
      EXPECT_EQ(parsed.status().code(), common::StatusCode::kInvalidArgument);
      continue;
    }
    ++accepted;
    expect_sound(parsed.value(), text);
    if (testing::Test::HasFatalFailure()) return;
  }
  // Both oracle branches must be exercised, or the test passes vacuously.
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_LT(accepted, kIterations);
}

TEST(GraphIoFuzz, LyingHeaderIsRejectedBeforeAllocating) {
  // Each would allocate gigabytes of tasks if the header were trusted.
  EXPECT_FALSE(from_text("dag 2000000000").is_ok());
  EXPECT_FALSE(from_text("dag 2147483647\ntask 0 1 a\n").is_ok());
  // The bound admits the shortest task line, and one more task is too many.
  auto tight = from_text("dag 1 task 0 0");
  ASSERT_TRUE(tight.is_ok()) << tight.status().to_string();
  EXPECT_EQ(tight.value().num_tasks(), 1);
  EXPECT_FALSE(from_text("dag 2 task 0 0").is_ok());
}

}  // namespace
}  // namespace easched::graph
