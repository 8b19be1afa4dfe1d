// Broad integration sweep: every end-to-end driver (B, B_ack, common-round,
// B_arb, multi-message, the three baselines, one-bit search and the beep
// protocol) across families × a size ladder.  Shallow per-case assertions,
// wide coverage — the guard against size-dependent regressions.
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/experiments.hpp"
#include "graph/traversal.hpp"
#include "runtime/scheme.hpp"

namespace radiocast {
namespace {

using runtime::run_scheme;

using Param = std::tuple<int /*suite index*/, int /*size*/>;

class ScalingSweep : public ::testing::TestWithParam<Param> {
 protected:
  static analysis::Workload workload(int idx, int n) {
    auto suite = analysis::quick_suite(static_cast<std::uint32_t>(n),
                                       static_cast<std::uint64_t>(n) * 31 + 7);
    return suite[static_cast<std::size_t>(idx)];
  }
};

TEST_P(ScalingSweep, BroadcastWithinBound) {
  const auto& [idx, n] = GetParam();
  const auto w = workload(idx, n);
  const auto run = run_scheme("b", w.graph, w.source);
  ASSERT_TRUE(run.all_informed) << w.family << " n=" << n;
  EXPECT_LE(run.completion_round, run.bound);
  EXPECT_EQ(run.completion_round, 2ull * run.ell - 3);
}

TEST_P(ScalingSweep, AcknowledgedWindows) {
  const auto& [idx, n] = GetParam();
  const auto w = workload(idx, n);
  const auto run = run_scheme("ack", w.graph, w.source);
  ASSERT_TRUE(run.all_informed) << w.family << " n=" << n;
  EXPECT_GE(run.ack_round, 2ull * run.ell - 2);
  EXPECT_LE(run.ack_round,
            std::max<std::uint64_t>(3ull * run.ell - 4, 2ull * run.ell - 2));
}

TEST_P(ScalingSweep, CommonRoundAgreement) {
  const auto& [idx, n] = GetParam();
  const auto w = workload(idx, n);
  const auto run = run_scheme("common-round", w.graph, w.source);
  EXPECT_TRUE(run.ok) << w.family << " n=" << n;
}

TEST_P(ScalingSweep, ArbitrarySourceFromTwoPlaces) {
  const auto& [idx, n] = GetParam();
  const auto w = workload(idx, n);
  EXPECT_TRUE(run_scheme("arb", w.graph, w.source).ok) << w.family;
  const graph::NodeId far = w.graph.node_count() - 1;
  EXPECT_TRUE(run_scheme("arb", w.graph, far).ok) << w.family;
}

TEST_P(ScalingSweep, MultiMessageSession) {
  const auto& [idx, n] = GetParam();
  const auto w = workload(idx, n);
  const auto run =
      run_scheme("multi", w.graph, w.source, {.payloads = {3, 1, 4}});
  EXPECT_TRUE(run.ok) << w.family << " n=" << n;
}

TEST_P(ScalingSweep, BaselinesComplete) {
  const auto& [idx, n] = GetParam();
  const auto w = workload(idx, n);
  EXPECT_TRUE(run_scheme("round-robin", w.graph, w.source).all_informed)
      << w.family;
  EXPECT_TRUE(run_scheme("color-robin", w.graph, w.source).all_informed)
      << w.family;
}

TEST_P(ScalingSweep, BeepDelivers) {
  const auto& [idx, n] = GetParam();
  const auto w = workload(idx, n);
  const auto run =
      run_scheme("beep", w.graph, w.source, {.mu = 0x33u, .frame_bits = 6});
  EXPECT_TRUE(run.ok) << w.family;
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesXSizes, ScalingSweep,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(17, 33, 65, 129)),
    [](const ::testing::TestParamInfo<Param>& pinfo) {
      std::string name = "w";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_n";
      name += std::to_string(std::get<1>(pinfo.param));
      return name;
    });

// One-bit search is costlier; sweep a reduced ladder on tractable families.
class OneBitScaling : public ::testing::TestWithParam<int> {};

TEST_P(OneBitScaling, SearchSucceedsOnTrees) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 1);
  const auto g = graph::random_tree(
      20 + 10 * static_cast<std::uint32_t>(GetParam()), rng);
  EXPECT_TRUE(run_scheme("onebit", g, 0, {.max_attempts = 256}).ok)
      << g.summary();
}

INSTANTIATE_TEST_SUITE_P(Sizes, OneBitScaling, ::testing::Range(0, 6));

}  // namespace
}  // namespace radiocast
