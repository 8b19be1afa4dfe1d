// Broad integration sweep: every end-to-end driver (B, B_ack, common-round,
// B_arb, multi-message, the three baselines, one-bit search and the beep
// protocol) across families × a size ladder.  Shallow per-case assertions,
// wide coverage — the guard against size-dependent regressions.
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/experiments.hpp"
#include "baselines/baselines.hpp"
#include "baselines/beep.hpp"
#include "core/multi.hpp"
#include "core/runner.hpp"
#include "graph/traversal.hpp"
#include "onebit/runner.hpp"

namespace radiocast {
namespace {

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
  const auto run = core::run_broadcast(w.graph, w.source);
  ASSERT_TRUE(run.all_informed) << w.family << " n=" << n;
  EXPECT_LE(run.completion_round, run.bound);
  EXPECT_EQ(run.completion_round, 2ull * run.ell - 3);
}

TEST_P(ScalingSweep, AcknowledgedWindows) {
  const auto& [idx, n] = GetParam();
  const auto w = workload(idx, n);
  const auto run = core::run_acknowledged(w.graph, w.source);
  ASSERT_TRUE(run.all_informed) << w.family << " n=" << n;
  EXPECT_GE(run.ack_round, 2ull * run.ell - 2);
  EXPECT_LE(run.ack_round,
            std::max<std::uint64_t>(3ull * run.ell - 4, 2ull * run.ell - 2));
}

TEST_P(ScalingSweep, CommonRoundAgreement) {
  const auto& [idx, n] = GetParam();
  const auto w = workload(idx, n);
  const auto run = core::run_common_round(w.graph, w.source);
  EXPECT_TRUE(run.ok) << w.family << " n=" << n;
}

TEST_P(ScalingSweep, ArbitrarySourceFromTwoPlaces) {
  const auto& [idx, n] = GetParam();
  const auto w = workload(idx, n);
  EXPECT_TRUE(core::run_arbitrary(w.graph, w.source, 0).ok) << w.family;
  const graph::NodeId far = w.graph.node_count() - 1;
  EXPECT_TRUE(core::run_arbitrary(w.graph, far, 0).ok) << w.family;
}

TEST_P(ScalingSweep, MultiMessageSession) {
  const auto& [idx, n] = GetParam();
  const auto w = workload(idx, n);
  const auto run = core::run_multi_broadcast(w.graph, w.source, {3, 1, 4});
  EXPECT_TRUE(run.ok) << w.family << " n=" << n;
}

TEST_P(ScalingSweep, BaselinesComplete) {
  const auto& [idx, n] = GetParam();
  const auto w = workload(idx, n);
  EXPECT_TRUE(baselines::run_round_robin(w.graph, w.source).all_informed)
      << w.family;
  EXPECT_TRUE(baselines::run_color_robin(w.graph, w.source).all_informed)
      << w.family;
}

TEST_P(ScalingSweep, BeepDelivers) {
  const auto& [idx, n] = GetParam();
  const auto w = workload(idx, n);
  EXPECT_TRUE(baselines::run_beep(w.graph, w.source, 0x33u, 6).ok) << w.family;
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
  EXPECT_TRUE(onebit::run_onebit(g, 0, {.max_attempts = 256}).ok)
      << g.summary();
}

INSTANTIATE_TEST_SUITE_P(Sizes, OneBitScaling, ::testing::Range(0, 6));

}  // namespace
}  // namespace radiocast
