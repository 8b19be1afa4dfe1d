// Golden digests of the λ_ack and λ_arb constructions on multi-word graphs
// (n ≥ 2048, so every node bitmap spans many 64-bit words), one per
// (graph, DomPolicy).  A digest covers the labels, z / the coordinator, and
// every DOM, NEW and FRONTIER level in stored order, plus stage_of and ℓ.
// gnp and dense satisfy `graph::is_bit_dense`, so they pin the bitmap path
// of `build_stage_sets`; the dense row was recorded from the list walk,
// before that path existed.
// Together with validate_stage_sets, a match shows the construction emits
// the same sets in the same order; any change to frontier order, removal
// order or a greedy tie-break moves a digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "core/labeling.hpp"
#include "core/stages.hpp"
#include "graph/generators.hpp"
#include "graph/hash.hpp"
#include "support/bytes.hpp"

namespace radiocast {
namespace {

using graph::NodeId;

constexpr std::size_t kPolicies = std::size(core::kAllDomPolicies);

struct GoldenGraph {
  const char* name;
  const char* descriptor;
  NodeId source;       ///< λ_ack source
  NodeId coordinator;  ///< λ_arb coordinator
};

constexpr GoldenGraph kGraphs[] = {
    {"sgnp", "sgnp:20000:8:11", 12345, 4321},
    {"tree", "tree:20000:12", 777, 19000},
    {"disk", "disk:4000:0.031:13", 2024, 7},
    {"gnp", "gnp:2048:0.03:14", 1500, 64},
    {"grid", "grid:60:60", 1830, 0},
    // Average degree ~600 against 47 words per row: the bitmap path.
    {"dense", "gnp:3000:0.2:15", 2999, 1234},
};

/// "<graph>/<policy> <λ_ack digest> <λ_arb digest>", graphs in kGraphs
/// order, policies in kAllDomPolicies order.
constexpr const char* kDigests[] = {
    "sgnp/ascending-id a16c14b464b2b3e4 c74f027acd3337f5",
    "sgnp/descending-id d7693eacc7cebac5 21c3c45f02035f55",
    "sgnp/prefer-drop-old 7812e0bececcf14d 38ff1cf79caca50e",
    "sgnp/prefer-drop-new b79d31b0bf862fb2 304d7ce2159173d5",
    "sgnp/random b1ebbfc23bcac2bd 4f84db1dffd09fce",
    "sgnp/greedy-cover c0ca73ddb5b9a509 3412a884bdefb29c",
    "sgnp/max-fresh 17b9be2680c9f409 c604df4740815a5c",
    "tree/ascending-id 86ed7eb59dafb236 05168a8937d3ecbe",
    "tree/descending-id 86ed7eb59dafb236 05168a8937d3ecbe",
    "tree/prefer-drop-old 86ed7eb59dafb236 05168a8937d3ecbe",
    "tree/prefer-drop-new 86ed7eb59dafb236 05168a8937d3ecbe",
    "tree/random 86ed7eb59dafb236 05168a8937d3ecbe",
    "tree/greedy-cover 86ed7eb59dafb236 05168a8937d3ecbe",
    "tree/max-fresh 86ed7eb59dafb236 05168a8937d3ecbe",
    "disk/ascending-id fe6581fc9de06d41 1031372e968cdefe",
    "disk/descending-id 32dc50d4a871f248 fa8def6170db1d82",
    "disk/prefer-drop-old 7cad4549cc9b26ed 68ee269db1022b0f",
    "disk/prefer-drop-new bdf74ad36221d633 ad07e95e16644ec0",
    "disk/random 7b3b82efbc19565c 431e2a290307b58f",
    "disk/greedy-cover 65322f1a193ae301 092a83761e3a2ecc",
    "disk/max-fresh 7e48aab91efb36a2 23e2f46db1cc0425",
    "gnp/ascending-id baad85af64528f35 14cde8410bc59d8c",
    "gnp/descending-id 6920a2afe2da444a 5eb7b3c215e95aee",
    "gnp/prefer-drop-old 8fde597c12e967e6 977ae3a28e136db9",
    "gnp/prefer-drop-new 49daa5e3ac3025b8 a8d650fc040a308c",
    "gnp/random 3c69564ac4425205 8b7f63fe92e21ea7",
    "gnp/greedy-cover f4f03533a34c0107 6a2d32957e681835",
    "gnp/max-fresh eae6d6be783f5611 0927f649d5241ac2",
    "grid/ascending-id cf625f8ad6354dde 53daf30dc67fe17e",
    "grid/descending-id 21a68a057b129434 b5474dde3bc290d5",
    "grid/prefer-drop-old cf625f8ad6354dde 53daf30dc67fe17e",
    "grid/prefer-drop-new cf625f8ad6354dde 53daf30dc67fe17e",
    "grid/random d36282b8cc12b82e 58632d2007cd1a82",
    "grid/greedy-cover 4f0729ab16283c01 b6b6fc828e8a9f6b",
    "grid/max-fresh 7b5c95cdcb03ec4e b058642041d9416a",
    "dense/ascending-id 6fa13a96fb8d0f3b 59c0409e1220c845",
    "dense/descending-id 7f884d94ef272ca5 60f16ac92298e262",
    "dense/prefer-drop-old 7ee85ff3411d6c1e a9136b080b0ef902",
    "dense/prefer-drop-new 6fa13a96fb8d0f3b 7216be72836124a6",
    "dense/random 93ab1698aab5e653 0d70487ac7bd5f5c",
    "dense/greedy-cover 6dd308ae88c5443c 082450b6572bcb71",
    "dense/max-fresh 33922eebacd1ac18 b38af1b26e9d9cd8",
};

std::uint64_t digest(const std::vector<core::Label>& labels, NodeId special,
                     const core::StageSets& s) {
  support::ByteWriter out;
  out.u64(labels.size());
  for (const core::Label& l : labels) out.u8(l.value());
  out.u32(special);
  for (const auto* levels : {&s.dom, &s.fresh, &s.frontier}) {
    out.u64(levels->size());
    for (const auto& level : *levels) out.vec_u32(level);
  }
  out.vec_u32(s.stage_of);
  out.u32(s.ell);
  out.u32(s.source);
  return support::fnv1a(out.bytes());
}

using Case = std::tuple<std::size_t, std::size_t>;  // (graph, policy)

class LabelingGolden : public ::testing::TestWithParam<Case> {};

TEST_P(LabelingGolden, EncodedLabelingsMatchPinnedDigests) {
  static_assert(std::size(kDigests) == std::size(kGraphs) * kPolicies);
  const auto [gi, pi] = GetParam();
  const GoldenGraph& golden = kGraphs[gi];
  const auto g = graph::from_descriptor(golden.descriptor);
  core::LabelingOptions opt;
  opt.policy = core::kAllDomPolicies[pi];
  opt.seed = 42;

  const auto ack = core::label_acknowledged(g, golden.source, opt);
  EXPECT_EQ(core::validate_stage_sets(g, ack.stages), "");
  const auto arb = core::label_arbitrary(g, golden.coordinator, opt);
  EXPECT_EQ(core::validate_stage_sets(g, arb.stages), "");

  const std::string got =
      std::string(golden.name) + "/" + core::to_string(opt.policy) + " " +
      graph::hash_hex(digest(ack.labels, ack.z, ack.stages)) + " " +
      graph::hash_hex(digest(arb.labels, arb.coordinator, arb.stages));
  EXPECT_EQ(got, kDigests[gi * kPolicies + pi]);
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto [gi, pi] = info.param;
  std::string name = std::string(kGraphs[gi].name) + "_" +
                     core::to_string(core::kAllDomPolicies[pi]);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    MultiWord, LabelingGolden,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kGraphs)),
                       ::testing::Range<std::size_t>(0, kPolicies)),
    case_name);

}  // namespace
}  // namespace radiocast
