// IoT firmware rollout — the paper's §1.2 motivating scenario.
//
// A central monitor knows the placement of already-deployed radio devices in
// a business campus (clustered unit-disk-ish topology).  It assigns each
// device a 3-bit role (the λ_ack label).  A gateway then pushes a firmware
// image chunk by chunk with *acknowledged* broadcast: chunk k+1 is sent only
// after the "ack" for chunk k has arrived, so the tiny devices never need to
// buffer more than one chunk.
#include <cstdio>
#include <vector>

#include "core/labeling.hpp"
#include "graph/generators.hpp"
#include "runtime/scheme.hpp"
#include "support/rng.hpp"

int main() {
  using namespace radiocast;

  Rng rng(77);
  const graph::Graph campus = graph::clustered(/*clusters=*/6, /*size=*/8,
                                               /*p_intra=*/0.5, rng);
  const graph::NodeId gateway = 0;
  std::printf("campus network: %s, gateway %u\n", campus.summary().c_str(),
              gateway);

  // One centralized labeling serves every chunk (the scheme is per-graph, not
  // per-message) — this is exactly why short reusable labels matter.
  const core::Labeling roles = core::label_acknowledged(campus, gateway);
  std::vector<std::uint32_t> role_count(8, 0);
  for (const auto& l : roles.labels) ++role_count[l.value()];
  std::printf("role census (3-bit roles): ");
  for (std::uint8_t v = 0; v < 8; ++v) {
    if (role_count[v]) {
      const core::Label l{(v & 4) != 0, (v & 2) != 0, (v & 1) != 0};
      std::printf("%s x%u  ", l.to_string(3).c_str(), role_count[v]);
    }
  }
  std::printf("\n");

  // One continuous radio session: the gateway releases chunk k+1 only after
  // the acknowledgement for chunk k has walked back to it (paper §1.2).
  const std::vector<std::uint32_t> firmware = {0xCAFE, 0xBEEF, 0xF00D, 0x1CEE};
  const auto session = runtime::run_scheme("multi", campus, gateway,
                                           {.payloads = firmware});
  if (!session.ok) {
    std::printf("rollout FAILED\n");
    return 1;
  }
  for (std::size_t chunk = 0; chunk < firmware.size(); ++chunk) {
    std::printf("chunk %zu (0x%04X): acknowledged at round %llu\n", chunk,
                firmware[chunk],
                static_cast<unsigned long long>(session.ack_rounds[chunk]));
  }
  std::printf("firmware rollout complete: %zu chunks in %llu radio rounds "
              "(%llu rounds per chunk, pipeline is perfectly periodic)\n",
              firmware.size(),
              static_cast<unsigned long long>(session.rounds),
              static_cast<unsigned long long>(session.rounds_per_message));
  return 0;
}
