// Experiment E10 — message-size accounting: algorithm B uses constant-size
// control information; B_ack appends a Θ(log n)-bit round counter.
#include "harness.hpp"

#include <algorithm>

#include "analysis/metrics.hpp"
#include "core/protocols.hpp"
#include "graph/generators.hpp"
#include "runtime/scheme.hpp"
#include "sim/engine.hpp"

namespace radiocast::bench {
namespace {

void run(Context& ctx) {
  for (const std::uint32_t n : ctx.sizes(2048)) {
    const auto g = graph::path(n);
    Sample s;
    s.family = "path";
    s.n = g.node_count();
    s.m = g.edge_count();

    std::uint32_t b_bits = 0, ack_bits = 0, log_bound = 0;
    std::uint64_t transmissions = 0;
    runtime::SchemeResult ack;
    std::uint64_t completion = 0;
    s.wall_ns = time_ns([&] {
      // Algorithm B: walk the full trace and charge every message.
      const auto lab = core::label_broadcast(g, 0);
      sim::Engine eng_b(g, core::make_broadcast_protocols(lab, 1),
                        {sim::TraceLevel::kFull});
      eng_b.run_until([](const sim::Engine& e) { return e.all_informed(); },
                      4ull * n + 8);
      completion = eng_b.round();
      for (const auto& rec : eng_b.trace().rounds()) {
        transmissions += rec.transmissions.size();
        for (const auto& [v, msg] : rec.transmissions) {
          b_bits = std::max(b_bits, analysis::control_bits(msg, false));
        }
      }

      ack = runtime::run_scheme("ack", g, 0, {}, ctx.exec());
      const sim::Message worst{sim::MsgKind::kAck, 0, 0, ack.max_stamp};
      ack_bits = analysis::control_bits(worst, false);

      while ((1ull << log_bound) < 3ull * n) ++log_bound;
    });

    s.rounds = completion;
    s.transmissions = transmissions;
    s.ok = b_bits <= 3 && ack_bits <= 3 + log_bound + 1 && ack.all_informed;
    s.extra = {{"b_ctrl_bits", static_cast<double>(b_bits)},
               {"ack_ctrl_bits", static_cast<double>(ack_bits)},
               {"ack_max_stamp", static_cast<double>(ack.max_stamp)},
               {"log2_3n", static_cast<double>(log_bound)}};
    ctx.record(std::move(s));
  }
}

const bool registered = register_scenario(
    {"message_size",
     "control bits per message: B constant, B_ack O(log n) stamp",
     {"smoke", "experiment"},
     &run});

}  // namespace
}  // namespace radiocast::bench
