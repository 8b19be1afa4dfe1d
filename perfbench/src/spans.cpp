#include "spans.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kGraph:
      return "graph";
    case Layer::kCore:
      return "core";
    case Layer::kSim:
      return "sim";
    case Layer::kRuntime:
      return "runtime";
    case Layer::kParallel:
      return "parallel";
    case Layer::kServe:
      return "serve";
    case Layer::kBench:
      return "bench";
  }
  return "?";
}

std::int32_t Tracer::begin(const char* op, Layer layer, std::uint64_t batch,
                           std::int32_t parent) {
  if (!enabled_) return -1;
  Span span;
  span.op = op;
  span.layer = layer;
  span.parent = parent;
  span.batch = batch;
  const std::lock_guard<std::mutex> lock(mu_);
  span.start_ns = now_ns();
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::end(std::int32_t id, std::uint64_t count, const char* op) {
  if (!enabled_ || id < 0) return;
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = t;
  span.count = count;
  if (op != nullptr) span.op = op;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> all = spans();
  std::fprintf(f, "index\tparent\tlayer\top\tbatch\tstart_ns\tend_ns\tcount\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f, "%zu\t%d\t%s\t%s\t%llu\t%lld\t%lld\t%llu\n", i, s.parent,
                 layer_name(s.layer), s.op,
                 static_cast<unsigned long long>(s.batch),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(f) == 0;
}

Attribution attribute(const std::vector<Span>& spans, std::int64_t t0,
                      std::int64_t t1) {
  Attribution out;
  out.wall_ns = static_cast<double>(t1 - t0);
  struct Event {
    std::int64_t t;
    int starts;  // 0 = end (sorted first at equal times), 1 = start
    std::size_t span;
  };
  std::vector<Event> events;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ns <= spans[i].start_ns) continue;
    events.push_back({spans[i].start_ns, 1, i});
    events.push_back({spans[i].end_ns, 0, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.t != b.t ? a.t < b.t : a.starts < b.starts;
  });

  const std::size_t n = spans.size();
  std::vector<std::uint8_t> active(n, 0), leaf(n, 0), counted(n, 0);
  std::vector<std::uint32_t> running_children(n, 0);
  std::array<std::uint32_t, kLayerCount + 1> leaves_per_layer{};
  std::uint32_t leaves = 0;
  auto set_leaf = [&](std::size_t i, bool on) {
    if (leaf[i] == on) return;
    leaf[i] = on;
    const auto l = static_cast<std::size_t>(spans[i].layer);
    if (on) {
      ++leaves_per_layer[l];
      ++leaves;
    } else {
      --leaves_per_layer[l];
      --leaves;
    }
  };

  std::int64_t prev = t0;
  for (const Event& e : events) {
    const std::int64_t t = std::clamp(e.t, t0, t1);
    if (t > prev) {
      if (leaves > 0) {
        const double dt = static_cast<double>(t - prev);
        for (std::size_t l = 0; l < kLayerCount; ++l) {
          out.self_ns[l] += dt * leaves_per_layer[l] / leaves;
        }
      }
      prev = t;
    }
    const std::size_t i = e.span;
    const std::int32_t p = spans[i].parent;
    const bool parent_running =
        p >= 0 && static_cast<std::size_t>(p) < n && active[p] != 0;
    if (e.starts == 1) {
      active[i] = 1;
      if (parent_running) {
        counted[i] = 1;
        if (running_children[p]++ == 0) set_leaf(p, false);
      }
      if (running_children[i] == 0) set_leaf(i, true);
    } else {
      set_leaf(i, false);
      active[i] = 0;
      if (counted[i] != 0 && parent_running && running_children[p] > 0) {
        if (--running_children[p] == 0) set_leaf(p, true);
      }
    }
  }
  for (const double s : out.self_ns) out.covered_ns += s;
  return out;
}

}  // namespace perfbench
