/// \file spans.hpp
/// \brief In-memory spans recorded around calls into each module.
///
/// The traced run wraps every public call it makes into the program in a
/// span (layer, operation, start, end, parent span, batch id, one count).
/// Spans stay in memory and are written out once when the run ends.
/// `attribute` then divides wall time among layers: at each instant the
/// time is split equally over the spans that are running and have no
/// running child, so a layer's share is its self time and the shares of
/// all layers add up to the part of the wall time some span covers.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// The repository modules the benchmark splits time across, plus `kBench`
/// for the benchmark's own envelope spans (never attributed to a layer).
enum class Layer : std::uint8_t {
  kGraph,
  kCore,
  kSim,
  kRuntime,
  kParallel,
  kServe,
  kBench,
};
inline constexpr std::size_t kLayerCount = 6;  ///< attributed layers
const char* layer_name(Layer layer);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* op = "";  ///< operation name (a string literal)
  Layer layer = Layer::kBench;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the parent span, -1 for none
  std::uint64_t batch = 0;
  std::uint64_t count = 0;  ///< op-specific: rounds, bytes, backend, ...

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Thread-safe span recorder.  A disabled tracer records nothing and every
/// call is a single branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span; returns its index (-1 when disabled).
  std::int32_t begin(const char* op, Layer layer, std::uint64_t batch,
                     std::int32_t parent);
  /// Closes span `id`, recording `count` (and renaming it to `op` when
  /// given — for spans whose name is only known once the call returns).
  void end(std::int32_t id, std::uint64_t count = 0, const char* op = nullptr);

  /// A copy of every span recorded so far.
  std::vector<Span> spans() const;

  /// Writes the spans as tab-separated lines (index, parent, layer, op,
  /// batch, start, end, count); false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* op, Layer layer, std::uint64_t batch = 0,
        std::int32_t parent = -1)
      : tracer_(tracer), id_(tracer.begin(op, layer, batch, parent)) {}
  ~Scope() { tracer_.end(id_, count_, op_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int32_t id() const noexcept { return id_; }
  void set_count(std::uint64_t count) noexcept { count_ = count; }
  void rename(const char* op) noexcept { op_ = op; }

 private:
  Tracer& tracer_;
  std::int32_t id_;
  std::uint64_t count_ = 0;
  const char* op_ = nullptr;
};

/// Wall time in [t0, t1) divided among layers (see the file comment).
struct Attribution {
  std::array<double, kLayerCount> self_ns{};
  double covered_ns = 0;  ///< sum of self_ns
  double wall_ns = 0;     ///< t1 - t0
};
Attribution attribute(const std::vector<Span>& spans, std::int64_t t0,
                      std::int64_t t1);

}  // namespace perfbench
