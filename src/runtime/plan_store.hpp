/// \file plan_store.hpp
/// \brief On-disk persistence for labeling plans and compiled results.
///
/// The paper's premise is label-once, broadcast-forever — but PR 5's
/// `PlanCache` only amortized a labeling within one process lifetime.  The
/// plan store durably keys serialized `Plan`/`CompiledPlan` payloads by
/// their full cache key (graph content hash, plan family or scheme, plan
/// key), so a restarted `radiocast_serve` — or any other process pointed at
/// the same directory — serves warm executions immediately.
///
/// Layout: one record file per entry under the store directory,
///   <fnv1a(key) as 16 hex digits>.plan    labeling plans
///   <fnv1a(key) as 16 hex digits>.cplan   compiled results
/// Record format (little-endian, via support/bytes.hpp):
///   magic "RCPS" | u32 format version (= kFormatVersion)
///   | str key | str family | str payload | u64 fnv1a(payload)
/// Every field is validated on read — bad magic, unknown version, a key
/// mismatch (hash collision or renamed file), a family mismatch, a checksum
/// mismatch, truncation, or trailing bytes all reject the record cleanly
/// (nullopt, counted in `stats().rejected`) rather than crash; the payload
/// itself is then still scheme-validated by `Scheme::decode_plan`.  Writes
/// go to a temp file first and rename into place, so a crashed writer never
/// leaves a half-record under a live key.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace radiocast::runtime {

/// What kind of payload a record carries (selects the file extension).
enum class PlanStoreKind : std::uint8_t { kPlan, kCompiled };

struct PlanStoreStats {
  std::uint64_t reads = 0;      ///< get() calls
  std::uint64_t read_hits = 0;  ///< records found and fully validated
  std::uint64_t rejected = 0;   ///< records found but invalid (any reason)
  std::uint64_t writes = 0;     ///< records persisted
  std::uint64_t orphans_swept = 0;    ///< stale .tmp files removed on open
  std::uint64_t records_evicted = 0;  ///< records removed by compact()
};

/// A directory of validated plan records.  Thread-safe: concurrent get/put
/// from the sweep phases is fine (distinct keys write distinct files; the
/// mutex only guards the stats and the temp-name counter).
class PlanStore {
 public:
  /// 2: λ_ack / λ_arb plans pack their labels at 3 bits per node and keep
  /// no stage sets; compiled records keep only µ, the result and the plan.
  static constexpr std::uint32_t kFormatVersion = 2;

  /// Opens (creating if needed) the store directory.  An unusable path
  /// violates a precondition.  Temp files left behind by a writer that
  /// crashed between create and rename (`*.tmp<N>`) are swept on open and
  /// counted in `stats().orphans_swept` — they were never visible under a
  /// live key, so removing them is always safe.
  explicit PlanStore(std::string directory);

  /// Persists a payload under `key`.  Returns false (leaving any previous
  /// record intact) when the filesystem write fails.
  bool put(PlanStoreKind kind, const std::string& key,
           std::string_view family, std::string_view payload);

  /// Loads and validates the record for `key`; nullopt when absent or
  /// invalid (wrong magic/version/key/family/checksum, truncated, trailing
  /// bytes).
  std::optional<std::string> get(PlanStoreKind kind, const std::string& key,
                                 std::string_view family) const;

  /// Removes the record for `key` if present.
  void erase(PlanStoreKind kind, const std::string& key);

  /// Number of record files currently on disk (both kinds).
  std::size_t entry_count() const;

  /// Total bytes of record files currently on disk (both kinds).
  std::size_t total_bytes() const;

  /// Evicts record files until the store's total size is at most
  /// `max_bytes`, preferring the least useful records first: records this
  /// store has never served (ordered oldest-mtime-first) go before records
  /// it has, and served records go least-recently-read first.  Read recency
  /// is tracked in-process (a fresh store treats everything as never read),
  /// which is the right bias for a long-lived daemon compacting its own
  /// working set.  Returns the number of records removed (also accumulated
  /// into `stats().records_evicted`).
  std::size_t compact(std::size_t max_bytes);

  PlanStoreStats stats() const;
  const std::string& directory() const noexcept { return dir_; }

  /// The record file path a key maps to (exposed for tests and tooling).
  std::string record_path(PlanStoreKind kind, const std::string& key) const;

 private:
  std::string dir_;
  mutable std::mutex mu_;
  mutable PlanStoreStats stats_;
  /// record path -> logical read clock (higher = more recently served);
  /// feeds compact()'s eviction order.
  mutable std::unordered_map<std::string, std::uint64_t> last_read_;
  mutable std::uint64_t read_clock_ = 0;
  std::uint64_t temp_counter_ = 0;
};

}  // namespace radiocast::runtime
