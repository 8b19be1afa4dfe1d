// Differential oracles for plan persistence:
//  - every registry scheme's plan (and compiled plan) must survive
//    encode -> PlanStore -> decode with trace-for-trace identical
//    executions vs the freshly labeled plan;
//  - record-level validation: corrupted, truncated, wrong-version,
//    wrong-family, and trailing-byte records are rejected (nullopt +
//    rejected counter), never crash;
//  - byte-budget LRU evictions fall back to the store (reload, not
//    recompute);
//  - the warm-restart oracle: a fresh runner over a populated store
//    answers a whole batch with zero labeling constructions and
//    byte-identical formatted results;
//  - the packed λ_ack / λ_arb form: ⌈3n/8⌉ + 26-byte plans, compiled
//    records of plan + µ + a fixed-width result, a corruption matrix over
//    the decoder's checks, and a deterministic mutation sweep (every byte
//    flip, every truncation, false label counts) in which no record
//    crashes the decoder or decodes to a label outside the alphabet.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "graph/generators.hpp"
#include "graph/hash.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/plan_store.hpp"
#include "runtime/scheme.hpp"
#include "runtime/sweep.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace radiocast {
namespace {

using runtime::PlanStore;
using runtime::PlanStoreKind;

/// A fresh, empty directory under the test temp root.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "radiocast_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void expect_traces_equal(const sim::Trace& a, const sim::Trace& b,
                         const std::string& what) {
  ASSERT_EQ(a.rounds().size(), b.rounds().size()) << what;
  for (std::size_t r = 0; r < a.rounds().size(); ++r) {
    const auto& ra = a.rounds()[r];
    const auto& rb = b.rounds()[r];
    EXPECT_EQ(ra.transmissions, rb.transmissions) << what << " round " << r + 1;
    EXPECT_EQ(ra.deliveries, rb.deliveries) << what << " round " << r + 1;
    EXPECT_EQ(ra.collisions, rb.collisions) << what << " round " << r + 1;
  }
}

// Serialize -> store -> reload -> decode must yield a plan whose execution
// is indistinguishable from the fresh plan's, for every scheme the registry
// knows.  This is the oracle that licenses serving persisted plans at all.
TEST(PlanStoreRoundTrip, EverySchemePlanSurvivesTheStore) {
  const graph::Graph g = graph::grid(3, 4);
  const graph::NodeId source = 1;
  PlanStore store(fresh_dir("roundtrip"));

  for (const runtime::Scheme* scheme :
       runtime::SchemeRegistry::instance().schemes()) {
    const std::string what(scheme->name());
    // Every built-in scheme persists its plans; a registry addition that
    // cannot is a deliberate choice, not an accident.
    ASSERT_TRUE(scheme->can_store_plans()) << what;

    runtime::SchemeOptions opt;
    opt.seed = 7;
    runtime::ExecutionConfig config;
    config.trace = sim::TraceLevel::kFull;
    config.collision_detection = scheme->needs_collision_detection();

    const runtime::PlanPtr fresh = scheme->label(g, source, opt);
    ASSERT_NE(fresh, nullptr) << what;

    support::ByteWriter writer;
    scheme->encode_plan(*fresh, writer);
    const std::string key = "test|" + what;
    ASSERT_TRUE(store.put(PlanStoreKind::kPlan, key, scheme->plan_family(),
                          writer.bytes()))
        << what;
    const auto payload =
        store.get(PlanStoreKind::kPlan, key, scheme->plan_family());
    ASSERT_TRUE(payload.has_value()) << what;
    EXPECT_EQ(*payload, writer.bytes()) << what;

    support::ByteReader reader(*payload);
    const runtime::PlanPtr decoded = scheme->decode_plan(reader);
    ASSERT_NE(decoded, nullptr) << what;
    EXPECT_TRUE(reader.exhausted()) << what;

    const runtime::SchemeResult a =
        runtime::run_with_plan(*scheme, g, source, fresh, opt, config);
    const runtime::SchemeResult b =
        runtime::run_with_plan(*scheme, g, source, decoded, opt, config);
    EXPECT_EQ(a.ok, b.ok) << what;
    EXPECT_EQ(a.rounds, b.rounds) << what;
    EXPECT_EQ(a.completion_round, b.completion_round) << what;
    EXPECT_EQ(a.tx_total, b.tx_total) << what;
    expect_traces_equal(a.trace, b.trace, what);

    // A flipped leading byte (the codec tag) must be rejected, not decoded.
    std::string mangled = *payload;
    mangled[0] = static_cast<char>(mangled[0] ^ 0x5a);
    support::ByteReader bad(mangled);
    EXPECT_EQ(scheme->decode_plan(bad), nullptr) << what;

    if (!scheme->can_compile()) continue;

    const runtime::CompiledPlanPtr compiled =
        scheme->compile(g, source, fresh, opt, config);
    ASSERT_NE(compiled, nullptr) << what;
    support::ByteWriter cwriter;
    scheme->encode_compiled(*compiled, cwriter);
    ASSERT_TRUE(store.put(PlanStoreKind::kCompiled, key, what,
                          cwriter.bytes()))
        << what;
    const auto cpayload = store.get(PlanStoreKind::kCompiled, key, what);
    ASSERT_TRUE(cpayload.has_value()) << what;
    support::ByteReader creader(*cpayload);
    const runtime::CompiledPlanPtr cdecoded = scheme->decode_compiled(creader);
    ASSERT_NE(cdecoded, nullptr) << what;
    EXPECT_TRUE(creader.exhausted()) << what;

    const runtime::SchemeResult ra =
        scheme->replay(g, source, *compiled, config);
    const runtime::SchemeResult rb =
        scheme->replay(g, source, *cdecoded, config);
    EXPECT_EQ(ra.ok, rb.ok) << what;
    EXPECT_EQ(ra.rounds, rb.rounds) << what;
    EXPECT_EQ(ra.completion_round, rb.completion_round) << what;
    EXPECT_EQ(ra.tx_total, rb.tx_total) << what;
    expect_traces_equal(ra.trace, rb.trace, what + " (compiled)");
    // The stored entry replays the engine's execution itself.
    EXPECT_EQ(rb.max_node_tx, a.max_node_tx) << what;
    expect_traces_equal(a.trace, rb.trace, what + " (stored vs engine)");
  }
}

// Every way a record file can rot — flipped payload bytes, truncation, a
// future format version, the wrong family, trailing garbage — must surface
// as a clean nullopt plus a rejected tick, and a re-put must recover.
TEST(PlanStoreValidation, CorruptRecordsAreRejectedNotTrusted) {
  PlanStore store(fresh_dir("validation"));
  const std::string key = "h0011223344556677|b|src1|p0|s0";
  const std::string payload = "payload-bytes-with-structure";
  ASSERT_TRUE(store.put(PlanStoreKind::kPlan, key, "b", payload));
  ASSERT_EQ(store.get(PlanStoreKind::kPlan, key, "b"), payload);
  const std::string path = store.record_path(PlanStoreKind::kPlan, key);
  ASSERT_TRUE(std::filesystem::exists(path));

  const auto read_file = [&path]() {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const auto write_file = [&path](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const std::string good = read_file();

  const auto expect_rejected = [&](const std::string& what) {
    const std::uint64_t before = store.stats().rejected;
    EXPECT_EQ(store.get(PlanStoreKind::kPlan, key, "b"), std::nullopt) << what;
    EXPECT_EQ(store.stats().rejected, before + 1) << what;
  };

  // Wrong family: the record is intact but addressed by another scheme.
  {
    const std::uint64_t before = store.stats().rejected;
    EXPECT_EQ(store.get(PlanStoreKind::kPlan, key, "arb"), std::nullopt);
    EXPECT_EQ(store.stats().rejected, before + 1);
  }

  // Flip one payload byte: the content checksum must catch it.
  {
    std::string bad = good;
    bad[bad.size() - 12] = static_cast<char>(bad[bad.size() - 12] ^ 0x01);
    write_file(bad);
    expect_rejected("flipped payload byte");
  }

  // Truncate the record mid-payload.
  write_file(good.substr(0, good.size() / 2));
  expect_rejected("truncated record");

  // Stamp a future format version.
  {
    std::string bad = good;
    bad[4] = static_cast<char>(0xff);
    write_file(bad);
    expect_rejected("future format version");
  }

  // Corrupt the magic.
  {
    std::string bad = good;
    bad[0] = 'X';
    write_file(bad);
    expect_rejected("bad magic");
  }

  // Trailing bytes after the checksum.
  write_file(good + "z");
  expect_rejected("trailing bytes");

  // Absent records are misses, not rejections.
  {
    const auto before = store.stats();
    EXPECT_EQ(store.get(PlanStoreKind::kPlan, "no-such-key", "b"),
              std::nullopt);
    EXPECT_EQ(store.stats().rejected, before.rejected);
  }

  // A fresh put over the rotten file restores service.
  ASSERT_TRUE(store.put(PlanStoreKind::kPlan, key, "b", payload));
  EXPECT_EQ(store.get(PlanStoreKind::kPlan, key, "b"), payload);

  store.erase(PlanStoreKind::kPlan, key);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(store.get(PlanStoreKind::kPlan, key, "b"), std::nullopt);
}

// With a byte budget far below the working set, the cache holds one entry
// at a time — and the second pass over the batch must be served by store
// reloads (plan_store_hits), never by new labeling constructions.  The
// repeated path:8 spec takes its plan from the spec that loaded it, even
// after the cache evicted that plan.
TEST(PlanStoreEviction, EvictedEntriesReloadFromDiskNotRecompute) {
  par::ThreadPool pool(2);
  PlanStore store(fresh_dir("eviction"));
  runtime::SweepRunner runner(pool);
  runner.attach_store(&store);
  runner.cache().set_byte_budget(1);  // evict everything but the newest

  std::vector<runtime::ExperimentSpec> specs;
  for (const char* gen : {"path:8", "cycle:9", "star:7", "path:8"}) {
    runtime::ExperimentSpec spec;
    spec.scheme = "b";
    spec.graph.generator = gen;
    specs.push_back(std::move(spec));
  }

  const auto cold = runner.run(specs);
  auto stats = runner.cache_stats();
  EXPECT_EQ(stats.plan_misses, 3u);
  EXPECT_EQ(stats.plan_store_hits, 0u);
  EXPECT_GE(stats.plan_evictions, 2u);
  EXPECT_EQ(runner.cache().plan_count(), 1u);
  EXPECT_EQ(store.stats().writes, 3u);

  const auto warm = runner.run(specs);
  stats = runner.cache_stats();
  EXPECT_EQ(stats.plan_misses, 3u) << "evictions must not cause recomputes";
  EXPECT_EQ(stats.plan_store_hits, 3u);

  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].rounds, warm[i].rounds) << specs[i].graph.generator;
    EXPECT_EQ(cold[i].completion_round, warm[i].completion_round);
    EXPECT_EQ(cold[i].ok, warm[i].ok);
  }
}

// The acceptance oracle: kill the process (here: drop the runner), start a
// fresh one over the same store directory, and the first batch must run
// with zero labeling constructions — plans and compiled executions all
// decode from disk — while reproducing the cold results byte for byte.
TEST(PlanStoreWarmRestart, FreshRunnerAnswersFromTheStoreAlone) {
  const std::string dir = fresh_dir("warm_restart");
  const graph::Graph g = graph::grid(3, 4);

  std::vector<runtime::ExperimentSpec> specs;
  for (const char* scheme :
       {"b", "ack", "common-round", "arb", "multi", "round-robin"}) {
    runtime::ExperimentSpec spec;
    spec.scheme = scheme;
    spec.graph.generator = "grid:3:4";
    spec.source = 2;
    specs.push_back(std::move(spec));
  }
  // Compiled fast-path specs exercise the .cplan records too.
  for (const char* scheme : {"b", "ack", "arb"}) {
    runtime::ExperimentSpec spec;
    spec.scheme = scheme;
    spec.graph.generator = "grid:3:4";
    spec.source = 0;
    spec.config.compiled = true;
    specs.push_back(std::move(spec));
  }

  std::vector<std::string> cold_lines;
  {
    par::ThreadPool pool(2);
    PlanStore store(dir);
    runtime::SweepRunner runner(pool);
    runner.attach_store(&store);
    runner.add_graph(g, "grid:3:4");
    const auto results = runner.run(specs);
    cold_lines = analysis::format_sweep(specs, results);
    const auto stats = runner.cache_stats();
    EXPECT_GT(stats.plan_misses, 0u);
    EXPECT_GT(stats.compiled_misses, 0u);
    EXPECT_GT(store.stats().writes, 0u);
  }

  // "Restart": nothing survives but the directory.  The new runner has
  // never seen the graph — the GraphRef generator materializes it.
  par::ThreadPool pool(2);
  PlanStore store(dir);
  EXPECT_GT(store.entry_count(), 0u);
  runtime::SweepRunner runner(pool);
  runner.attach_store(&store);
  const auto results = runner.run(specs);
  const auto stats = runner.cache_stats();
  EXPECT_EQ(stats.plan_misses, 0u)
      << "a warm restart must not construct any labeling";
  EXPECT_EQ(stats.compiled_misses, 0u)
      << "a warm restart must not recompile any execution";
  EXPECT_GT(stats.plan_store_hits, 0u);
  EXPECT_GT(stats.compiled_store_hits, 0u);
  EXPECT_EQ(analysis::format_sweep(specs, results), cold_lines);
}

// A writer that crashes between creating its temp file and renaming it into
// place leaves "<record>.tmp<N>" behind.  Opening the store sweeps those
// orphans (they were never visible under a live key), counts them, and
// leaves real records untouched.
TEST(PlanStore, OpenSweepsOrphanedTempFiles) {
  const std::string dir = fresh_dir("orphans");
  {
    PlanStore store(dir);
    EXPECT_EQ(store.stats().orphans_swept, 0u);
    ASSERT_TRUE(store.put(PlanStoreKind::kPlan, "live-key", "fam", "payload"));
  }
  // Simulate two crashed writers plus an unrelated file the sweep must not
  // touch.
  const std::string live =
      PlanStore(dir).record_path(PlanStoreKind::kPlan, "live-key");
  std::ofstream(live + ".tmp3") << "half-written";
  std::ofstream(dir + "/deadbeef00000000.cplan.tmp12") << "torn";
  std::ofstream(dir + "/notes.txt") << "keep me";

  PlanStore reopened(dir);
  EXPECT_EQ(reopened.stats().orphans_swept, 2u);
  EXPECT_FALSE(std::filesystem::exists(live + ".tmp3"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/deadbeef00000000.cplan.tmp12"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/notes.txt"));
  // The live record still reads back.
  const auto payload =
      reopened.get(PlanStoreKind::kPlan, "live-key", "fam");
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "payload");
  EXPECT_EQ(reopened.entry_count(), 1u);
}

// compact(max_bytes) shrinks the store to the budget by deleting the
// records least likely to be needed again: never-read records go first
// (oldest on disk leading), then served records in least-recently-read
// order.  Survivors keep answering; the evicted count lands in stats.
TEST(PlanStoreCompact, EvictsLeastRecentlyReadRecordsFirst) {
  PlanStore store(fresh_dir("compact"));
  const std::string payload(64, 'p');
  for (const char* key : {"k1", "k2", "k3", "k4"}) {
    ASSERT_TRUE(store.put(PlanStoreKind::kPlan, key, "fam", payload));
  }
  const std::size_t total = store.total_bytes();
  ASSERT_GT(total, 0u);
  ASSERT_EQ(total % 4, 0u) << "identical records must have identical sizes";
  const std::size_t record = total / 4;

  // Serve k2 then k4: k4 is now the most recently read, k2 second; k1 and
  // k3 have never been read and are the first eviction candidates.
  ASSERT_TRUE(store.get(PlanStoreKind::kPlan, "k2", "fam").has_value());
  ASSERT_TRUE(store.get(PlanStoreKind::kPlan, "k4", "fam").has_value());

  // A budget the store already satisfies evicts nothing.
  EXPECT_EQ(store.compact(total), 0u);
  EXPECT_EQ(store.stats().records_evicted, 0u);
  EXPECT_EQ(store.entry_count(), 4u);

  // Halving the budget must take both never-read records and neither of
  // the served ones.
  EXPECT_EQ(store.compact(2 * record), 2u);
  EXPECT_EQ(store.stats().records_evicted, 2u);
  EXPECT_EQ(store.entry_count(), 2u);
  EXPECT_LE(store.total_bytes(), 2 * record);
  EXPECT_EQ(store.get(PlanStoreKind::kPlan, "k1", "fam"), std::nullopt);
  EXPECT_EQ(store.get(PlanStoreKind::kPlan, "k3", "fam"), std::nullopt);
  EXPECT_TRUE(store.get(PlanStoreKind::kPlan, "k2", "fam").has_value());
  EXPECT_TRUE(store.get(PlanStoreKind::kPlan, "k4", "fam").has_value());

  // Down to one record: k2 was read before k4 on the last pass... but the
  // misses above did not touch recency, and k2's successful reload just
  // made it the freshest.  Read k4 again to pin the order, then compact.
  ASSERT_TRUE(store.get(PlanStoreKind::kPlan, "k4", "fam").has_value());
  EXPECT_EQ(store.compact(record), 1u);
  EXPECT_EQ(store.stats().records_evicted, 3u);
  EXPECT_EQ(store.get(PlanStoreKind::kPlan, "k2", "fam"), std::nullopt);
  EXPECT_TRUE(store.get(PlanStoreKind::kPlan, "k4", "fam").has_value());

  // A zero budget empties the store entirely.
  EXPECT_EQ(store.compact(0), 1u);
  EXPECT_EQ(store.stats().records_evicted, 4u);
  EXPECT_EQ(store.entry_count(), 0u);
  EXPECT_EQ(store.total_bytes(), 0u);

  // An evicted key is a miss, not a rejection — and a re-put restores it.
  EXPECT_EQ(store.stats().rejected, 0u);
  ASSERT_TRUE(store.put(PlanStoreKind::kPlan, "k4", "fam", payload));
  EXPECT_TRUE(store.get(PlanStoreKind::kPlan, "k4", "fam").has_value());
}

// ---------------------------------------------------------------------------
// The packed λ_ack / λ_arb records.  These tests read the documented layout
// directly rather than through the codec:
//   tag | u32 n | u32 anchor | u32 z | u32 ℓ | u8 policy | u64 seed
//   | ⌈3n/8⌉ label bytes (node v's Label::value() at bits 3v..3v+2)
// and a compiled record is 'R' | that plan | u32 µ | fixed-width result.

constexpr std::size_t kHeader = 26;          // plan fields before the labels
constexpr std::size_t kCompiledExtra = 140;  // 'R', µ and the fixed result

const runtime::Scheme& scheme_named(const char* name) {
  const runtime::Scheme* scheme =
      runtime::SchemeRegistry::instance().find(name);
  RC_EXPECTS(scheme != nullptr);
  return *scheme;
}

std::uint32_t read_u32(const std::string& b, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= std::uint32_t{static_cast<std::uint8_t>(b[at + i])} << (8 * i);
  }
  return v;
}

void write_u32(std::string& b, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    b[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

bool bit_at(const std::string& b, std::size_t labels, std::uint64_t bit) {
  const auto byte = static_cast<std::uint8_t>(b[labels + bit / 8]);
  return ((byte >> (bit % 8)) & 1u) != 0;
}

void set_bit(std::string& b, std::size_t labels, std::uint64_t bit, bool on) {
  auto byte = static_cast<std::uint8_t>(b[labels + bit / 8]);
  const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
  b[labels + bit / 8] = static_cast<char>(on ? byte | mask : byte & ~mask);
}

/// Node v's label value in the plan that starts at `base`.
unsigned label_at(const std::string& b, std::size_t base, std::uint64_t v) {
  unsigned value = 0;
  for (unsigned k = 0; k < 3; ++k) {
    value |= (bit_at(b, base + kHeader, 3 * v + k) ? 1u : 0u) << k;
  }
  return value;
}

void set_label(std::string& b, std::size_t base, std::uint64_t v,
               unsigned value) {
  for (unsigned k = 0; k < 3; ++k) {
    set_bit(b, base + kHeader, 3 * v + k, ((value >> k) & 1u) != 0);
  }
}

/// Empty when the plan starting at `base` is one λ_ack (or, with `arb`,
/// λ_arb) can produce: ids below n, labels in Fact 3.1's alphabet, 001 at z
/// alone, 111 at the coordinator alone, and zero pad bits.
std::string packed_violation(const std::string& b, std::size_t base, bool arb) {
  if (b.size() < base + kHeader) return "short header";
  const std::uint64_t n = read_u32(b, base + 1);
  const std::uint32_t anchor = read_u32(b, base + 5);
  const std::uint32_t z = read_u32(b, base + 9);
  if (n == 0 || anchor >= n || z >= n) return "id out of range";
  const std::uint64_t packed = (3 * n + 7) / 8;
  if (b.size() < base + kHeader + packed) return "short labels";
  std::uint64_t coordinators = 0, zs = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    const unsigned value = label_at(b, base, v);
    if (value == 0b011 || value == 0b101) return "label outside the alphabet";
    if (value == 0b111) {
      if (!arb || v != anchor) return "111 off the coordinator";
      ++coordinators;
    }
    if (value == 0b001) {
      if (v != z) return "001 off z";
      ++zs;
    }
  }
  if (arb && coordinators != 1) return "no coordinator";
  if (n > 1 && zs != 1) return "no z";
  for (std::uint64_t bit = 3 * n; bit < 8 * packed; ++bit) {
    if (bit_at(b, base + kHeader, bit)) return "pad bit set";
  }
  return {};
}

std::string encode_plan(const runtime::Scheme& scheme,
                        const runtime::PlanPtr& plan) {
  support::ByteWriter writer;
  scheme.encode_plan(*plan, writer);
  return writer.take();
}

std::string encode_compiled(const runtime::Scheme& scheme,
                            const runtime::CompiledPlanPtr& compiled) {
  support::ByteWriter writer;
  scheme.encode_compiled(*compiled, writer);
  return writer.take();
}

runtime::PlanPtr decode_plan(const runtime::Scheme& scheme,
                             const std::string& bytes) {
  support::ByteReader reader(bytes);
  return scheme.decode_plan(reader);
}

/// Decodes `bytes` as a plan (or compiled record) of `scheme`: nullopt when
/// rejected, otherwise the re-encoded plan's `packed_violation`.
std::optional<std::string> decode_verdict(const runtime::Scheme& scheme,
                                          bool compiled, bool arb,
                                          const std::string& bytes) {
  support::ByteReader reader(bytes);
  if (compiled) {
    const auto entry = scheme.decode_compiled(reader);
    if (entry == nullptr) return std::nullopt;
    return packed_violation(encode_compiled(scheme, entry), 1, arb);
  }
  const auto plan = scheme.decode_plan(reader);
  if (plan == nullptr) return std::nullopt;
  return packed_violation(encode_plan(scheme, plan), 0, arb);
}

// A length prefix that claims more elements than bytes remain is rejected
// by every vector reader, including counts whose byte size wraps 2⁶⁴.
TEST(ByteReaderLengths, EveryVectorReaderRejectsALengthLie) {
  const std::uint64_t lies[] = {9, 1ull << 61, ~0ull - 6, ~0ull};
  for (const std::uint64_t count : lies) {
    support::ByteWriter writer;
    writer.u64(count);
    writer.u8(0xFF);  // one payload byte: room for 8 bits, no u32 or u64
    const std::string bytes = writer.bytes();
    {
      support::ByteReader reader(bytes);
      EXPECT_TRUE(reader.vec_bool().empty()) << count;
      EXPECT_FALSE(reader.ok()) << count;
    }
    {
      support::ByteReader reader(bytes);
      EXPECT_TRUE(reader.vec_u32().empty()) << count;
      EXPECT_FALSE(reader.ok()) << count;
    }
    {
      support::ByteReader reader(bytes);
      EXPECT_TRUE(reader.vec_u64().empty()) << count;
      EXPECT_FALSE(reader.ok()) << count;
    }
  }
  // The boundary itself still decodes: 8 bits in one byte.
  support::ByteWriter writer;
  writer.vec_bool(std::vector<bool>(8, true));
  support::ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.vec_bool(), std::vector<bool>(8, true));
  EXPECT_TRUE(reader.exhausted());
}

// A one-bit plan record claiming 2⁶⁴ − 7 bits is rejected, not decoded
// into a zero-word bit vector and written past its end.
TEST(ByteReaderLengths, OneBitPlanWithAWrappingBitCountIsRejected) {
  const auto* scheme = runtime::SchemeRegistry::instance().find("onebit");
  ASSERT_NE(scheme, nullptr);
  const std::string payload("\x4F\x01\xF9\xFF\xFF\xFF\xFF\xFF\xFF\xFF", 10);
  EXPECT_EQ(decode_plan(*scheme, payload), nullptr);
}

// Every λ_ack / λ_arb plan payload is at most ⌈3n/8⌉ + 64 bytes (26 bytes
// of fields today), and a compiled payload adds exactly its tag, µ and the
// fixed-width result, whatever n is.
TEST(PackedPlans, PayloadsStayWithinTheLabelBound) {
  Rng rng(0xB17);
  for (const std::uint32_t n : {1u, 2u, 3u, 8u, 21u, 64u, 333u, 2048u}) {
    const graph::Graph g = n == 1 ? graph::path(1) : graph::random_tree(n, rng);
    const std::uint64_t labels = (3ull * n + 7) / 8;
    for (const char* name : {"b", "ack", "arb"}) {
      const bool arb = std::string(name) == "arb";
      if (n == 1 && arb) continue;  // B_arb needs two nodes
      const std::string what = "n=" + std::to_string(n) + " " + name;
      const runtime::Scheme& scheme = scheme_named(name);
      const runtime::PlanPtr plan = scheme.label(g, 0, {});
      const std::string plan_bytes = encode_plan(scheme, plan);
      EXPECT_EQ(plan_bytes.size(), labels + kHeader) << what;
      EXPECT_LE(plan_bytes.size(), labels + 64) << what;
      EXPECT_EQ(packed_violation(plan_bytes, 0, arb), "") << what;

      const auto compiled = scheme.compile(g, 0, plan, {}, {});
      ASSERT_NE(compiled, nullptr) << what;
      const std::string compiled_bytes = encode_compiled(scheme, compiled);
      EXPECT_EQ(compiled_bytes.size(), plan_bytes.size() + kCompiledExtra)
          << what;
      EXPECT_EQ(compiled_bytes.substr(1, plan_bytes.size()), plan_bytes)
          << what;
    }
  }
}

// The decoder's checks, one corruption at a time: bad lengths, labels
// outside the alphabet, set pad bits and out-of-range ids.  λ_ack is
// grid 3×4 from node 1 (36 label bits, so four pad bits); λ_arb has
// coordinator 0.
TEST(PackedPlans, CorruptionMatrixIsRejected) {
  const graph::Graph g = graph::grid(3, 4);
  const runtime::Scheme& ack = scheme_named("ack");
  const runtime::Scheme& arb = scheme_named("arb");
  const std::string lam = encode_plan(ack, ack.label(g, 1, {}));
  const std::string lam_arb = encode_plan(arb, arb.label(g, 1, {}));
  ASSERT_NE(decode_plan(ack, lam), nullptr);
  ASSERT_NE(decode_plan(arb, lam_arb), nullptr);
  const std::uint32_t n = g.node_count();
  ASSERT_EQ(read_u32(lam, 1), n);
  ASSERT_EQ(lam.size(), kHeader + 5);
  const std::uint32_t source = read_u32(lam, 5);
  const std::uint32_t z = read_u32(lam, 9);
  const std::uint32_t r = read_u32(lam_arb, 5);
  const std::uint32_t arb_z = read_u32(lam_arb, 9);
  ASSERT_EQ(source, 1u);
  ASSERT_EQ(r, 0u);
  graph::NodeId other = 0;  // a node no special label sits on
  while (other == source || other == z || other == r || other == arb_z) {
    ++other;
  }

  const auto expect_rejected = [](const runtime::Scheme& scheme,
                                  const std::string& bytes,
                                  const std::string& what) {
    EXPECT_EQ(decode_plan(scheme, bytes), nullptr) << what;
  };
  const auto with_u32 = [](std::string bytes, std::size_t at, std::uint32_t v) {
    write_u32(bytes, at, v);
    return bytes;
  };
  const auto with_label = [](std::string bytes, graph::NodeId v,
                             unsigned value) {
    set_label(bytes, 0, v, value);
    return bytes;
  };

  // Bad length.
  expect_rejected(ack, lam.substr(0, lam.size() - 1), "one label byte short");
  expect_rejected(ack, lam + '\0', "trailing byte");
  expect_rejected(ack, with_u32(lam, 1, n + 8), "count claims 3 more bytes");
  expect_rejected(ack, with_u32(lam, 1, 0), "no nodes");

  // Labels outside λ_ack's alphabet, a second z, and z without its 001.
  for (const unsigned value : {0b011u, 0b101u, 0b111u, 0b001u}) {
    expect_rejected(ack, with_label(lam, other, value),
                    "label " + std::to_string(value) + " off z");
  }
  expect_rejected(ack, with_label(lam, z, 0), "z labeled 000");

  // Set pad bits.
  for (std::uint64_t bit = 3ull * n; bit < 40; ++bit) {
    std::string bad = lam;
    set_bit(bad, kHeader, bit, true);
    expect_rejected(ack, bad, "pad bit " + std::to_string(bit));
  }

  // Out-of-range ids, stage counts and policies.
  expect_rejected(ack, with_u32(lam, 5, n), "source = n");
  expect_rejected(ack, with_u32(lam, 9, n), "z = n");
  expect_rejected(ack, with_u32(lam, 13, 0), "ell = 0");
  expect_rejected(ack, with_u32(lam, 13, n + 1), "ell > n (Lemma 2.6)");
  std::string bad_policy = lam;
  bad_policy[17] = 7;
  expect_rejected(ack, bad_policy, "unknown policy");

  // λ_arb: 011 and 101, a second 111, and a misplaced one.
  for (const unsigned value : {0b011u, 0b101u, 0b111u}) {
    expect_rejected(arb, with_label(lam_arb, other, value),
                    "λ_arb label " + std::to_string(value));
  }
  expect_rejected(arb, with_label(lam_arb, r, 0b110),
                  "no 111 at the coordinator");
  expect_rejected(arb, with_u32(lam_arb, 5, other),
                  "coordinator field away from the 111");

  // The tags keep the two kinds apart.
  expect_rejected(arb, lam, "λ_ack record read as λ_arb");
  expect_rejected(ack, lam_arb, "λ_arb record read as λ_ack");
}

// A deterministic mutation sweep over canonical λ_ack, λ_arb and compiled
// b / ack / arb records: every single-byte flip, every truncation and a
// set of false label counts either decodes to a plan that passes the
// checks above or is rejected.  None may crash (the sanitizer jobs run
// this) and none may yield a label outside the alphabet.
TEST(PackedPlans, NoMutantCrashesOrLeavesTheAlphabet) {
  Rng rng(0x5EED);
  const graph::Graph g = graph::gnp_connected(21, 0.2, rng);  // 1 pad bit
  runtime::SchemeOptions arb_opt;
  arb_opt.coordinator = 3;
  struct Record {
    const char* scheme;
    bool compiled;
    std::string bytes;
  };
  std::vector<Record> records;
  for (const char* name : {"ack", "arb"}) {
    const runtime::Scheme& scheme = scheme_named(name);
    const runtime::SchemeOptions opt =
        std::string(name) == "arb" ? arb_opt : runtime::SchemeOptions{};
    const auto plan = scheme.label(g, 0, opt);
    records.push_back({name, false, encode_plan(scheme, plan)});
  }
  for (const char* name : {"b", "ack", "arb"}) {
    const runtime::Scheme& scheme = scheme_named(name);
    const runtime::SchemeOptions opt =
        std::string(name) == "arb" ? arb_opt : runtime::SchemeOptions{};
    const auto plan = scheme.label(g, 5, opt);
    const auto compiled = scheme.compile(g, 5, plan, opt, {});
    records.push_back({name, true, encode_compiled(scheme, compiled)});
  }

  constexpr unsigned kMasks[] = {1, 2, 4, 8, 16, 32, 64, 128, 255};
  std::uint64_t decoded = 0, rejected = 0;
  for (const Record& rec : records) {
    const runtime::Scheme& scheme = scheme_named(rec.scheme);
    const bool arb = std::string(rec.scheme) == "arb";
    const std::string tag =
        std::string(rec.scheme) + (rec.compiled ? " compiled" : " plan");
    const auto verdict = [&](const std::string& bytes) {
      return decode_verdict(scheme, rec.compiled, arb, bytes);
    };
    const auto check = [&](const std::string& mutant, const std::string& what) {
      const auto v = verdict(mutant);
      if (!v) {
        ++rejected;
        return;
      }
      ++decoded;
      EXPECT_EQ(*v, "") << tag << " " << what;
    };

    ASSERT_EQ(verdict(rec.bytes), std::optional<std::string>("")) << tag;
    for (std::size_t at = 0; at < rec.bytes.size(); ++at) {
      for (const unsigned mask : kMasks) {
        std::string mutant = rec.bytes;
        mutant[at] = static_cast<char>(mutant[at] ^ mask);
        const std::string what = "byte " + std::to_string(at);
        check(mutant, what + " ^ " + std::to_string(mask));
      }
    }
    for (std::size_t len = 0; len < rec.bytes.size(); ++len) {
      EXPECT_FALSE(verdict(rec.bytes.substr(0, len)).has_value())
          << tag << " truncated to " << len;
    }
    const std::size_t count_at = rec.compiled ? 2 : 1;
    const std::uint32_t n = read_u32(rec.bytes, count_at);
    ASSERT_EQ(n, g.node_count()) << tag;
    const std::uint32_t lies[] = {0, 1, n - 1, n + 1, n + 3, n + 8, 2 * n, ~0u};
    for (const std::uint32_t lie : lies) {
      std::string mutant = rec.bytes;
      write_u32(mutant, count_at, lie);
      check(mutant, "label count " + std::to_string(lie));
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(decoded, 0u);  // flips in the seed, µ or the result still decode
}

// verify (Lemma 2.8) rebuilds the stage sets from the plan's (graph,
// source, policy, seed): it passes on a plan back from the store, and it
// names a well-formed plan whose labels are not the labeler's.
TEST(PackedPlans, VerifyRebuildsStageSetsFromThePlan) {
  const graph::Graph g = graph::grid(4, 4);
  const runtime::Scheme& b = scheme_named("b");
  const std::string bytes = encode_plan(b, b.label(g, 0, {}));
  const runtime::PlanPtr decoded = decode_plan(b, bytes);
  ASSERT_NE(decoded, nullptr);
  runtime::ExecutionConfig config;
  config.trace = sim::TraceLevel::kFull;
  const auto run = runtime::run_with_plan(b, g, 0, decoded, {}, config);
  ASSERT_TRUE(run.ok);
  EXPECT_EQ(b.verify(g, 0, *decoded, run.trace), "");

  // Toggle x1 at a plain node: still in the alphabet, no longer λ_ack's.
  const std::uint32_t z = read_u32(bytes, 9);
  graph::NodeId v = 1;
  while (v == z) ++v;
  std::string tampered = bytes;
  set_label(tampered, 0, v, label_at(bytes, 0, v) ^ 0b100u);
  const runtime::PlanPtr foreign = decode_plan(b, tampered);
  ASSERT_NE(foreign, nullptr);
  EXPECT_NE(b.verify(g, 0, *foreign, run.trace), "");
}

runtime::ExperimentSpec grid_spec(const char* scheme, graph::NodeId source,
                                  bool compiled) {
  runtime::ExperimentSpec spec;
  spec.scheme = scheme;
  spec.graph.generator = "grid:4:4";
  spec.source = source;
  spec.config.compiled = compiled;
  return spec;
}

// Misses are deduplicated before the store is consulted: on a fresh store a
// batch of many specs over few keys reads the store once per distinct key
// and writes each once, and a warm restart over the same batch counts as it
// always has — one store hit per key, cache hits for every other spec.
TEST(PlanStoreProbes, OneStoreReadPerMissingKey) {
  const std::string dir = fresh_dir("probes");
  std::vector<runtime::ExperimentSpec> specs;
  for (int copy = 0; copy < 4; ++copy) {
    for (graph::NodeId source = 0; source < 3; ++source) {
      for (const char* scheme : {"b", "ack", "common-round"}) {
        specs.push_back(grid_spec(scheme, source, false));
      }
    }
    for (const char* scheme : {"b", "ack", "arb"}) {
      specs.push_back(grid_spec(scheme, 0, true));
    }
  }
  // Keys: λ_ack at sources 0-2 and λ_arb; compiled b, ack and arb at 0.
  constexpr std::uint64_t kPlanKeys = 4;
  constexpr std::uint64_t kCompiledKeys = 3;
  const std::uint64_t compiled_specs = 12;

  {
    par::ThreadPool pool(2);
    PlanStore store(dir);
    runtime::SweepRunner runner(pool);
    runner.attach_store(&store);
    runner.run(specs);
    EXPECT_EQ(store.stats().reads, kPlanKeys + kCompiledKeys);
    EXPECT_EQ(store.stats().writes, kPlanKeys + kCompiledKeys);
    const auto stats = runner.cache_stats();
    EXPECT_EQ(stats.plan_misses, kPlanKeys);
    EXPECT_EQ(stats.plan_hits, specs.size() - kPlanKeys);
    EXPECT_EQ(stats.plan_store_hits, 0u);
    EXPECT_EQ(stats.compiled_misses, kCompiledKeys);
    EXPECT_EQ(stats.compiled_hits, compiled_specs - kCompiledKeys);
  }

  par::ThreadPool pool(2);
  PlanStore store(dir);
  runtime::SweepRunner runner(pool);
  runner.attach_store(&store);
  runner.run(specs);
  EXPECT_EQ(store.stats().reads, kPlanKeys + kCompiledKeys);
  EXPECT_EQ(store.stats().read_hits, kPlanKeys + kCompiledKeys);
  EXPECT_EQ(store.stats().writes, 0u);
  const auto stats = runner.cache_stats();
  EXPECT_EQ(stats.plan_misses, 0u);
  EXPECT_EQ(stats.plan_store_hits, kPlanKeys);
  EXPECT_EQ(stats.plan_hits, specs.size() - kPlanKeys);
  EXPECT_EQ(stats.compiled_misses, 0u);
  EXPECT_EQ(stats.compiled_store_hits, kCompiledKeys);
  EXPECT_EQ(stats.compiled_hits, compiled_specs - kCompiledKeys);
}

// Records of the previous format version (unpacked plans with stage sets)
// are rejected, and their entries recomputed and rewritten, so an upgraded
// process heals its store.
TEST(PlanStoreVersion, OldRecordsAreRejectedAndRecomputed) {
  const std::string dir = fresh_dir("old_version");
  std::vector<runtime::ExperimentSpec> specs;
  specs.push_back(grid_spec("b", 0, false));
  specs.push_back(grid_spec("ack", 0, true));
  specs.push_back(grid_spec("arb", 2, false));
  std::vector<std::string> cold_lines;
  {
    par::ThreadPool pool(2);
    PlanStore store(dir);
    runtime::SweepRunner runner(pool);
    runner.attach_store(&store);
    cold_lines = analysis::format_sweep(specs, runner.run(specs));
    ASSERT_EQ(store.stats().writes, 3u);  // λ_ack, λ_arb, compiled ack
  }
  std::size_t stamped = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string bytes;
    {
      std::ifstream in(entry.path(), std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_EQ(read_u32(bytes, 4), PlanStore::kFormatVersion);
    write_u32(bytes, 4, PlanStore::kFormatVersion - 1);
    std::ofstream(entry.path(), std::ios::binary | std::ios::trunc) << bytes;
    ++stamped;
  }
  ASSERT_EQ(stamped, 3u);

  for (const bool healed : {false, true}) {
    par::ThreadPool pool(2);
    PlanStore store(dir);
    runtime::SweepRunner runner(pool);
    runner.attach_store(&store);
    EXPECT_EQ(analysis::format_sweep(specs, runner.run(specs)), cold_lines);
    const auto stats = runner.cache_stats();
    EXPECT_EQ(store.stats().rejected, healed ? 0u : 3u);
    EXPECT_EQ(store.stats().writes, healed ? 0u : 3u);
    EXPECT_EQ(stats.plan_misses, healed ? 0u : 2u);
    EXPECT_EQ(stats.compiled_misses, healed ? 0u : 1u);
    EXPECT_EQ(stats.plan_store_hits, healed ? 2u : 0u);
  }
}

// A compiled entry shares its plan with the plan cache, so it charges the
// cache budget only for what it owns: its µ and result, not the labels.
TEST(PlanCacheFootprint, CompiledEntriesChargeOnlyWhatTheyOwn) {
  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  runtime::ExperimentSpec spec;
  spec.scheme = "ack";
  spec.graph.generator = "grid:40:40";
  runner.run({spec});
  const std::size_t plan_bytes = runner.cache().bytes();
  EXPECT_GE(plan_bytes, 1600 * sizeof(core::Label));
  spec.config.compiled = true;
  runner.run({spec});
  EXPECT_EQ(runner.cache().plan_count(), 1u);
  EXPECT_EQ(runner.cache().compiled_count(), 1u);
  const std::size_t compiled_bytes = runner.cache().bytes() - plan_bytes;
  EXPECT_GT(compiled_bytes, 0u);
  EXPECT_LT(compiled_bytes, 1024u);
}

}  // namespace
}  // namespace radiocast
