// Tests for the unified bench harness: the scenario registry must expose all
// 16 scenarios, --filter must select by name substring and exact tag, the CLI
// parser must accept/reject the documented forms, and the emitted JSON must
// parse and carry the required keys on every sample.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"

namespace radiocast::bench {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON reader, just enough to validate harness output structurally.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind =
      Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const { return object.at(key); }
  bool has(const std::string& key) const { return object.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    const JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw std::runtime_error("json parse error at " + std::to_string(pos_) +
                             ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) == 0) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.str = string();
        return v;
      }
      default: {
        JsonValue v;
        if (consume("true")) {
          v.kind = JsonValue::Kind::kBool;
          v.boolean = true;
        } else if (consume("false")) {
          v.kind = JsonValue::Kind::kBool;
        } else if (consume("null")) {
          v.kind = JsonValue::Kind::kNull;
        } else {
          v.kind = JsonValue::Kind::kNumber;
          v.number = number();
        }
        return v;
      }
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            pos_ += 4;  // validated but not decoded; harness emits ASCII
            out += '?';
            break;
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  double number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    return std::stod(text_.substr(start, pos_ - start));
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      const std::string key = string();
      skip_ws();
      expect(':');
      v.object[key] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

const std::set<std::string> kExpectedScenarios = {
    "ack",           "arbitrary_source",    "baselines",
    "broadcast_time", "collision_detection", "common_round",
    "construction",  "coordinator_choice",  "dispatch_scaling",
    "dom_policies",  "engine_backends",     "fault_resilience",
    "fig1",          "impossibility",       "labels",
    "mega_scale",    "message_size",        "multi_message",
    "onebit",        "serve_throughput",    "sim_throughput",
    "sweep_throughput"};

TEST(BenchRegistry, ListsAllTwentyTwoScenarios) {
  std::set<std::string> names;
  for (const auto& s : registry()) names.insert(s.name);
  EXPECT_EQ(names, kExpectedScenarios);
}

TEST(BenchRegistry, SortedUniqueAndRunnable) {
  const auto reg = registry();
  EXPECT_TRUE(std::is_sorted(
      reg.begin(), reg.end(),
      [](const Scenario& a, const Scenario& b) { return a.name < b.name; }));
  for (const auto& s : reg) {
    EXPECT_NE(s.run, nullptr) << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
    EXPECT_FALSE(s.tags.empty()) << s.name;
  }
}

TEST(BenchRegistry, DuplicateRegistrationIsRejected) {
  const auto before = registry().size();
  EXPECT_FALSE(register_scenario({"fig1", "dup", {"smoke"}, nullptr}));
  EXPECT_EQ(registry().size(), before);
}

TEST(BenchFilter, EmptyFilterSelectsEverything) {
  EXPECT_EQ(select("").size(), kExpectedScenarios.size());
}

TEST(BenchFilter, NameSubstringSelects) {
  const auto chosen = select("onebit");
  ASSERT_EQ(chosen.size(), 1u);
  EXPECT_EQ(chosen[0].name, "onebit");
}

TEST(BenchFilter, ExactTagSelects) {
  std::set<std::string> names;
  for (const auto& s : select("micro")) names.insert(s.name);
  EXPECT_EQ(names, (std::set<std::string>{
                       "construction", "dispatch_scaling", "engine_backends",
                       "serve_throughput", "sim_throughput",
                       "sweep_throughput"}));
  // Tags match exactly: a tag prefix selects nothing by itself.
  EXPECT_TRUE(select("micr").empty());
}

TEST(BenchFilter, CommaSeparatedTermsUnion) {
  std::set<std::string> names;
  for (const auto& s : select("fig1,ablation")) names.insert(s.name);
  EXPECT_EQ(names, (std::set<std::string>{"coordinator_choice", "dom_policies",
                                          "fig1"}));
}

TEST(BenchFilter, SmokeTagCoversAllScenariosExceptScaling) {
  // The scaling scenarios (dispatch_scaling, sweep_throughput,
  // serve_throughput, mega_scale) raise their instance sizes to
  // n >= 4096..100000 — deliberately excluded from the smoke tier (CI runs
  // them explicitly).
  std::set<std::string> names;
  for (const auto& s : select("smoke")) names.insert(s.name);
  auto expected = kExpectedScenarios;
  expected.erase("dispatch_scaling");
  expected.erase("sweep_throughput");
  expected.erase("serve_throughput");
  expected.erase("mega_scale");
  EXPECT_EQ(names, expected);
}

TEST(BenchCli, ParsesTheDocumentedFlags) {
  const char* argv[] = {"radiocast_bench", "--filter", "smoke",   "--sizes",
                        "64,128",          "--repeat", "3",       "--json",
                        "x.json",          "--threads", "2"};
  const auto opt = parse_args(static_cast<int>(std::size(argv)), argv);
  EXPECT_TRUE(opt.error.empty()) << opt.error;
  EXPECT_EQ(opt.filter, "smoke");
  EXPECT_EQ(opt.sizes, (std::vector<std::uint32_t>{64, 128}));
  EXPECT_EQ(opt.repeat, 3);
  EXPECT_EQ(opt.json_path, "x.json");
  EXPECT_EQ(opt.exec.threads, 2u);
}

TEST(BenchCli, DefaultsAndErrors) {
  const char* none[] = {"radiocast_bench"};
  const auto def = parse_args(1, none);
  EXPECT_TRUE(def.error.empty());
  EXPECT_EQ(def.sizes, (std::vector<std::uint32_t>{16, 64, 256}));
  EXPECT_EQ(def.repeat, 1);

  const char* bad_flag[] = {"radiocast_bench", "--frobnicate"};
  EXPECT_FALSE(parse_args(2, bad_flag).error.empty());
  const char* bad_repeat[] = {"radiocast_bench", "--repeat", "0"};
  EXPECT_FALSE(parse_args(3, bad_repeat).error.empty());
  const char* missing[] = {"radiocast_bench", "--sizes"};
  EXPECT_FALSE(parse_args(2, missing).error.empty());
  const char* bad_size[] = {"radiocast_bench", "--sizes", "64,zero"};
  EXPECT_FALSE(parse_args(3, bad_size).error.empty());
  // Below the suite floor (standard_suite requires n >= 8) or above uint32.
  const char* tiny[] = {"radiocast_bench", "--sizes", "4"};
  EXPECT_FALSE(parse_args(3, tiny).error.empty());
  const char* huge[] = {"radiocast_bench", "--sizes", "4294967296"};
  EXPECT_FALSE(parse_args(3, huge).error.empty());
  const char* bad_threads[] = {"radiocast_bench", "--threads", "-1"};
  EXPECT_FALSE(parse_args(3, bad_threads).error.empty());
}

TEST(BenchCli, ParsesBackendFlag) {
  const char* none[] = {"radiocast_bench"};
  EXPECT_EQ(parse_args(1, none).exec.backend, sim::BackendKind::kAuto);

  const char* bit[] = {"radiocast_bench", "--backend", "bit"};
  EXPECT_EQ(parse_args(3, bit).exec.backend, sim::BackendKind::kBit);
  const char* scalar[] = {"radiocast_bench", "--backend", "scalar"};
  EXPECT_EQ(parse_args(3, scalar).exec.backend, sim::BackendKind::kScalar);

  const char* bogus[] = {"radiocast_bench", "--backend", "simd"};
  EXPECT_FALSE(parse_args(3, bogus).error.empty());
  const char* hybrid[] = {"radiocast_bench", "--backend", "hybrid"};
  EXPECT_NE(parse_args(3, hybrid).error.find("unknown backend 'hybrid'"),
            std::string::npos);
  const char* sharded[] = {"radiocast_bench", "--backend", "sharded"};
  EXPECT_NE(parse_args(3, sharded).error.find("unknown backend 'sharded'"),
            std::string::npos);
  const char* missing[] = {"radiocast_bench", "--backend"};
  EXPECT_FALSE(parse_args(2, missing).error.empty());
}

TEST(BenchCli, ParsesDispatchFlag) {
  const char* none[] = {"radiocast_bench"};
  EXPECT_EQ(parse_args(1, none).exec.dispatch, sim::DispatchKind::kAuto);

  const char* scan[] = {"radiocast_bench", "--dispatch", "scan"};
  EXPECT_EQ(parse_args(3, scan).exec.dispatch, sim::DispatchKind::kScan);
  const char* active[] = {"radiocast_bench", "--dispatch", "active"};
  EXPECT_EQ(parse_args(3, active).exec.dispatch, sim::DispatchKind::kActiveSet);

  const char* bogus[] = {"radiocast_bench", "--dispatch", "lazy"};
  EXPECT_FALSE(parse_args(3, bogus).error.empty());
  const char* missing[] = {"radiocast_bench", "--dispatch"};
  EXPECT_FALSE(parse_args(2, missing).error.empty());
}

TEST(BenchCli, ParsesIsaFlag) {
  const char* none[] = {"radiocast_bench"};
  EXPECT_EQ(parse_args(1, none).isa, sim::simd::Isa::kAuto);

  // auto and scalar are available on every host.
  const char* scalar[] = {"radiocast_bench", "--isa", "scalar"};
  EXPECT_EQ(parse_args(3, scalar).isa, sim::simd::Isa::kScalar);
  const char* autod[] = {"radiocast_bench", "--isa", "auto"};
  EXPECT_EQ(parse_args(3, autod).isa, sim::simd::Isa::kAuto);

  const char* bogus[] = {"radiocast_bench", "--isa", "sse9"};
  EXPECT_FALSE(parse_args(3, bogus).error.empty());
  const char* missing[] = {"radiocast_bench", "--isa"};
  EXPECT_FALSE(parse_args(2, missing).error.empty());

  // Every host-supported ISA parses; unavailable ones error instead of
  // silently downgrading.
  for (const auto isa : {sim::simd::Isa::kAvx2, sim::simd::Isa::kAvx512}) {
    const char* name = sim::simd::to_string(isa);
    const char* argv[] = {"radiocast_bench", "--isa", name};
    const auto opt = parse_args(3, argv);
    if (sim::simd::available(isa)) {
      EXPECT_TRUE(opt.error.empty()) << name;
      EXPECT_EQ(opt.isa, isa);
    } else {
      EXPECT_FALSE(opt.error.empty()) << name;
    }
  }
}

TEST(BenchJson, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(BenchJson, EmittedDocumentParsesWithRequiredKeys) {
  // Run the cheapest real scenario end-to-end and validate the document.
  Options opt;
  opt.filter = "fig1";
  opt.sizes = {16};
  const auto chosen = select(opt.filter);
  ASSERT_EQ(chosen.size(), 1u);
  const auto results = run_scenarios(chosen, opt);
  const std::string doc = to_json(results, opt);

  const JsonValue root = JsonParser(doc).parse();
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(root.at("schema").str, "radiocast-bench/1");
  EXPECT_EQ(root.at("repeat").number, 1);
  EXPECT_EQ(root.at("backend").str, "auto");
  EXPECT_EQ(root.at("dispatch").str, "auto");
  // The active kernel ISA rides in the header so snapshots are attributable.
  EXPECT_EQ(root.at("isa").str,
            sim::simd::to_string(sim::simd::active_isa()));
  ASSERT_EQ(root.at("sizes").kind, JsonValue::Kind::kArray);

  const auto& scenarios = root.at("scenarios");
  ASSERT_EQ(scenarios.kind, JsonValue::Kind::kArray);
  ASSERT_EQ(scenarios.array.size(), 1u);
  const auto& sc = scenarios.array[0];
  EXPECT_EQ(sc.at("scenario").str, "fig1");
  EXPECT_TRUE(sc.at("ok").boolean);
  EXPECT_GT(sc.at("wall_ns").number, 0);

  const auto& samples = sc.at("samples");
  ASSERT_EQ(samples.kind, JsonValue::Kind::kArray);
  ASSERT_FALSE(samples.array.empty());
  for (const auto& s : samples.array) {
    for (const char* key :
         {"scenario", "family", "rep", "n", "m", "rounds", "transmissions",
          "wall_ns", "ok"}) {
      EXPECT_TRUE(s.has(key)) << "missing key " << key;
    }
    EXPECT_EQ(s.at("scenario").str, "fig1");
    EXPECT_EQ(s.at("n").number, 13);  // the Figure 1 instance
    EXPECT_TRUE(s.at("ok").boolean);
  }
}

TEST(BenchJson, RepeatProducesOneSampleSetPerRep) {
  Options opt;
  opt.filter = "fig1";
  opt.repeat = 3;
  const auto results = run_scenarios(select(opt.filter), opt);
  ASSERT_EQ(results.size(), 1u);
  std::set<int> reps;
  for (const auto& s : results[0].samples) reps.insert(s.rep);
  EXPECT_EQ(reps, (std::set<int>{0, 1, 2}));
}

TEST(BenchContext, SizeCapClampsAndDeduplicates) {
  par::ThreadPool pool(1);
  Context ctx(pool, {16, 64, 256, 1024}, 1, 0);
  EXPECT_EQ(ctx.sizes(96), (std::vector<std::uint32_t>{16, 64, 96}));
  EXPECT_EQ(ctx.sizes(8), (std::vector<std::uint32_t>{8}));
}

}  // namespace
}  // namespace radiocast::bench
