#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "runtime/flags.hpp"
#include "support/table.hpp"

namespace radiocast::bench {
namespace {

std::vector<Scenario>& mutable_registry() {
  static std::vector<Scenario> scenarios;
  return scenarios;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string cur;
  for (const char c : s) {
    if (c == sep) {
      if (!cur.empty()) parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) parts.push_back(cur);
  return parts;
}

}  // namespace

std::vector<std::uint32_t> Context::sizes(std::uint32_t cap) const {
  std::vector<std::uint32_t> out;
  for (const auto s : sizes_) {
    const auto clamped = std::min(s, cap);
    if (std::find(out.begin(), out.end(), clamped) == out.end()) {
      out.push_back(clamped);
    }
  }
  return out;
}

void Context::record(Sample s) {
  s.rep = rep_;
  const std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back(std::move(s));
}

bool register_scenario(Scenario s) {
  auto& reg = mutable_registry();
  for (const auto& existing : reg) {
    if (existing.name == s.name) return false;
  }
  reg.push_back(std::move(s));
  return true;
}

std::vector<Scenario> registry() {
  auto reg = mutable_registry();
  std::sort(reg.begin(), reg.end(),
            [](const Scenario& a, const Scenario& b) {
              return a.name < b.name;
            });
  return reg;
}

bool matches_filter(const Scenario& s, const std::string& filter) {
  if (filter.empty()) return true;
  for (const auto& term : split(filter, ',')) {
    if (s.name.find(term) != std::string::npos) return true;
    for (const auto& tag : s.tags) {
      if (tag == term) return true;
    }
  }
  return false;
}

std::vector<Scenario> select(const std::string& filter) {
  std::vector<Scenario> chosen;
  for (const auto& s : registry()) {
    if (matches_filter(s, filter)) chosen.push_back(s);
  }
  return chosen;
}

Options parse_args(int argc, const char* const* argv) {
  Options opt;
  const auto need_value = [&](int i) { return i + 1 < argc; };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // The execution knobs go through the shared runtime parser, so the
    // bench and the CLI accept the same values with the same errors.
    const auto shared = runtime::parse_execution_flag(
        arg, need_value(i) ? argv[i + 1] : nullptr, /*allow_compiled=*/false,
        opt.exec);
    if (shared.status == runtime::FlagStatus::kOk) {
      ++i;
      continue;
    }
    if (shared.status == runtime::FlagStatus::kError) {
      opt.error = shared.error;
      return opt;
    }
    if (arg == "--help" || arg == "-h") {
      opt.help = true;
    } else if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--filter") {
      if (!need_value(i)) {
        opt.error = "--filter requires a value";
        return opt;
      }
      opt.filter = argv[++i];
    } else if (arg == "--json") {
      if (!need_value(i)) {
        opt.error = "--json requires a path";
        return opt;
      }
      opt.json_path = argv[++i];
    } else if (arg == "--repeat") {
      if (!need_value(i)) {
        opt.error = "--repeat requires a count";
        return opt;
      }
      opt.repeat = std::atoi(argv[++i]);
      if (opt.repeat < 1) {
        opt.error = "--repeat must be >= 1";
        return opt;
      }
    } else if (arg == "--isa") {
      if (!need_value(i)) {
        opt.error = "--isa requires a value (auto, scalar, avx2, avx512)";
        return opt;
      }
      const auto isa = sim::simd::parse_isa(argv[++i]);
      if (!isa) {
        opt.error = std::string("unknown --isa '") + argv[i] +
                    "' (expected auto, scalar, avx2, or avx512)";
        return opt;
      }
      if (!sim::simd::available(*isa)) {
        opt.error = std::string("--isa ") + argv[i] +
                    " is not available on this host";
        return opt;
      }
      opt.isa = *isa;
    } else if (arg == "--sizes") {
      if (!need_value(i)) {
        opt.error = "--sizes requires a comma-separated list";
        return opt;
      }
      opt.sizes.clear();
      for (const auto& tok : split(argv[++i], ',')) {
        const long long v = std::atoll(tok.c_str());
        // The workload suites (analysis::standard_suite) require n >= 8.
        if (v < 8 || v > 0xFFFFFFFFll) {
          opt.error =
              "--sizes entries must be integers >= 8, got '" + tok + "'";
          return opt;
        }
        opt.sizes.push_back(static_cast<std::uint32_t>(v));
      }
      if (opt.sizes.empty()) {
        opt.error = "--sizes requires at least one size";
        return opt;
      }
    } else {
      opt.error = "unknown argument '" + arg + "'";
      return opt;
    }
  }
  return opt;
}

std::vector<ScenarioResult> run_scenarios(const std::vector<Scenario>& chosen,
                                          const Options& opt) {
  par::ThreadPool pool(opt.exec.threads);
  std::vector<ScenarioResult> results;
  results.reserve(chosen.size());
  for (const auto& s : chosen) {
    ScenarioResult result;
    result.scenario = s;
    for (int rep = 0; rep < opt.repeat; ++rep) {
      Context ctx(pool, opt.sizes, opt.repeat, rep, opt.exec);
      result.wall_ns += time_ns([&] { s.run(ctx); });
      for (auto& sample : ctx.samples()) {
        result.ok = result.ok && sample.ok;
        result.samples.push_back(std::move(sample));
      }
    }
    results.push_back(std::move(result));
  }
  return results;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void append_sample(std::ostringstream& os, const std::string& scenario,
                   const Sample& s) {
  os << "{\"scenario\":\"" << json_escape(scenario) << "\","
     << "\"family\":\"" << json_escape(s.family) << "\","
     << "\"rep\":" << s.rep << ","
     << "\"n\":" << s.n << ","
     << "\"m\":" << s.m << ","
     << "\"rounds\":" << s.rounds << ","
     << "\"transmissions\":" << s.transmissions << ","
     << "\"wall_ns\":" << s.wall_ns << ","
     << "\"ok\":" << (s.ok ? "true" : "false");
  if (!s.extra.empty()) {
    os << ",\"extra\":{";
    for (std::size_t i = 0; i < s.extra.size(); ++i) {
      if (i) os << ",";
      std::ostringstream num;
      num << s.extra[i].second;
      os << "\"" << json_escape(s.extra[i].first) << "\":" << num.str();
    }
    os << "}";
  }
  os << "}";
}

}  // namespace

std::string to_json(const std::vector<ScenarioResult>& results,
                    const Options& opt) {
  std::ostringstream os;
  os << "{\"schema\":\"radiocast-bench/1\","
     << "\"repeat\":" << opt.repeat << ","
     << "\"filter\":\"" << json_escape(opt.filter) << "\","
     << "\"backend\":\"" << sim::to_string(opt.exec.backend) << "\","
     << "\"dispatch\":\"" << sim::to_string(opt.exec.dispatch) << "\","
     << "\"isa\":\"" << sim::simd::to_string(sim::simd::active_isa())
     << "\","
     << "\"sizes\":[";
  for (std::size_t i = 0; i < opt.sizes.size(); ++i) {
    if (i) os << ",";
    os << opt.sizes[i];
  }
  os << "],\"scenarios\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    if (i) os << ",";
    os << "{\"scenario\":\"" << json_escape(r.scenario.name) << "\","
       << "\"tags\":[";
    for (std::size_t t = 0; t < r.scenario.tags.size(); ++t) {
      if (t) os << ",";
      os << "\"" << json_escape(r.scenario.tags[t]) << "\"";
    }
    os << "],\"wall_ns\":" << r.wall_ns << ","
       << "\"ok\":" << (r.ok ? "true" : "false") << ","
       << "\"samples\":[";
    for (std::size_t j = 0; j < r.samples.size(); ++j) {
      if (j) os << ",";
      append_sample(os, r.scenario.name, r.samples[j]);
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

namespace {

constexpr const char* kUsage =
    "radiocast_bench — unified benchmark harness\n"
    "\n"
    "  --list            print registered scenarios and exit\n"
    "  --filter TERMS    comma-separated terms; run scenarios whose name\n"
    "                    contains a term or whose tags include it\n"
    "  --sizes N,N,...   instance-size ladder, entries >= 8\n"
    "                    (default 16,64,256)\n"
    "  --repeat K        repetitions per scenario (default 1)\n"
    "  --threads T       worker threads for the scenario pool; every\n"
    "                    engine runs on one thread (default: hardware\n"
    "                    concurrency)\n"
    "  --backend B       engine backend for engine-driving scenarios:\n"
    "                    auto (density/size-based), scalar, or bit\n"
    "                    (default auto)\n"
    "  --dispatch D      protocol-dispatch strategy for engine-driving\n"
    "                    scenarios: auto (active-set iff protocols hint),\n"
    "                    scan, or active (default auto)\n"
    "  --isa I           force the bit-kernel instruction set: auto (best\n"
    "                    available, or RADIOCAST_FORCE_ISA when set), scalar,\n"
    "                    avx2, or avx512; errors if the host lacks I\n"
    "                    (default auto)\n"
    "  --json PATH       write the radiocast-bench/1 JSON document to PATH\n";

}  // namespace

int run_main(int argc, const char* const* argv, std::ostream& out) {
  const Options opt = parse_args(argc, argv);
  if (!opt.error.empty()) {
    out << "error: " << opt.error << "\n\n" << kUsage;
    return 2;
  }
  if (opt.help) {
    out << kUsage;
    return 0;
  }
  // Pin the kernel dispatch before any engine is constructed (backends
  // capture the kernel table once).  kAuto clears the programmatic force, so
  // RADIOCAST_FORCE_ISA / best-available still apply.
  sim::simd::force_isa(opt.isa);
  if (opt.list) {
    TextTable table({"scenario", "tags", "description"});
    for (const auto& s : registry()) {
      std::string tags;
      for (const auto& t : s.tags) tags += (tags.empty() ? "" : ",") + t;
      table.row().add(s.name).add(tags).add(s.description);
    }
    out << table.str() << "\n";
    return 0;
  }

  const auto chosen = select(opt.filter);
  if (chosen.empty()) {
    out << "error: --filter '" << opt.filter << "' selects no scenarios "
        << "(see --list)\n";
    return 2;
  }

  const auto results = run_scenarios(chosen, opt);

  TextTable table({"scenario", "samples", "ok", "wall-ms"});
  bool all_ok = true;
  for (const auto& r : results) {
    all_ok = all_ok && r.ok;
    table.row()
        .add(r.scenario.name)
        .add(r.samples.size())
        .add(r.ok ? "yes" : "NO")
        .add(static_cast<double>(r.wall_ns) / 1e6, 2);
  }
  out << table.str() << "\n";

  if (!opt.json_path.empty()) {
    std::ofstream f(opt.json_path);
    if (!f) {
      out << "error: cannot open '" << opt.json_path << "' for writing\n";
      return 2;
    }
    f << to_json(results, opt) << "\n";
    out << "wrote " << opt.json_path << "\n";
  }

  out << (all_ok ? "all scenarios OK" : "SCENARIO FAILURES PRESENT") << "\n";
  return all_ok ? 0 : 1;
}

}  // namespace radiocast::bench
