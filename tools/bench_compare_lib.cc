#include "tools/bench_compare_lib.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json.h"

namespace autoem {
namespace tools {

namespace {

std::string JsonToString(const obs::JsonValue& v) {
  switch (v.type) {
    case obs::JsonValue::Type::kString: return v.string;
    case obs::JsonValue::Type::kNumber: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v.number);
      return buf;
    }
    case obs::JsonValue::Type::kBool: return v.boolean ? "true" : "false";
    default: return "";
  }
}

// Min-merges one run of a case into the accumulated stat.
void MergeCase(BenchCaseStat* into, const BenchCaseStat& run) {
  if (run.seconds > 0 && (into->seconds == 0 || run.seconds < into->seconds)) {
    into->seconds = run.seconds;
  }
  into->runs = static_cast<int>(std::min<int64_t>(
      int64_t{into->runs} + run.runs, std::numeric_limits<int>::max()));
}

bool AllDigits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

Result<BenchFile> ParseBenchJson(const std::string& text) {
  auto parsed = obs::ParseJson(text);
  if (!parsed.ok()) return parsed.status();
  const obs::JsonValue& root = *parsed;
  if (!root.is_object()) {
    return Status::InvalidArgument("bench file: root is not an object");
  }
  BenchFile file;
  if (const obs::JsonValue* meta = root.Find("meta"); meta != nullptr) {
    for (const auto& [key, value] : meta->object) {
      file.meta[key] = JsonToString(value);
    }
  }
  const obs::JsonValue* cases = root.Find("cases");
  if (cases == nullptr || !cases->is_array()) {
    return Status::InvalidArgument("bench file: missing \"cases\" array");
  }
  for (const obs::JsonValue& entry : cases->array) {
    const obs::JsonValue* name = entry.Find("name");
    if (name == nullptr || !name->is_string()) continue;
    BenchCaseStat stat;
    stat.name = name->string;
    if (const obs::JsonValue* secs = entry.Find("seconds");
        secs != nullptr && secs->is_number() && secs->number > 0) {
      stat.seconds = secs->number;
    }
    stat.runs = 1;
    if (const obs::JsonValue* counters = entry.Find("counters");
        counters != nullptr) {
      if (const obs::JsonValue* runs = counters->Find("bench_compare.runs");
          runs != nullptr && runs->is_number() && runs->number >= 1) {
        if (runs->number > std::numeric_limits<int>::max()) {
          return Status::InvalidArgument("bench file: case '" + stat.name +
                                         "': bench_compare.runs out of range");
        }
        stat.runs = static_cast<int>(runs->number);
      }
    }
    // Duplicate names within one file (google-benchmark repetitions)
    // min-merge the same way multiple files do.
    auto [it, inserted] = file.cases.emplace(stat.name, stat);
    if (!inserted) MergeCase(&it->second, stat);
  }
  return file;
}

Result<BenchFile> LoadBenchFiles(const std::vector<std::string>& paths) {
  if (paths.empty()) {
    return Status::InvalidArgument("no bench files given");
  }
  BenchFile merged;
  bool first = true;
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IOError("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    auto file = ParseBenchJson(buf.str());
    if (!file.ok()) {
      return Status::InvalidArgument(path + ": " +
                                     file.status().ToString());
    }
    if (first) {
      merged.meta = file->meta;
      first = false;
    }
    for (const auto& [name, stat] : file->cases) {
      auto [it, inserted] = merged.cases.emplace(name, stat);
      if (!inserted) MergeCase(&it->second, stat);
    }
  }
  return merged;
}

std::string SerializeBenchFile(const BenchFile& file) {
  std::string out = "{\"meta\":{";
  bool first = true;
  for (const auto& [key, value] : file.meta) {
    if (!first) out += ",";
    first = false;
    out += obs::JsonQuote(key);
    out += ":";
    out += AllDigits(value) ? value : obs::JsonQuote(value);
  }
  out += "},\"cases\":[";
  first = true;
  for (const auto& [name, stat] : file.cases) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\":" + obs::JsonQuote(name) +
           ",\"params\":{},\"counters\":{\"bench_compare.runs\":" +
           std::to_string(stat.runs) +
           "},\"seconds\":" + obs::JsonNumber(stat.seconds) + "}";
  }
  out += "\n]}\n";
  return out;
}

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk: return "ok";
    case Verdict::kImproved: return "improved";
    case Verdict::kRegressed: return "regressed";
    case Verdict::kSkipped: return "skipped";
    case Verdict::kMissingInCurrent: return "missing_in_current";
    case Verdict::kNew: return "new";
  }
  return "unknown";
}

CompareReport CompareBench(const BenchFile& baseline, const BenchFile& current,
                           const CompareOptions& options) {
  CompareReport report;
  for (const auto& [name, base] : baseline.cases) {
    CaseComparison c;
    c.name = name;
    c.baseline_s = base.seconds;
    auto it = current.cases.find(name);
    if (it == current.cases.end()) {
      // A dimensionless baseline figure (seconds==0) that disappears is not
      // lost *timing* coverage; only timed cases gate.
      if (base.seconds < options.min_seconds) continue;
      c.verdict = Verdict::kMissingInCurrent;
      ++report.missing_in_current;
      report.cases.push_back(std::move(c));
      continue;
    }
    c.current_s = it->second.seconds;
    if (c.baseline_s < options.min_seconds ||
        c.current_s < options.min_seconds) {
      c.verdict = Verdict::kSkipped;
      ++report.skipped;
    } else {
      c.ratio = c.current_s / c.baseline_s;
      if (c.ratio > 1.0 + options.noise) {
        c.verdict = Verdict::kRegressed;
        ++report.regressed;
      } else if (c.ratio < 1.0 - options.noise) {
        c.verdict = Verdict::kImproved;
        ++report.improved;
      } else {
        c.verdict = Verdict::kOk;
        ++report.ok;
      }
    }
    report.cases.push_back(std::move(c));
  }
  for (const auto& [name, cur] : current.cases) {
    if (baseline.cases.count(name) != 0) continue;
    if (cur.seconds < options.min_seconds) continue;
    CaseComparison c;
    c.name = name;
    c.current_s = cur.seconds;
    c.verdict = Verdict::kNew;
    ++report.added;
    report.cases.push_back(std::move(c));
  }
  // Worst first: regressions and lost coverage top the log.
  std::sort(report.cases.begin(), report.cases.end(),
            [](const CaseComparison& a, const CaseComparison& b) {
              auto rank = [](const CaseComparison& c) {
                switch (c.verdict) {
                  case Verdict::kMissingInCurrent: return 0;
                  case Verdict::kRegressed: return 1;
                  case Verdict::kOk: return 2;
                  case Verdict::kImproved: return 3;
                  case Verdict::kNew: return 4;
                  case Verdict::kSkipped: return 5;
                }
                return 6;
              };
              if (rank(a) != rank(b)) return rank(a) < rank(b);
              if (a.ratio != b.ratio) return a.ratio > b.ratio;
              return a.name < b.name;
            });
  return report;
}

std::string CompareReportJson(const CompareReport& report) {
  std::string out = "{\"failed\":";
  out += report.Failed() ? "true" : "false";
  out += ",\"summary\":{\"ok\":" + std::to_string(report.ok) +
         ",\"improved\":" + std::to_string(report.improved) +
         ",\"regressed\":" + std::to_string(report.regressed) +
         ",\"skipped\":" + std::to_string(report.skipped) +
         ",\"missing_in_current\":" +
         std::to_string(report.missing_in_current) +
         ",\"new\":" + std::to_string(report.added) + "},\"cases\":[";
  for (size_t i = 0; i < report.cases.size(); ++i) {
    const CaseComparison& c = report.cases[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\":" + obs::JsonQuote(c.name) +
           ",\"verdict\":\"" + VerdictName(c.verdict) +
           "\",\"baseline_s\":" + obs::JsonNumber(c.baseline_s) +
           ",\"current_s\":" + obs::JsonNumber(c.current_s) +
           ",\"ratio\":" + obs::JsonNumber(c.ratio) + "}";
  }
  out += "\n]}\n";
  return out;
}

std::string CompareReportText(const CompareReport& report) {
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line), "%-52s %12s %12s %8s  %s\n", "case",
                "baseline", "current", "ratio", "verdict");
  out += line;
  for (const CaseComparison& c : report.cases) {
    if (c.verdict == Verdict::kSkipped) continue;
    std::snprintf(line, sizeof(line), "%-52s %11.6fs %11.6fs %8.3f  %s\n",
                  c.name.c_str(), c.baseline_s, c.current_s, c.ratio,
                  VerdictName(c.verdict));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "%d ok, %d improved, %d regressed, %d missing, %d new, "
                "%d skipped -> %s\n",
                report.ok, report.improved, report.regressed,
                report.missing_in_current, report.added, report.skipped,
                report.Failed() ? "FAIL" : "PASS");
  out += line;
  return out;
}

}  // namespace tools
}  // namespace autoem
